package loc

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cc/ast"
)

// TestTableConcurrentIntern interns the same locations concurrently from 8
// goroutines into one table. Pointer identity must hold: one canonical
// *Location per (object, path) key no matter which worker got there first.
// The IDs must number the table's locations 0..N-1 without a gap or a
// duplicate, and At must map each ID back to its location.
func TestTableConcurrentIntern(t *testing.T) {
	objs := make([]*ast.Object, 24)
	for i := range objs {
		objs[i] = &ast.Object{Name: fmt.Sprintf("v%02d", i), Global: true}
	}
	paths := [][]Elem{nil, {HeadElem}, {TailElem}, {FieldElem("f")}, {FieldElem("f"), HeadElem}}
	tab := NewTable(nil)
	const workers = 8
	got := make([][]*Location, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i, obj := range objs {
					got[w] = append(got[w], tab.VarLoc(obj, paths[(i+round)%len(paths)]))
					got[w] = append(got[w], tab.FuncLoc(obj))
					got[w] = append(got[w], tab.SymLoc(nil, fmt.Sprintf("%d_s", i%4), nil, nil))
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[0] {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d intern %d returned a non-canonical location %s",
					w, i, got[w][i].Name())
			}
		}
	}
	// vars (24 objs x 5 paths) + funcs (24) + syms (4).
	if want := 24*len(paths) + 24 + 4; tab.Stats().Locations != want {
		t.Errorf("Locations = %d, want %d", tab.Stats().Locations, want)
	}

	// The interned locations plus the four the table starts with.
	all := map[*Location]bool{tab.HeapLoc(): true, tab.NullLoc(): true, tab.StrLoc(): true, tab.FreedLoc(): true}
	for _, l := range got[0] {
		all[l] = true
	}
	if want := tab.Stats().Locations + 4; len(all) != want {
		t.Fatalf("%d distinct locations, want %d", len(all), want)
	}
	byID := make([]*Location, len(all))
	for l := range all {
		id := l.ID()
		if int(id) >= len(byID) {
			t.Fatalf("%s has ID %d, beyond the %d locations", l.Name(), id, len(all))
		}
		if byID[id] != nil {
			t.Fatalf("%s and %s share ID %d", byID[id].Name(), l.Name(), id)
		}
		byID[id] = l
		if tab.At(id) != l {
			t.Errorf("At(%d) = %s, want %s", id, tab.At(id).Name(), l.Name())
		}
		if l.Table() != tab {
			t.Errorf("%s does not name its table", l.Name())
		}
	}
}
