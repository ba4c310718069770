package loc

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cc/ast"
)

// TestTableShardBoundaries interns the same locations concurrently from 8
// goroutines into one table and checks that pointer identity holds: one
// canonical *Location per (object, path) key no matter which worker got
// there first.
func TestTableShardBoundaries(t *testing.T) {
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
}
