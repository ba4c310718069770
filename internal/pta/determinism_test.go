package pta_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cc/ast"
	"repro/internal/pta"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// TestDeterministicAcrossRunsAndWorkers re-analyzes every fixture ten times
// for each worker count and requires the canonical rendering of the result
// to be byte-identical on every run: the parallel evaluator must not leak
// scheduling order into any reported fact, diagnostic, or the invocation
// graph itself.
func TestDeterministicAcrossRunsAndWorkers(t *testing.T) {
	const runs = 10
	workerCounts := []int{1, 2, 8}
	for _, fx := range loadFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			var want string
			for _, w := range workerCounts {
				for run := 0; run < runs; run++ {
					got := pta.Fingerprint(analyze(t, fx.prog, pta.Options{Workers: w}))
					if want == "" {
						want = got
						continue
					}
					if got != want {
						t.Fatalf("workers=%d run=%d: fingerprint diverged:\n%s",
							w, run, firstDiff(want, got))
					}
				}
			}
		})
	}
}

// TestHeapNamedGlobalPrintsStably analyzes a program whose global `heap`
// and a malloc'd cell both point to x. The two (heap, x, ·) triples render
// alike except for their definiteness, so only the sort keys of the global
// and the fixed heap location order them; they must print the same way at
// every worker count and on every run, the global first.
func TestHeapNamedGlobalPrintsStably(t *testing.T) {
	prog := loadSource(t, "heapname.c", `
int x;
int *heap;
int main() {
	int **p;
	heap = &x;
	p = (int **) malloc(8);
	*p = &x;
	return 0;
}
`)
	const want = "(heap,x,D) (heap,x,P)"
	for _, w := range []int{1, 2, 8} {
		for run := 0; run < 10; run++ {
			var got []string
			for _, tr := range analyze(t, prog, pta.Options{Workers: w}).MainOut.Triples() {
				if tr.Src.Name() == "heap" {
					got = append(got, tr.String())
				}
			}
			if s := strings.Join(got, " "); s != want {
				t.Fatalf("workers=%d run=%d: heap triples %q, want %q", w, run, s, want)
			}
		}
	}
}

// mkAnnLocs builds n distinct global-variable locations for annotation tests.
func mkAnnLocs(n int) []*loc.Location {
	tab := loc.NewTable(nil)
	out := make([]*loc.Location, n)
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := range out {
		out[i] = tab.VarLoc(&ast.Object{Name: names[i], Global: true}, nil)
	}
	return out
}

// TestAnnotationRecordCommutes checks that Annotations.Record is insensitive
// to recording order: whatever order the per-context input sets arrive in —
// and parallel evaluation permutes that order — the merged annotation is the
// same, with definiteness only ever weakening.
func TestAnnotationRecordCommutes(t *testing.T) {
	ls := mkAnnLocs(4)
	mk := func(edges ...[3]int) ptset.Set {
		s := ptset.New()
		for _, e := range edges {
			s.Insert(ls[e[0]], ls[e[1]], ptset.Def(e[2] == 1))
		}
		return s
	}
	sets := []ptset.Set{
		mk([3]int{0, 1, 1}, [3]int{1, 2, 1}),
		mk([3]int{0, 1, 1}, [3]int{2, 3, 0}),
		mk([3]int{0, 1, 1}, [3]int{0, 2, 0}, [3]int{1, 2, 1}),
	}
	b := &simple.Basic{}

	perms := [][]int{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	}
	var want ptset.Set
	for pi, perm := range perms {
		ann := pta.NewAnnotations()
		for _, i := range perm {
			ann.Record(b, sets[i], nil)
		}
		got, ok := ann.At(b)
		if !ok {
			t.Fatal("no annotation recorded")
		}
		if pi == 0 {
			want = got
			continue
		}
		if !ptset.Equal(got, want) {
			t.Fatalf("permutation %v: annotation %s differs from %s", perm, got, want)
		}
	}

	// (0->1) is definite in every recorded set, so it stays definite.
	// (1->2) is definite on two paths but absent from sets[1]: the path
	// join weakens it to possible. (0->2) was only ever possible.
	if d, ok := want.Lookup(ls[0], ls[1]); !ok || d != ptset.D {
		t.Errorf("(a->b) = %v,%v; want definite", d, ok)
	}
	if d, ok := want.Lookup(ls[1], ls[2]); !ok || d != ptset.P {
		t.Errorf("(b->c) = %v,%v; want weakened to possible", d, ok)
	}
	if d, ok := want.Lookup(ls[0], ls[2]); !ok || d != ptset.P {
		t.Errorf("(a->c) = %v,%v; want possible", d, ok)
	}

	// A later possible recording weakens an earlier definite one.
	ann := pta.NewAnnotations()
	ann.Record(b, mk([3]int{0, 1, 1}), nil)
	ann.Record(b, mk([3]int{0, 1, 0}), nil)
	got, _ := ann.At(b)
	if d, ok := got.Lookup(ls[0], ls[1]); !ok || d != ptset.P {
		t.Errorf("definite + possible = %v,%v; want weakened to possible", d, ok)
	}
}

// TestAnnotationRecordConcurrent hammers one Annotations store from several
// goroutines; under -race this checks Record's locking, and the final merge
// must equal the serial merge of the same sets.
func TestAnnotationRecordConcurrent(t *testing.T) {
	ls := mkAnnLocs(8)
	bs := []*simple.Basic{{}, {}, {}}
	mkSet := func(i int) ptset.Set {
		s := ptset.New()
		s.Insert(ls[i%4], ls[4+i%4], ptset.Def(i%3 == 0))
		s.Insert(ls[(i+1)%4], ls[4+(i+2)%4], ptset.P)
		return s
	}

	ann := pta.NewAnnotations()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ann.Record(bs[i%len(bs)], mkSet(i), nil)
			}
		}(w)
	}
	wg.Wait()

	serial := pta.NewAnnotations()
	for i := 0; i < 100; i++ {
		serial.Record(bs[i%len(bs)], mkSet(i), nil)
	}
	for bi, b := range bs {
		got, ok1 := ann.At(b)
		want, ok2 := serial.At(b)
		if ok1 != ok2 || !ptset.Equal(got, want) {
			t.Errorf("statement %d: concurrent merge %s != serial merge %s", bi, got, want)
		}
	}
}
