package pta_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/cc/parser"
	"repro/internal/pta"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
	"repro/internal/simplify"
	"repro/internal/testutil"
)

// fixture is one C program shared by the differential and determinism tests:
// every example under examples/check plus the whole benchmark suite.
type fixture struct {
	name string
	prog *simple.Program
}

func loadFixtures(t *testing.T) []fixture {
	t.Helper()
	var out []fixture

	dir := filepath.Join("..", "..", "examples", "check")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		tu, err := parser.Parse(e.Name(), string(src))
		if err != nil {
			t.Fatalf("parse %s: %v", e.Name(), err)
		}
		prog, err := simplify.Simplify(tu)
		if err != nil {
			t.Fatalf("simplify %s: %v", e.Name(), err)
		}
		out = append(out, fixture{name: "check/" + strings.TrimSuffix(e.Name(), ".c"), prog: prog})
	}

	for _, name := range bench.Names() {
		if testing.Short() && name == "livc" {
			continue
		}
		prog, err := bench.Load(name)
		if err != nil {
			t.Fatalf("bench.Load(%s): %v", name, err)
		}
		out = append(out, fixture{name: "bench/" + name, prog: prog})
	}
	return out
}

func analyze(t *testing.T, prog *simple.Program, opts pta.Options) *pta.Result {
	t.Helper()
	res, err := pta.Analyze(prog, opts)
	if err != nil {
		t.Fatalf("Analyze(%+v): %v", opts, err)
	}
	return res
}

// comparableKind selects the location kinds whose points-to relationships
// both analyses express: named variables, the abstract heap, string storage
// and functions. Excluded are Symbolic locations (invisible variables and
// the argc/argv seeds, which exist only in the context-sensitive naming),
// NULL (initialization noise) and Freed (the context-sensitive free() model
// that the flow-insensitive baseline has no counterpart for).
func comparableKind(k loc.Kind) bool {
	switch k {
	case loc.Var, loc.Heap, loc.Str, loc.Func:
		return true
	}
	return false
}

// TestSubsetOfAndersen checks, program by program, that every comparable
// points-to fact the context-sensitive analysis derives is also present in
// the flow- and context-insensitive Andersen-style solution: the paper's
// analysis is strictly more precise, so on the shared location domain its
// facts must be a subset of the baseline's may-point-to facts.
func TestSubsetOfAndersen(t *testing.T) {
	for _, fx := range loadFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			res := analyze(t, fx.prog, pta.Options{})
			and := baseline.Andersen(fx.prog)

			have := make(map[[2]string]bool, and.Sol.Len())
			and.Sol.Range(func(tr ptset.Triple) {
				have[[2]string{tr.Src.SortKey(), tr.Dst.SortKey()}] = true
			})

			reported := make(map[[2]string]bool)
			check := func(where string, s ptset.Set) {
				s.Range(func(tr ptset.Triple) {
					if !comparableKind(tr.Src.Kind) || !comparableKind(tr.Dst.Kind) {
						return
					}
					key := [2]string{tr.Src.SortKey(), tr.Dst.SortKey()}
					if reported[key] {
						return
					}
					if !have[key] {
						reported[key] = true
						t.Errorf("%s: context-sensitive fact (%s -> %s) missing from Andersen solution",
							where, tr.Src.Name(), tr.Dst.Name())
					}
				})
			}
			fx.prog.ForEachBasic(func(b *simple.Basic) {
				if s, ok := res.Annots.At(b); ok {
					check("stmt", s)
				}
			})
			check("main-out", res.MainOut)
		})
	}
}

// TestSerialParallelMemoEquivalence checks the central invariant of the
// parallel evaluator and the input-keyed memoization: for every fixture, the
// serial, parallel, memoized and unmemoized analyses produce byte-identical
// canonical renderings of the complete result. Recording calling contexts
// changes neither the rendering nor the fact count, and each statement's
// contexts join to its merge.
func TestSerialParallelMemoEquivalence(t *testing.T) {
	variants := []struct {
		name string
		opts pta.Options
	}{
		{"serial", pta.Options{Workers: 1}},
		{"parallel2", pta.Options{Workers: 2}},
		{"parallel8", pta.Options{Workers: 8}},
		{"serial-nomemo", pta.Options{Workers: 1, NoMemo: true}},
		{"parallel8-nomemo", pta.Options{Workers: 8, NoMemo: true}},
		{"serial-contexts", pta.Options{Workers: 1, RecordContexts: true}},
		{"parallel2-contexts", pta.Options{Workers: 2, RecordContexts: true}},
		{"parallel8-contexts", pta.Options{Workers: 8, RecordContexts: true}},
	}
	for _, fx := range loadFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			ref := analyze(t, fx.prog, variants[0].opts)
			want := pta.Fingerprint(ref)
			for _, v := range variants[1:] {
				res := analyze(t, fx.prog, v.opts)
				got := pta.Fingerprint(res)
				if got != want {
					t.Errorf("%s fingerprint differs from serial (lengths %d vs %d):\n%s",
						v.name, len(got), len(want), firstDiff(want, got))
				}
				if got, want := res.Annots.TotalFacts(), ref.Annots.TotalFacts(); got != want {
					t.Errorf("%s records %d facts, serial %d", v.name, got, want)
				}
				if v.opts.RecordContexts {
					testutil.ContextsJoinToMerge(t, res)
				}
			}
		})
	}
}

// firstDiff renders the first divergent line pair of two fingerprints.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  serial: %s\n  other:  %s", i+1, al[i], bl[i])
		}
	}
	return "one fingerprint is a prefix of the other"
}
