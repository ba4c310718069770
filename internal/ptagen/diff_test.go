package ptagen_test

import (
	"os"
	"testing"

	"repro/internal/baseline"
	"repro/internal/pta"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/ptagen"
	"repro/internal/simple"
	"repro/internal/testutil"
)

// The differential matrix: ~20 generated programs spanning the dial space.
// Each one is checked for (a) fingerprint and fact-count equivalence across
// serial, parallel and unmemoized evaluation, with and without calling
// contexts recorded (whose per-statement join must be the merge), and (b)
// the precision ordering CS ⊆ Andersen on the shared location domain.
// Sizes are kept small so the whole matrix runs inside a normal
// `go test ./...`; the CI smoke job runs the same checks on a mid-size
// program via PTAGEN_DIFF_LARGE=1.
func seedMatrix() []ptagen.Config {
	small := func(seed int64) ptagen.Config {
		return ptagen.Config{Seed: seed, Depth: 2, Width: 3, StmtsPerFunc: 10,
			FnPtrDensity: 0.3, Recursion: 0.15, HeapChurn: 0.25, StructDepth: 2, Threads: 2}
	}
	var out []ptagen.Config
	// Four seeds of the base shape.
	for s := int64(1); s <= 4; s++ {
		out = append(out, small(s))
	}
	// Dial sweeps, each at two seeds.
	for s := int64(5); s <= 6; s++ {
		c := small(s)
		c.FnPtrDensity = 1 // every node dispatches through a table
		out = append(out, c)

		c = small(s + 10)
		c.FnPtrDensity = 0 // pure direct calls
		c.Threads = 0
		out = append(out, c)

		c = small(s + 20)
		c.Recursion = 1 // every function self-recurses
		out = append(out, c)

		c = small(s + 30)
		c.HeapChurn = 1 // malloc/free on every draw
		c.StructDepth = 4
		out = append(out, c)

		c = small(s + 40)
		c.Depth = 3
		c.Width = 2 // deep and narrow
		c.Threads = 3
		out = append(out, c)

		c = small(s + 50)
		c.Depth = 1
		c.Width = 6 // flat and wide
		out = append(out, c)
	}
	return out
}

// comparableKind mirrors the fixture differential test: the location kinds
// whose points-to facts both the context-sensitive analysis and the Andersen
// baseline express.
func comparableKind(k loc.Kind) bool {
	switch k {
	case loc.Var, loc.Heap, loc.Str, loc.Func:
		return true
	}
	return false
}

func checkProgram(t *testing.T, cfg ptagen.Config) {
	t.Helper()
	prog, meta, err := ptagen.Load(cfg)
	if err != nil {
		t.Fatalf("%s: %v", meta.Name, err)
	}

	variants := []struct {
		name string
		opts pta.Options
	}{
		{"serial", pta.Options{Workers: 1}},
		{"parallel-2", pta.Options{Workers: 2}},
		{"parallel-8", pta.Options{Workers: 8}},
		{"no-memo", pta.Options{Workers: 1, NoMemo: true}},
		{"serial-contexts", pta.Options{Workers: 1, RecordContexts: true}},
		{"parallel-2-contexts", pta.Options{Workers: 2, RecordContexts: true}},
		{"parallel-8-contexts", pta.Options{Workers: 8, RecordContexts: true}},
	}
	var ref *pta.Result
	var refFP string
	for _, v := range variants {
		res, err := pta.Analyze(prog, v.opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", meta.Name, v.name, err)
		}
		if v.opts.RecordContexts {
			testutil.ContextsJoinToMerge(t, res)
		}
		fp := pta.Fingerprint(res)
		if ref == nil {
			ref, refFP = res, fp
			continue
		}
		if fp != refFP {
			t.Errorf("%s: %s fingerprint diverges from serial", meta.Name, v.name)
		}
		if got, want := res.Annots.TotalFacts(), ref.Annots.TotalFacts(); got != want {
			t.Errorf("%s: %s records %d facts, serial %d", meta.Name, v.name, got, want)
		}
	}

	// Precision ordering: every comparable context-sensitive fact must be in
	// the Andersen may-point-to solution.
	and := baseline.Andersen(prog)
	have := make(map[[2]string]bool, and.Sol.Len())
	and.Sol.Range(func(tr ptset.Triple) {
		have[[2]string{tr.Src.SortKey(), tr.Dst.SortKey()}] = true
	})
	missing := 0
	check := func(s ptset.Set) {
		s.Range(func(tr ptset.Triple) {
			if !comparableKind(tr.Src.Kind) || !comparableKind(tr.Dst.Kind) {
				return
			}
			key := [2]string{tr.Src.SortKey(), tr.Dst.SortKey()}
			if !have[key] {
				missing++
				if missing <= 3 {
					t.Errorf("%s: fact (%s -> %s) missing from Andersen solution",
						meta.Name, tr.Src.Name(), tr.Dst.Name())
				}
			}
		})
	}
	prog.ForEachBasic(func(b *simple.Basic) {
		if s, ok := ref.Annots.At(b); ok {
			check(s)
		}
	})
	check(ref.MainOut)
	if missing > 3 {
		t.Errorf("%s: %d further facts missing from Andersen solution", meta.Name, missing-3)
	}
}

func TestPtagenDifferentialMatrix(t *testing.T) {
	for _, cfg := range seedMatrix() {
		cfg := cfg
		_, meta := ptagen.Generate(cfg)
		t.Run(meta.Name, func(t *testing.T) {
			t.Parallel()
			checkProgram(t, cfg)
		})
	}
}

// TestPtagenDifferentialLarge runs the same checks on one mid-size program
// (~25k statements). It is too slow for the default test run, so it only
// executes when PTAGEN_DIFF_LARGE=1 — the CI smoke job sets it.
func TestPtagenDifferentialLarge(t *testing.T) {
	if os.Getenv("PTAGEN_DIFF_LARGE") == "" {
		t.Skip("set PTAGEN_DIFF_LARGE=1 to run the mid-size differential check")
	}
	checkProgram(t, ptagen.Config{Seed: 1, Depth: 4, Width: 4, StmtsPerFunc: 40,
		FnPtrDensity: 0.25, Recursion: 0.15, HeapChurn: 0.2, StructDepth: 3, Threads: 2})
}
