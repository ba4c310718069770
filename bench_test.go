// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (§6), plus ablation benches for the design choices
// DESIGN.md calls out. Each benchmark regenerates its table's data on every
// iteration; run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured comparison.
package main

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/constprop"
	"repro/internal/deptest"
	"repro/internal/heapconn"
	"repro/internal/interp"
	"repro/internal/modref"
	"repro/internal/pta"
	"repro/internal/report"
	"repro/internal/simple"
)

func loadSuite(b *testing.B) []*simple.Program {
	b.Helper()
	progs := make([]*simple.Program, 0, len(bench.Suite))
	for _, p := range bench.Suite {
		prog, err := bench.Load(p.Name)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog)
	}
	return progs
}

func analyzeAll(b *testing.B, progs []*simple.Program, opts pta.Options) []*report.BenchStats {
	b.Helper()
	out := make([]*report.BenchStats, 0, len(progs))
	for i, prog := range progs {
		res, err := pta.Analyze(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, report.Compute(bench.Suite[i].Name, res))
	}
	return out
}

// BenchmarkTable2 regenerates the benchmark characteristics (frontend +
// simplifier + abstract stack sizing).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		progs := loadSuite(b)
		stats := analyzeAll(b, progs, pta.Options{})
		report.WriteTable2(io.Discard, stats)
	}
}

// BenchmarkTable3 regenerates the indirect-reference resolution statistics.
func BenchmarkTable3(b *testing.B) {
	progs := loadSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := analyzeAll(b, progs, pta.Options{})
		report.WriteTable3(io.Discard, stats)
	}
}

// BenchmarkTable4 regenerates the points-to pair categorization.
func BenchmarkTable4(b *testing.B) {
	progs := loadSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := analyzeAll(b, progs, pta.Options{})
		report.WriteTable4(io.Discard, stats)
	}
}

// BenchmarkTable5 regenerates the per-statement pair totals.
func BenchmarkTable5(b *testing.B) {
	progs := loadSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := analyzeAll(b, progs, pta.Options{})
		report.WriteTable5(io.Discard, stats)
	}
}

// BenchmarkTable6 regenerates the invocation graph statistics.
func BenchmarkTable6(b *testing.B) {
	progs := loadSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := analyzeAll(b, progs, pta.Options{})
		report.WriteTable6(io.Discard, stats)
	}
}

// BenchmarkLivc regenerates the function-pointer strategy experiment
// (invocation graph sizes: precise vs address-taken vs all-functions).
func BenchmarkLivc(b *testing.B) {
	prog, err := bench.Load("livc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.CompareFnPtrStrategies(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the invocation graph construction for the
// three calling-structure shapes of Figure 2 (plain, recursive, mutual).
func BenchmarkFigure2(b *testing.B) {
	progs := []string{"csuite", "xref", "stanford"}
	loaded := make([]*simple.Program, len(progs))
	for i, n := range progs {
		p, err := bench.Load(n)
		if err != nil {
			b.Fatal(err)
		}
		loaded[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range loaded {
			res, err := pta.Analyze(p, pta.Options{})
			if err != nil {
				b.Fatal(err)
			}
			res.Graph.WriteDot(io.Discard)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationMemoization measures the cost of disabling IN/OUT
// memoization on invocation graph nodes.
func BenchmarkAblationMemoization(b *testing.B) {
	progs := loadSuite(b)
	b.Run("memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyzeAll(b, progs, pta.Options{})
		}
	})
	b.Run("nomemo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyzeAll(b, progs, pta.Options{NoMemo: true})
		}
	})
}

// BenchmarkWorkers measures the parallel evaluator across pool sizes: the
// suite analyzed serially, with two workers, and with GOMAXPROCS workers.
// Results are bit-identical across pool sizes (see the determinism tests);
// only wall time may differ.
func BenchmarkWorkers(b *testing.B) {
	progs := loadSuite(b)
	for _, w := range []int{1, 2, 0} {
		name := fmt.Sprintf("workers-%d", w)
		if w == 0 {
			name = "workers-gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				analyzeAll(b, progs, pta.Options{Workers: w})
			}
		})
	}
}

// BenchmarkAblationDefinite measures the cost of carrying definite
// relationships (the precision effect is reported by ptabench -ablation).
func BenchmarkAblationDefinite(b *testing.B) {
	progs := loadSuite(b)
	b.Run("with-definite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyzeAll(b, progs, pta.Options{})
		}
	})
	b.Run("no-definite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyzeAll(b, progs, pta.Options{NoDefinite: true})
		}
	})
}

// BenchmarkAblationArrayAbstraction compares the two-location array
// abstraction against a single location per array.
func BenchmarkAblationArrayAbstraction(b *testing.B) {
	progs := loadSuite(b)
	b.Run("head-tail", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyzeAll(b, progs, pta.Options{})
		}
	})
	b.Run("single-loc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyzeAll(b, progs, pta.Options{SingleArrayLoc: true})
		}
	})
}

// BenchmarkAblationContext compares context-sensitive analysis against the
// merged-context (context-insensitive) variant.
func BenchmarkAblationContext(b *testing.B) {
	progs := loadSuite(b)
	b.Run("context-sensitive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyzeAll(b, progs, pta.Options{})
		}
	})
	b.Run("context-insensitive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyzeAll(b, progs, pta.Options{ContextInsensitive: true})
		}
	})
}

// BenchmarkContextSharing measures the paper's §6 future-work optimization
// (summary-cache subtree sharing) on livc under the pathological
// all-functions strategy, where identical contexts abound.
func BenchmarkContextSharing(b *testing.B) {
	prog, err := bench.Load("livc")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("allfuncs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pta.Analyze(prog, pta.Options{FnPtr: pta.AllFuncs}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("allfuncs-shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pta.Analyze(prog, pta.Options{FnPtr: pta.AllFuncs, ShareContexts: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAndersen measures the flow-insensitive baseline.
func BenchmarkAndersen(b *testing.B) {
	progs := loadSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			baseline.Andersen(p)
		}
	}
}

// BenchmarkFrontend isolates parsing+simplification.
func BenchmarkFrontend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loadSuite(b)
	}
}

// BenchmarkConstProp measures the constant-propagation client analysis
// built on the points-to results and their MOD sets (§6.1's framework
// application).
func BenchmarkConstProp(b *testing.B) {
	progs := loadSuite(b)
	results := make([]*pta.Result, len(progs))
	mods := make([]*modref.Result, len(progs))
	for i, p := range progs {
		r, err := pta.Analyze(p, pta.Options{})
		if err != nil {
			b.Fatal(err)
		}
		results[i], mods[i] = r, modref.Compute(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, r := range results {
			constprop.RunWithMod(r, mods[j])
		}
	}
}

// BenchmarkHeapConnection measures the companion connection analysis for
// heap-directed pointers (the paper's conclusions, reference [16]).
func BenchmarkHeapConnection(b *testing.B) {
	progs := loadSuite(b)
	results := make([]*pta.Result, len(progs))
	for i, p := range progs {
		r, err := pta.Analyze(p, pta.Options{})
		if err != nil {
			b.Fatal(err)
		}
		results[i] = r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			heapconn.Run(r)
		}
	}
}

// BenchmarkDependenceTesting measures the array dependence client (§6.1).
func BenchmarkDependenceTesting(b *testing.B) {
	progs := loadSuite(b)
	results := make([]*pta.Result, len(progs))
	for i, p := range progs {
		r, err := pta.Analyze(p, pta.Options{})
		if err != nil {
			b.Fatal(err)
		}
		results[i] = r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range results {
			deptest.Run(r)
		}
	}
}

// BenchmarkInterpreter measures concrete execution of the whole suite (the
// soundness-oracle substrate).
func BenchmarkInterpreter(b *testing.B) {
	progs := loadSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			ip := interp.New(p)
			if _, err := ip.Run(); err != nil {
				if _, isExit := interp.ExitCode(err); !isExit {
					b.Fatal(err)
				}
			}
		}
	}
}
