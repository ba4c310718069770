package oracle

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cc/parser"
	"repro/internal/pta"
	"repro/internal/simplify"
)

// TestGeneratedProgramsSound generates random programs and checks that the
// analysis soundly covers their concrete executions — the heavyweight
// property test of DESIGN.md §6 (the interpreter oracle).
func TestGeneratedProgramsSound(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		src := generated(seed)
		tu, err := parser.Parse("gen.c", src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		prog, err := simplify.Simplify(tu)
		if err != nil {
			t.Fatalf("seed %d: simplify: %v\n%s", seed, err, src)
		}
		res, err := pta.Analyze(prog, pta.Options{})
		if err != nil {
			t.Fatalf("seed %d: analyze: %v\n%s", seed, err, src)
		}
		if err := RunAndCheck(res, prog, 500_000); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
	}
}

// generated is the program that TestGeneratedProgramsSound and
// TestConstantsHold check for seed: the generator's shape varies with it.
func generated(seed int) string {
	cfg := bench.DefaultGenConfig(int64(seed))
	cfg.Funcs = 2 + seed%3
	cfg.StmtsPer = 8 + seed%10
	cfg.UseFnPtrs = seed%2 == 0
	return bench.Generate(cfg)
}

// FuzzMemoParallelEquivalence is the differential fuzz target for the
// summary cache and the parallel evaluator: the fuzzer mutates the program
// generator's shape parameters, and for every generated program the
// memoized, unmemoized and parallel analyses must produce byte-identical
// canonical results — and the memoized result must still soundly cover the
// program's concrete execution.
func FuzzMemoParallelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(12), uint8(2), true)
	f.Add(int64(7), uint8(2), uint8(8), uint8(1), false)
	f.Add(int64(42), uint8(4), uint8(16), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, funcs, stmts, depth uint8, fnptrs bool) {
		cfg := bench.DefaultGenConfig(seed)
		cfg.Funcs = 1 + int(funcs%5)
		cfg.StmtsPer = 1 + int(stmts%24)
		cfg.MaxDepth = 1 + int(depth%3)
		cfg.UseFnPtrs = fnptrs
		src := bench.Generate(cfg)

		tu, err := parser.Parse("fuzz.c", src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		prog, err := simplify.Simplify(tu)
		if err != nil {
			t.Fatalf("simplify: %v\n%s", err, src)
		}
		memo, err := pta.Analyze(prog, pta.Options{Workers: 1})
		if err != nil {
			t.Fatalf("analyze: %v\n%s", err, src)
		}
		want := pta.Fingerprint(memo)
		for _, opts := range []pta.Options{
			{Workers: 1, NoMemo: true},
			{Workers: 4},
			{Workers: 4, NoMemo: true},
		} {
			res, err := pta.Analyze(prog, opts)
			if err != nil {
				t.Fatalf("analyze %+v: %v\n%s", opts, err, src)
			}
			if got := pta.Fingerprint(res); got != want {
				t.Fatalf("%+v: result differs from memoized serial analysis\n%s", opts, src)
			}
		}
		if err := RunAndCheck(memo, prog, 200_000); err != nil {
			t.Fatalf("soundness: %v\n%s", err, src)
		}
	})
}

// TestGeneratedProgramsSoundUnderAblations repeats a few seeds under each
// ablation configuration: ablations trade precision, never soundness.
func TestGeneratedProgramsSoundUnderAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	configs := []pta.Options{
		{NoDefinite: true},
		{SingleArrayLoc: true},
		{ContextInsensitive: true},
		{NoMemo: true},
	}
	for seed := 100; seed < 110; seed++ {
		src := bench.Generate(bench.DefaultGenConfig(int64(seed)))
		tu, err := parser.Parse("gen.c", src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		prog, err := simplify.Simplify(tu)
		if err != nil {
			t.Fatalf("seed %d: simplify: %v", seed, err)
		}
		for i, opts := range configs {
			res, err := pta.Analyze(prog, opts)
			if err != nil {
				t.Fatalf("seed %d cfg %d: analyze: %v", seed, i, err)
			}
			if err := RunAndCheck(res, prog, 500_000); err != nil {
				t.Fatalf("seed %d cfg %d: %v\n%s", seed, i, err, src)
			}
		}
	}
}
