package check_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cc/parser"
	"repro/internal/check"
	"repro/internal/pta"
	"repro/internal/simplify"
	"repro/internal/testutil"
	"repro/pointsto"
)

// TestFixtures is the golden test over examples/check: one positive fixture
// per checker, each with a clean negative twin.
func TestFixtures(t *testing.T) {
	cases := []struct {
		file string
		want []string
	}{
		{"nullderef.c", []string{
			"nullderef.c:6:9: error: null-deref: '*p' dereferences a NULL pointer [context: main]",
		}},
		{"nullderef_ok.c", nil},
		{"uninit.c", []string{
			"uninit.c:5:9: error: dangling-pointer: address of local 'x' of leak escapes via the return value [context: main -> leak]",
			"uninit.c:12:12: warning: uninit-deref: '*p' dereferences a pointer with no targets (uninitialized or dangling) [context: main]",
		}},
		{"uninit_ok.c", nil},
		{"uaf.c", []string{
			"uaf.c:3:12: error: use-after-free: '*q' dereferences freed heap storage [context: main -> use]",
		}},
		{"uaf_ok.c", nil},
		{"doublefree.c", []string{
			"doublefree.c:6:9: error: double-free: 'p' frees already-freed storage (double free) [context: main]",
		}},
		{"doublefree_ok.c", nil},
		{"dangle.c", []string{
			"dangle.c:5:9: error: dangling-pointer: address of local 'local' of store escapes via global 'g' [context: main -> store]",
		}},
		{"dangle_ok.c", nil},
		{"ctx.c", []string{
			"ctx.c:5:12: warning: null-deref: '*p' may dereference a NULL pointer [context: main -> deref]",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			a := testutil.AnalyzeFile(t, filepath.Join(testutil.FixtureDir("check"), tc.file))
			diags, err := a.Check()
			if err != nil {
				t.Fatal(err)
			}
			got := testutil.Render(diags)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\ngot:  %s\nwant: %s",
					len(got), len(tc.want), strings.Join(got, "\n      "), strings.Join(tc.want, "\n      "))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("diag %d:\ngot:  %s\nwant: %s", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestErrorsNeedAllContexts pins the severity split: the same dereference is
// an error when every calling context is bad and only a warning when one
// clean context exists.
func TestErrorsNeedAllContexts(t *testing.T) {
	const allBad = `
int deref(int *p) { return *p; }
int main(void) {
    int r;
    r = deref(0);
    return r + deref(0);
}
`
	a, err := pointsto.AnalyzeSource("allbad.c", allBad, nil)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := a.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Sev != check.Error || diags[0].Kind != check.NullDeref {
		t.Fatalf("want one null-deref error, got %v", testutil.Render(diags))
	}
	if diags[0].Ctx != "main -> deref" {
		t.Errorf("context path = %q, want %q", diags[0].Ctx, "main -> deref")
	}
}

// TestRunRejectsWrongOptions verifies Run demands per-context annotations
// and refuses summary sharing.
func TestRunRejectsWrongOptions(t *testing.T) {
	src := `int main(void) { return 0; }`
	tu, err := parser.Parse("opt.c", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simplify.Simplify(tu)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pta.Analyze(prog, pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := check.Run(res); err == nil {
		t.Error("Run accepted a result without RecordContexts")
	}
	res, err = pta.Analyze(prog, pta.Options{RecordContexts: true, ShareContexts: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := check.Run(res); err == nil {
		t.Error("Run accepted a result with ShareContexts")
	}
}

// TestCheckRerunsAnalysis verifies the public entry point works from a
// ShareContexts analysis, whose cache hits leave calling contexts
// unannotated: Check must re-run it internally without sharing.
func TestCheckRerunsAnalysis(t *testing.T) {
	a, err := pointsto.AnalyzeSource("re.c", `
int main(void) {
    int *p;
    p = 0;
    return *p;
}
`, &pointsto.Config{ShareContexts: true})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := a.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Kind != check.NullDeref || diags[0].Sev != check.Error {
		t.Fatalf("want one null-deref error, got %v", testutil.Render(diags))
	}
}

// TestBenchSuite runs the checker over the paper's benchmark suite: it must
// complete on every program, and the per-benchmark diagnostic counts are
// logged (they feed EXPERIMENTS.md).
func TestBenchSuite(t *testing.T) {
	for _, name := range bench.Names() {
		src, err := bench.Source(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, err := pointsto.AnalyzeSource(name+".c", src, nil)
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		diags, err := a.Check()
		if err != nil {
			t.Fatalf("%s: check: %v", name, err)
		}
		counts := map[check.Kind]int{}
		errs, warns := 0, 0
		for _, d := range diags {
			counts[d.Kind]++
			if d.Sev == check.Error {
				errs++
			} else {
				warns++
			}
		}
		var parts []string
		for _, k := range []check.Kind{check.NullDeref, check.UninitDeref,
			check.UseAfterFree, check.DoubleFree, check.InvalidFree, check.Dangling} {
			if counts[k] > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
			}
		}
		t.Logf("%-10s errors=%d warnings=%d %s", name, errs, warns, strings.Join(parts, " "))
	}
}

// TestSamePathContextsOrdered pins the diagnostic for a statement reached in
// two contexts with one call path: g is called twice from f, once with NULL
// and once with freed storage. Both contexts are bad in every way, so the
// verdict named is the first context's, and contexts with equal paths are
// ordered by their call sites: the g(a) call comes first.
func TestSamePathContextsOrdered(t *testing.T) {
	const src = `#include <stdlib.h>
int g(int *p) { return *p; }
int f(int *a, int *b) { return g(a) + g(b); }
int main() { int *q = malloc(4); free(q); return f(0, q); }
`
	a, err := pointsto.AnalyzeSource("samepath.c", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	const want = "samepath.c:2:24: error: null-deref: '*p' dereferences a NULL pointer [context: main -> f -> g]"
	for i := 0; i < 50; i++ {
		diags, err := a.Check()
		if err != nil {
			t.Fatal(err)
		}
		if got := testutil.Render(diags); len(got) != 1 || got[0] != want {
			t.Fatalf("run %d: got %q, want %q", i, got, want)
		}
	}
}
