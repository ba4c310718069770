package taint_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cc/parser"
	"repro/internal/obsv"
	"repro/internal/pta"
	"repro/internal/simplify"
	"repro/internal/taint"
	"repro/internal/testutil"
	"repro/pointsto"
)

// TestFixtures is the golden test over examples/taint: every fixture's
// rendered diagnostics are pinned in a .golden file next to it, and every
// _ok twin must be free of error-level diagnostics.
func TestFixtures(t *testing.T) {
	dir := testutil.FixtureDir("taint")
	files := testutil.Fixtures(t, dir)
	if len(files) < 12 {
		t.Fatalf("expected at least 6 fixture pairs in %s, found %d files", dir, len(files))
	}
	for _, file := range files {
		t.Run(file, func(t *testing.T) {
			a := testutil.AnalyzeFile(t, filepath.Join(dir, file))
			diags, err := a.Taint()
			if err != nil {
				t.Fatal(err)
			}
			lines := testutil.Render(diags)
			testutil.GoldenLines(t, filepath.Join(dir, strings.TrimSuffix(file, ".c")+".golden"), lines)
			if strings.HasSuffix(file, "_ok.c") {
				for _, d := range diags {
					if d.Sev == taint.Error {
						t.Errorf("clean twin has an error-level diagnostic: %s", d)
					}
				}
			}
		})
	}
}

// TestMetrics pins the counters of the richest fixture: heap.c seeds one
// source, checks sinks at strcpy and system, and sanitizes nothing.
func TestMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(testutil.FixtureDir("taint"), "heap.c"))
	if err != nil {
		t.Fatal(err)
	}
	tu, err := parser.Parse("heap.c", string(data))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simplify.Simplify(tu)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pta.Analyze(prog, pta.Options{RecordContexts: true})
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := taint.RunWithMetrics(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sources != 1 || m.Sanitizers != 0 {
		t.Errorf("sources=%d sanitizers=%d, want 1 and 0", m.Sources, m.Sanitizers)
	}
	if m.Sinks == 0 {
		t.Error("no sink sites checked")
	}
	if m.Errors != 1 || m.Warnings != 1 {
		t.Errorf("errors=%d warnings=%d, want 1 and 1", m.Errors, m.Warnings)
	}
	if res.Metrics.TaintErrors != 1 || res.Metrics.TaintWarnings != 1 || res.Metrics.TaintSources != 1 {
		t.Errorf("metrics snapshot not filled: taint counters %d/%d/%d",
			res.Metrics.TaintErrors, res.Metrics.TaintWarnings, res.Metrics.TaintSources)
	}
}

// TestSanitizerPragma verifies the comment pragma flips pragma.c's verdict:
// the same program is an error without the pragma and clean with it.
func TestSanitizerPragma(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(testutil.FixtureDir("taint"), "pragma.c"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	if got := taint.PragmaSanitizers(src); len(got) != 0 {
		t.Fatalf("pragma.c should carry no pragma, found %v", got)
	}
	withPragma := "/* taint:sanitizes quote */\n" + src
	if got := taint.PragmaSanitizers(withPragma); len(got) != 1 || got[0] != "quote" {
		t.Fatalf("PragmaSanitizers = %v, want [quote]", got)
	}

	a := testutil.AnalyzeSrc(t, "pragma.c", src)
	diags, err := a.Taint()
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for _, d := range diags {
		if d.Sev == taint.Error {
			errs++
		}
	}
	if errs != 1 {
		t.Fatalf("without pragma: %d errors, want 1:\n%s", errs, strings.Join(testutil.Render(diags), "\n"))
	}

	a2 := testutil.AnalyzeSrc(t, "pragma2.c", withPragma)
	diags2, err := a2.Taint()
	if err != nil {
		t.Fatal(err)
	}
	if len(diags2) != 0 {
		t.Fatalf("with pragma: want clean, got:\n%s", strings.Join(testutil.Render(diags2), "\n"))
	}
}

// TestRunRejectsWrongOptions mirrors the check/race precondition tests.
func TestRunRejectsWrongOptions(t *testing.T) {
	tu, err := parser.Parse("opt.c", `int main(void) { return 0; }`)
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
	if _, err := taint.Run(res, nil); err == nil {
		t.Error("Run accepted a result without RecordContexts")
	}
	res, err = pta.Analyze(prog, pta.Options{RecordContexts: true, ShareContexts: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := taint.Run(res, nil); err == nil {
		t.Error("Run accepted a result with ShareContexts")
	}
}

// TestTaintRerunsAnalysis: the public entry point must work from a
// ShareContexts analysis, which records no per-context annotations, by
// re-running it internally without sharing.
func TestTaintRerunsAnalysis(t *testing.T) {
	a, err := pointsto.AnalyzeSource("re.c", `
int main(int argc, char **argv) {
    system(argv[1]);
    return 0;
}
`, &pointsto.Config{ShareContexts: true})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := a.Taint()
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Kind != taint.TaintedExec || diags[0].Sev != taint.Error {
		t.Fatalf("want one tainted-exec error, got %v", testutil.Render(diags))
	}
}

// TestDeterminism: taint verdicts are bit-identical across worker counts,
// traced and untraced — the taint analogue of the race determinism test.
func TestDeterminism(t *testing.T) {
	files := []string{"direct.c", "heap.c", "fnptr.c", "ctx.c", "index.c"}
	for _, file := range files {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(testutil.FixtureDir("taint"), file))
			if err != nil {
				t.Fatal(err)
			}
			tu, err := parser.Parse(file, string(data))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := simplify.Simplify(tu)
			if err != nil {
				t.Fatal(err)
			}
			var baseDiags []string
			var baseFP string
			for _, workers := range []int{1, 2, 8} {
				for _, traced := range []bool{false, true} {
					opts := pta.Options{Workers: workers, RecordContexts: true}
					if traced {
						opts.Tracer = obsv.NewTracer(0, 0)
					}
					res, err := pta.Analyze(prog, opts)
					if err != nil {
						t.Fatal(err)
					}
					diags, err := taint.Run(res, nil)
					if err != nil {
						t.Fatal(err)
					}
					got := testutil.Render(diags)
					fp := pta.Fingerprint(res)
					if baseFP == "" {
						baseDiags, baseFP = got, fp
						continue
					}
					if fp != baseFP {
						t.Errorf("workers=%d traced=%v: fingerprint differs from workers=1", workers, traced)
					}
					if !reflect.DeepEqual(got, baseDiags) {
						t.Errorf("workers=%d traced=%v: diagnostics differ:\ngot:  %s\nbase: %s",
							workers, traced, strings.Join(got, "\n"), strings.Join(baseDiags, "\n"))
					}
				}
			}
		})
	}
}

// TestControlFlowVerdicts pins verdicts that the walk's loop and switch
// rules decide: q holds getenv's tainted result only on some paths to the
// system call.
func TestControlFlowVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		// The tainting path continues: the back edge carries it to the
		// next pass's sink.
		{"continue", `    int i;
    for (i = 0; i < argc; i++) {
        if (i == 1) {
            q = getenv("CMD");
            continue;
        }
        system(q);
    }`, "cf.c:9:16: warning: tainted-exec: 'q' may pass tainted data to 'system' [context: main]"},
		// The tainting arm falls through into the sink's.
		{"switch fall-through", `    switch (argc) {
    case 1:
        q = getenv("CMD");
    case 2:
        system(q);
        break;
    }`, "cf.c:7:16: warning: tainted-exec: 'q' may pass tainted data to 'system' [context: main]"},
		// A do-while body runs before its first test: q is tainted on
		// every path.
		{"do-while", `    do {
        q = getenv("CMD");
    } while (argc < 0);
    system(q);`, "cf.c:6:12: error: tainted-exec: 'q' passes tainted data to 'system' [context: main]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "int main(int argc, char **argv) {\n    char *q = \"ls\";\n" + tc.body + "\n    return 0;\n}\n"
			diags, err := testutil.AnalyzeSrc(t, "cf.c", src).Taint()
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(testutil.Render(diags), "\n"); got != tc.want {
				t.Errorf("got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
