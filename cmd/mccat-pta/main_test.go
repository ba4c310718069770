package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testutil"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestTaintExitCode drives the CLI end to end: a seeded fixture with
// -exit-code exits 1 and prints the diagnostic, its clean twin exits 0.
func TestTaintExitCode(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "taint")

	code, out, stderr := runCLI(t, "-taint", "-exit-code", filepath.Join(dir, "direct.c"))
	if code != 1 {
		t.Fatalf("direct.c: exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(out, "tainted-exec") || !strings.Contains(out, "1 error, 0 warnings") {
		t.Errorf("direct.c output missing diagnostic or summary:\n%s", out)
	}

	code, out, _ = runCLI(t, "-taint", "-exit-code", filepath.Join(dir, "direct_ok.c"))
	if code != 0 {
		t.Fatalf("direct_ok.c: exit code = %d, want 0", code)
	}
	if !strings.Contains(out, "no taint flows found") {
		t.Errorf("direct_ok.c output missing clean summary:\n%s", out)
	}

	// Warnings alone must not flip the exit code.
	code, out, _ = runCLI(t, "-taint", "-exit-code", filepath.Join(dir, "ctx.c"))
	if code != 0 {
		t.Fatalf("ctx.c: exit code = %d, want 0 (warnings only):\n%s", code, out)
	}

	// Without -exit-code even errors exit 0.
	code, _, _ = runCLI(t, "-taint", filepath.Join(dir, "direct.c"))
	if code != 0 {
		t.Fatalf("direct.c without -exit-code: exit code = %d, want 0", code)
	}
}

// TestExitCodeCoversCheck: -exit-code also reacts to the memory-safety
// checker's error-level diagnostics.
func TestExitCodeCoversCheck(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "check")
	code, _, _ := runCLI(t, "-check", "-exit-code", filepath.Join(dir, "nullderef.c"))
	if code != 1 {
		t.Fatalf("nullderef.c: exit code = %d, want 1", code)
	}
	code, _, _ = runCLI(t, "-check", "-exit-code", filepath.Join(dir, "nullderef_ok.c"))
	if code != 0 {
		t.Fatalf("nullderef_ok.c: exit code = %d, want 0", code)
	}
}

// TestUsageExitCode: no input file is a usage error (2), and a missing file
// is a runtime failure (1).
func TestUsageExitCode(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != 2 || !strings.Contains(stderr, "usage:") {
		t.Fatalf("no args: code=%d stderr=%q, want 2 with usage", code, stderr)
	}
	code, _, _ = runCLI(t, "-taint", "no-such-file.c")
	if code != 1 {
		t.Fatalf("missing file: code=%d, want 1", code)
	}
}

// TestNegativeMaxStepsIsUsageError: a negative step budget is rejected as
// a usage error before any analysis runs.
func TestNegativeMaxStepsIsUsageError(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-bench", "hash", "-max-steps", "-1")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "-max-steps") {
		t.Errorf("-max-steps -1: code=%d stdout=%q stderr=%q, want 2 naming the flag", code, stdout, stderr)
	}
}

// TestLogFlags checks the structured-logging wiring: -log-json turns the
// fatal path into a JSON log line, and a bad -log-level is a usage error.
func TestLogFlags(t *testing.T) {
	code, _, stderr := runCLI(t, "-log-json", "does-not-exist.c")
	if code != 1 {
		t.Fatalf("missing file exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, `"msg":"fatal"`) || !strings.Contains(stderr, "does-not-exist.c") {
		t.Errorf("fatal not logged as JSON:\n%s", stderr)
	}

	code, _, stderr = runCLI(t, "-log-level", "shouty", "-bench", "hash")
	if code != 2 || !strings.Contains(stderr, "shouty") {
		t.Errorf("bad -log-level: code=%d stderr=%q, want 2 naming the level", code, stderr)
	}
}

// TestDemandFlags drives -demand and -query end to end: demand-mode check
// diagnostics match exhaustive ones (minus the demand stats line), queries
// resolve identically in both modes, and a malformed query is a usage error.
func TestDemandFlags(t *testing.T) {
	uaf := filepath.Join("..", "..", "examples", "check", "uaf.c")

	code, exOut, _ := runCLI(t, "-check", uaf)
	if code != 0 {
		t.Fatalf("exhaustive check exit = %d", code)
	}
	code, dmOut, stderr := runCLI(t, "-demand", "-check", uaf)
	if code != 0 {
		t.Fatalf("demand check exit = %d (stderr: %s)", code, stderr)
	}
	var kept []string
	for _, line := range strings.Split(dmOut, "\n") {
		if !strings.HasPrefix(line, "demand: ") {
			kept = append(kept, line)
		}
	}
	if got := strings.Join(kept, "\n"); got != exOut {
		t.Errorf("demand diagnostics diverge\nexhaustive:\n%s\ndemand:\n%s", exOut, got)
	}
	if !strings.Contains(dmOut, "demand: ") {
		t.Errorf("demand run missing its stats line:\n%s", dmOut)
	}

	q := uaf + ":9:p"
	code, exOut, _ = runCLI(t, "-query", q, uaf)
	if code != 0 {
		t.Fatalf("exhaustive query exit = %d", code)
	}
	code, dmOut, _ = runCLI(t, "-demand", "-query", q, uaf)
	if code != 0 {
		t.Fatalf("demand query exit = %d", code)
	}
	want := "query " + uaf + ":9 p -> "
	if !strings.Contains(exOut, want) || !strings.Contains(dmOut, want) {
		t.Fatalf("query answer missing\nexhaustive:\n%s\ndemand:\n%s", exOut, dmOut)
	}
	exAns := exOut[strings.Index(exOut, "query "):]
	exAns = exAns[:strings.Index(exAns, "\n")]
	if !strings.Contains(dmOut, exAns) {
		t.Errorf("demand answer diverges from exhaustive %q:\n%s", exAns, dmOut)
	}

	if code, _, _ = runCLI(t, "-query", "nonsense", uaf); code != 2 {
		t.Errorf("malformed -query exit = %d, want 2", code)
	}
}

// TestModRefGolden pins -modref output. MOD/REF sets and access records are
// judged under each statement's input merged over all calling contexts,
// even though the analysis also records per-context inputs for the check,
// race and taint clients.
func TestModRefGolden(t *testing.T) {
	for _, tc := range []struct{ golden, src string }{
		{"modref_dry.golden", filepath.Join("..", "..", "internal", "bench", "programs", "dry.c")},
		{"modref_ctx.golden", filepath.Join("..", "..", "examples", "check", "ctx.c")},
	} {
		code, out, stderr := runCLI(t, "-modref", tc.src)
		if code != 0 {
			t.Fatalf("%s: exit code %d (stderr: %s)", tc.src, code, stderr)
		}
		testutil.Golden(t, filepath.Join("testdata", tc.golden), out)
	}
}
