package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/perf"
)

// perfReport generates a real perf report for one small benchmark.
func perfReport(t *testing.T) *perf.PerfReport {
	t.Helper()
	rep, err := perf.RunPerf([]string{"hash"}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// writeReport writes a report to dir and returns the path.
func writeReport(t *testing.T, dir, name string, rep *perf.PerfReport) string {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareGate drives the regression gate end to end: identical reports
// pass, a synthetically regressed report fails with exit 1, and loosened
// thresholds let it pass again.
func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	base := perfReport(t)
	old := writeReport(t, dir, "old.json", base)

	// Self-comparison passes.
	stdout, stderr, code := runCLI(t, "-compare", old, old)
	if code != 0 {
		t.Fatalf("self-compare exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "no regressions") {
		t.Errorf("missing pass line:\n%s", stdout)
	}

	// A 2x step-count regression fails the gate. The regressed report is
	// a copy of the old one, so only the steps differ: a second live run
	// would differ in wall times too and make the gate timing-dependent.
	regressed := *base
	regressed.Programs = slices.Clone(base.Programs)
	for i := range regressed.Programs {
		regressed.Programs[i].Steps *= 2
	}
	bad := writeReport(t, dir, "bad.json", &regressed)
	stdout, stderr, code = runCLI(t, "-compare", old, bad)
	if code != 1 {
		t.Fatalf("regressed compare exit %d, want 1\nstdout:\n%s", code, stdout)
	}
	if !strings.Contains(stderr, "msg=regression") || !strings.Contains(stderr, "steps") {
		t.Errorf("missing steps regression on stderr:\n%s", stderr)
	}
	if !strings.Contains(stdout, "FAIL") {
		t.Errorf("missing FAIL line:\n%s", stdout)
	}

	// Loosening the threshold past the regression lets it pass.
	_, _, code = runCLI(t, "-compare", "-steps-tol", "3.0", old, bad)
	if code != 0 {
		t.Errorf("loosened threshold still fails (exit %d)", code)
	}
}

// TestCompareHostMismatchWarns rewrites the baseline's host record and
// checks the cross-host warning path.
func TestCompareHostMismatchWarns(t *testing.T) {
	dir := t.TempDir()
	r := perfReport(t)
	r.Host.NumCPU = r.Host.NumCPU + 64
	// Wall times from the "other host" are absurd; the gate must warn and
	// skip them rather than fail.
	for i := range r.Programs {
		r.Programs[i].WallSerialMS /= 100
	}
	old := writeReport(t, dir, "old.json", r)
	nw := writeReport(t, dir, "new.json", perfReport(t))
	stdout, stderr, code := runCLI(t, "-compare", old, nw)
	if code != 0 {
		t.Fatalf("cross-host compare exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "different hosts") {
		t.Errorf("missing host-mismatch warning:\n%s", stderr)
	}
}

// TestCompareUsageErrors: wrong arity and unreadable files exit nonzero
// with a diagnostic.
func TestCompareUsageErrors(t *testing.T) {
	_, stderr, code := runCLI(t, "-compare", "only-one.json")
	if code != 1 || !strings.Contains(stderr, "exactly two") {
		t.Errorf("arity error: code=%d stderr=%s", code, stderr)
	}
	_, stderr, code = runCLI(t, "-compare", "/nonexistent/a.json", "/nonexistent/b.json")
	if code != 1 || stderr == "" {
		t.Errorf("unreadable file: code=%d stderr=%s", code, stderr)
	}
}
