package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMetricsOut writes the metrics snapshot JSON and checks the keys a
// downstream consumer depends on.
func TestMetricsOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.json")
	code, _, stderr := runCLI(t, "-bench", "hash", "-metrics-out", out)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics-out is not JSON: %v", err)
	}
	for _, key := range []string{"steps", "memo_hits", "memo_misses", "memo_hit_rate",
		"node_evals", "peak_set", "set_cardinality"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("metrics JSON missing key %q", key)
		}
	}
	if steps, _ := snap["steps"].(float64); steps <= 0 {
		t.Errorf("steps = %v, want > 0", snap["steps"])
	}
}

// TestStatsIncludesSchedAndShards: the -stats view surfaces scheduler and
// lock-contention counters.
func TestStatsIncludesSchedAndShards(t *testing.T) {
	code, out, stderr := runCLI(t, "-bench", "hash", "-stats", "-workers", "4")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"sched: ", " tasks, ", " steals\n",
		"locks: loc ", " contended"} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
}

// TestFlightOut writes the end-of-run flight record to a file.
func TestFlightOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "flight.txt")
	code, _, stderr := runCLI(t, "-bench", "hash", "-flight", out)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "=== flight record: end of run ===") {
		t.Errorf("flight file missing record header:\n%s", data)
	}
	if !strings.Contains(string(data), "counters: steps=") {
		t.Errorf("flight file missing counters:\n%s", data)
	}

	// -flight with -no-flight is a usage error.
	code, _, stderr = runCLI(t, "-bench", "hash", "-no-flight", "-flight", out)
	if code != 1 || !strings.Contains(stderr, "-no-flight") {
		t.Errorf("contradictory flags: code=%d stderr=%s", code, stderr)
	}
}

// TestMaxStepsDumpsFlightRecord forces the step budget to blow through the
// CLI and requires the automatic flight dump on stderr plus a nonzero exit.
func TestMaxStepsDumpsFlightRecord(t *testing.T) {
	code, _, stderr := runCLI(t, "-bench", "hash", "-max-steps", "50")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr, "exceeded 50 steps") {
		t.Errorf("stderr missing budget error:\n%s", stderr)
	}
	if !strings.Contains(stderr, "=== flight record: steps exceeded (budget 50) ===") {
		t.Errorf("stderr missing flight record:\n%s", stderr)
	}
}

// TestWatchdogFlagParses: a long-window watchdog must not disturb a normal
// run.
func TestWatchdogFlagParses(t *testing.T) {
	code, out, stderr := runCLI(t, "-bench", "hash", "-watchdog", "1h", "-watchdog-kill", "-pts")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "points-to set at exit of main") {
		t.Errorf("normal output missing:\n%s", out)
	}
	if strings.Contains(stderr, "stall watchdog") {
		t.Errorf("watchdog fired on a healthy run:\n%s", stderr)
	}
}

// TestTraceCountsOnlyForTracedRuns: the trace counts describe the trace
// the caller asked for. An untraced run binds only the flight recorder's
// private ring, which neither -stats nor -metrics-out reports; a traced
// run with a tiny ring still reports its drops.
func TestTraceCountsOnlyForTracedRuns(t *testing.T) {
	dir := t.TempDir()
	metricsOut := filepath.Join(dir, "metrics.json")
	code, out, stderr := runCLI(t, "-bench", "livc", "-workers", "1", "-stats", "-metrics-out", metricsOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if strings.Contains(out, "trace:") {
		t.Errorf("untraced -stats reports trace counts:\n%s", out)
	}
	data, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"trace_emitted", "trace_dropped"} {
		if _, ok := snap[key]; ok {
			t.Errorf("untraced -metrics-out has %q", key)
		}
	}

	code, out, stderr = runCLI(t, "-bench", "livc", "-workers", "1", "-stats",
		"-trace", filepath.Join(dir, "trace.json"), "-trace-buf", "8")
	if code != 0 {
		t.Fatalf("traced run: exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, " events dropped by ring overflow (raise -trace-buf)\n") {
		t.Errorf("traced -stats with an 8-event ring reports no drops:\n%s", out)
	}
}
