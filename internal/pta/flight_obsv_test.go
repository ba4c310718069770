package pta_test

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/pta"
	"repro/internal/ptagen"
)

// TestFlightRecorderDoesNotChangeResults is the serving-grade determinism
// guard: an analysis running with the flight recorder bound and the stall
// watchdog armed (long window, so it never fires) must produce a fingerprint
// bit-identical to the plain run, at every worker count.
func TestFlightRecorderDoesNotChangeResults(t *testing.T) {
	workerCounts := []int{1, 2, 8}
	for _, fx := range loadFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			want := pta.Fingerprint(analyze(t, fx.prog, pta.Options{Workers: 1}))
			for _, w := range workerCounts {
				fr := obsv.NewFlightRecorder(io.Discard)
				res := analyze(t, fx.prog, pta.Options{
					Workers:     w,
					Flight:      fr,
					StallWindow: time.Hour,
				})
				if got := pta.Fingerprint(res); got != want {
					t.Fatalf("workers=%d with flight recorder: fingerprint diverged:\n%s",
						w, firstDiff(want, got))
				}
				// The recorder must still be dumpable after the run.
				var b bytes.Buffer
				if err := fr.Dump(&b, "post-run"); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(b.String(), "steps=") {
					t.Errorf("workers=%d: post-run dump has no counters:\n%s", w, b.String())
				}
			}
		})
	}
}

// TestStepsExceededDumpsFlightRecord forces the step budget to blow and
// requires the run to leave a flight record behind along with the error.
func TestStepsExceededDumpsFlightRecord(t *testing.T) {
	prog, _, err := ptagen.Load(ptagen.Presets["small"])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = pta.Analyze(prog, pta.Options{
		MaxSteps: 50,
		Flight:   obsv.NewFlightRecorder(&buf),
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded 50 steps") {
		t.Fatalf("err = %v, want steps-exceeded error", err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== flight record: steps exceeded (budget 50) ===") {
		t.Errorf("no flight record dumped on budget exhaustion:\n%s", out)
	}
	if !strings.Contains(out, "counters: steps=") {
		t.Errorf("flight record missing counter line:\n%s", out)
	}
}

// TestLiveMetricsRegistry supplies the registry from outside (the /metrics
// serving path) and scrapes it concurrently while the analysis runs. Under
// -race this is the scrape-during-analysis safety test; it also checks that
// the final Result snapshot agrees with the live registry.
func TestLiveMetricsRegistry(t *testing.T) {
	prog, _, err := ptagen.Load(ptagen.Presets["small"])
	if err != nil {
		t.Fatal(err)
	}
	m := obsv.NewMetrics()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := obsv.WritePrometheus(io.Discard, m); err != nil {
				t.Errorf("mid-run scrape failed: %v", err)
				return
			}
		}
	}()

	res, err := pta.Analyze(prog, pta.Options{Workers: 4, Metrics: m})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if res.Metrics.Steps == 0 {
		t.Error("snapshot recorded no steps")
	}
	if got := m.Steps.Load(); got != res.Metrics.Steps {
		t.Errorf("live registry steps %d != snapshot steps %d", got, res.Metrics.Steps)
	}

	// A final scrape must expose the run's counters.
	var b bytes.Buffer
	if err := obsv.WritePrometheus(&b, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "pta_steps_total") {
		t.Errorf("final scrape missing pta_steps_total:\n%s", b.String())
	}
}
