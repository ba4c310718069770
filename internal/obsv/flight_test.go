package obsv

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderBindReturnsTracer(t *testing.T) {
	f := NewFlightRecorder(io.Discard)

	// Without an external tracer Bind supplies a bounded internal one.
	tr := f.Bind(NewMetrics(), nil)
	if tr == nil {
		t.Fatal("Bind returned nil tracer")
	}

	// With an external tracer Bind passes it through unchanged.
	ext := NewTracer(2, 64)
	if got := f.Bind(NewMetrics(), ext); got != ext {
		t.Error("Bind must return the external tracer when one is supplied")
	}
}

func TestFlightRecorderSamples(t *testing.T) {
	f := NewFlightRecorder(io.Discard)
	m := NewMetrics()
	f.Sample() // unbound: no-op
	f.Bind(m, nil)

	m.Steps.Add(100)
	f.Sample()
	m.Steps.Add(5)
	m.NodeEvals.Add(3)
	f.Sample()
	if len(f.samples) != 2 || f.total != 2 {
		t.Fatalf("%d samples kept of %d taken, want 2 of 2", len(f.samples), f.total)
	}
	if s := f.samples[0]; s.Steps != 100 || s.NodeEvals != 0 {
		t.Errorf("first sample = %+v, want steps 100, node_evals 0", s)
	}
	if s := f.samples[1]; s.Steps != 105 || s.NodeEvals != 3 {
		t.Errorf("second sample = %+v, want steps 105, node_evals 3", s)
	}

	// Rebinding starts a fresh record.
	f.Bind(NewMetrics(), nil)
	if len(f.samples) != 0 || f.total != 0 {
		t.Errorf("rebind kept %d samples of %d taken", len(f.samples), f.total)
	}
}

func TestFlightRecorderSampleRingBounded(t *testing.T) {
	f := NewFlightRecorder(io.Discard)
	m := NewMetrics()
	f.Bind(m, nil)
	for i := 0; i < 3*flightSampleCap; i++ {
		m.Steps.Inc()
		f.Sample()
	}
	if got := len(f.samples); got != flightSampleCap {
		t.Errorf("sample ring holds %d, want cap %d", got, flightSampleCap)
	}
	if f.total != 3*flightSampleCap {
		t.Errorf("%d samples counted, want %d", f.total, 3*flightSampleCap)
	}
	if first := f.samples[0].Steps; first != 2*flightSampleCap+1 {
		t.Errorf("oldest kept sample at steps %d, want %d", first, 2*flightSampleCap+1)
	}
}

func TestFlightRecorderDump(t *testing.T) {
	f := NewFlightRecorder(io.Discard)
	m := NewMetrics()
	tr := f.Bind(m, nil)

	m.Steps.Add(42)
	m.NodeEvals.Add(7)
	m.MemoHits.Add(9)
	m.MemoMisses.Add(95)
	// The peak set is the cardinality histogram's maximum.
	m.Cardinality.Observe(116)
	m.Cardinality.Observe(3)
	// Overfill the span ring so Dump shows only the most recent spans.
	tk := tr.NewTrack()
	for i := 0; i < flightSpanCap+10; i++ {
		tr.Begin(tk, CatNode, "eval", "fn").End()
	}
	f.Sample()
	if got := f.samples[0].PeakSet; got != 116 {
		t.Errorf("sample peak = %d, want 116", got)
	}

	var b bytes.Buffer
	if err := f.Dump(&b, "unit test"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"=== flight record: unit test ===",
		// Every registry counter, named by its JSON key.
		"counters: steps=42 node_evals=7 memo_hits=9 memo_misses=95 shared_hits=0 map_ops=0 unmap_ops=0 " +
			"fixpoint_iters=0 pending_restarts=0 sched_tasks=0 sched_steals=0 loc_contended=0 " +
			"demand_facts_kept=0 facts_pruned=0 peak_set=116\n",
		"progress samples (1 taken, last 1 kept)",
		fmt.Sprintf("last %d spans", flightSpanCap),
		"eval",
		"=== end flight record ===",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestFlightRecorderNilSafety(t *testing.T) {
	var f *FlightRecorder
	if err := f.Dump(&bytes.Buffer{}, "nil"); err != nil {
		t.Errorf("nil-receiver Dump should no-op, got %v", err)
	}
	f.Sample() // must not panic
	if f.Writer() != os.Stderr {
		t.Error("a nil recorder must write to os.Stderr")
	}
	if NewFlightRecorder(nil).Writer() != os.Stderr {
		t.Error("a recorder built without a writer must write to os.Stderr")
	}
	var b bytes.Buffer
	if NewFlightRecorder(&b).Writer() != &b {
		t.Error("Writer must return the writer the recorder was built with")
	}
}

func TestFlightRecorderNeverBound(t *testing.T) {
	f := NewFlightRecorder(nil)
	var b bytes.Buffer
	if err := f.Dump(&b, "cold"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "never bound") {
		t.Errorf("cold dump should say the recorder was never bound:\n%s", b.String())
	}
}

func TestWriteStallReport(t *testing.T) {
	var b bytes.Buffer
	WriteStallReport(&b, 3*time.Second, 12345)
	out := b.String()
	if !strings.HasPrefix(out, "=== stall watchdog: no progress for 3s (stuck at 12345 steps) ===\n") {
		t.Errorf("report header changed:\n%.200s", out)
	}
	if !strings.Contains(out, "goroutine ") {
		t.Errorf("report missing goroutine stacks:\n%s", out)
	}
}
