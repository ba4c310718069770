package obsv

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"
)

// FlightRecorder is the always-on crash/stall diagnosis layer: a bounded
// last-N-spans recorder plus a ring of progress samples. It is a passive
// record, cheap enough to leave enabled on every run — the span store is a
// small drop-oldest ring (the same lock-free ring the tracer uses), and
// the analysis's run monitor calls Sample a few times per second — so when
// a 400k-statement analysis panics, exceeds its step budget, or stalls,
// Dump produces a diagnosable artifact (recent spans, recent progress
// rates, final counters) instead of a bare error.
//
// Lifecycle: create once with NewFlightRecorder, then Bind it to each
// analysis run. Bind returns the tracer the run should emit spans into —
// the caller's own full tracer when one exists, otherwise the recorder's
// internal bounded tracer. Dump may be called at any time, including
// mid-run and after the run.
type FlightRecorder struct {
	w io.Writer // where the analysis dumps abnormal ends of run

	mu      sync.Mutex
	tr      *Tracer // tracer Dump reads spans from (internal or external)
	m       *Metrics
	samples []flightSample // ring, oldest dropped
	total   int            // samples ever taken
	bound   time.Time
}

// flightSample is one reading of the run's progress counters, taken
// relative to the moment the recorder was bound.
type flightSample struct {
	At        time.Duration
	Steps     int64
	NodeEvals int64
	PeakSet   int64
}

// How many spans and progress samples survive in a flight record.
const (
	flightSpanCap   = 256
	flightSampleCap = 120
)

// NewFlightRecorder returns a recorder whose record the analysis dumps to
// w when a run panics, exceeds its step budget, or stalls (nil means
// os.Stderr).
func NewFlightRecorder(w io.Writer) *FlightRecorder {
	return &FlightRecorder{w: w}
}

// Writer is where the analysis writes flight records and stall reports:
// the recorder's writer, or os.Stderr for a nil recorder or writer.
func (f *FlightRecorder) Writer() io.Writer {
	if f == nil || f.w == nil {
		return os.Stderr
	}
	return f.w
}

// Bind attaches the recorder to one analysis run: m is the run's live
// metrics registry, tr its tracer (nil when the run is untraced). The
// returned tracer is what the run must emit spans into — tr itself when
// non-nil, otherwise an internal single-shard tracer bounded at the
// recorder's span capacity. Binding drops the samples of an earlier run.
func (f *FlightRecorder) Bind(m *Metrics, tr *Tracer) *Tracer {
	if tr == nil {
		// One shard so the ring holds the last N spans globally, not per
		// worker track.
		tr = NewTracer(1, flightSpanCap)
	}
	f.mu.Lock()
	f.tr = tr
	f.m = m
	f.samples = f.samples[:0]
	f.total = 0
	f.bound = time.Now()
	f.mu.Unlock()
	return tr
}

// Sample appends one progress reading, dropping the oldest past capacity.
// It is a no-op on a nil or unbound recorder.
func (f *FlightRecorder) Sample() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.m
	if m == nil {
		return
	}
	if len(f.samples) >= flightSampleCap {
		copy(f.samples, f.samples[1:])
		f.samples = f.samples[:len(f.samples)-1]
	}
	f.samples = append(f.samples, flightSample{
		At:        time.Since(f.bound),
		Steps:     m.Steps.Load(),
		NodeEvals: m.NodeEvals.Load(),
		PeakSet:   m.Cardinality.max.Load(),
	})
	f.total++
}

// Dump writes the flight record: the cause line, the current counter state,
// the recent progress samples with per-sample deltas, and the most recent
// spans. Safe to call while the analysis is still running (the metrics
// registry is atomic and ring reads never block writers) and with a nil
// receiver (no-op).
func (f *FlightRecorder) Dump(w io.Writer, cause string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	tr, m := f.tr, f.m
	bound := f.bound
	samples := append([]flightSample(nil), f.samples...)
	total := f.total
	f.mu.Unlock()

	fmt.Fprintf(w, "=== flight record: %s ===\n", cause)
	if m == nil {
		_, err := fmt.Fprintln(w, "(recorder was never bound to a run)")
		return err
	}
	fmt.Fprintf(w, "elapsed: %s\n", time.Since(bound).Round(time.Millisecond))
	// One write per line, like the rest of the record.
	var counters strings.Builder
	for _, d := range metricDefs {
		if d.counter != nil {
			fmt.Fprintf(&counters, " %s=%d", d.key, d.counter(m).Load())
		}
	}
	fmt.Fprintf(w, "counters:%s peak_set=%d\n", counters.String(), m.Cardinality.max.Load())

	if len(samples) > 0 {
		fmt.Fprintf(w, "progress samples (%d taken, last %d kept):\n", total, len(samples))
		fmt.Fprintf(w, "  %10s %12s %10s %10s %10s %9s\n",
			"t", "steps", "d-steps", "evals", "d-evals", "peak")
		prev := flightSample{}
		for i, s := range samples {
			dSteps, dEvals := s.Steps, s.NodeEvals
			if i > 0 {
				dSteps -= prev.Steps
				dEvals -= prev.NodeEvals
			}
			fmt.Fprintf(w, "  %10s %12d %+10d %10d %+10d %9d\n",
				s.At.Round(time.Millisecond), s.Steps, dSteps, s.NodeEvals, dEvals, s.PeakSet)
			prev = s
		}
	}

	if tr != nil {
		evs := tr.Events()
		kept := evs
		if len(kept) > flightSpanCap {
			kept = kept[len(kept)-flightSpanCap:]
		}
		fmt.Fprintf(w, "last %d spans (%d recorded, %d dropped by ring overflow):\n",
			len(kept), tr.Emitted(), tr.Dropped())
		for _, e := range kept {
			kind := "span"
			if e.Instant {
				kind = "inst"
			}
			fmt.Fprintf(w, "  t=%-12s w%-3d %-4s %-8s %-24s dur=%-10s %s\n",
				time.Duration(e.Start).Round(time.Microsecond), e.Track, kind,
				e.Cat, e.Name, time.Duration(e.Dur).Round(time.Microsecond), e.Detail)
		}
	}
	_, err := fmt.Fprintf(w, "=== end flight record ===\n")
	return err
}

// WriteStallReport renders the standard stall preamble: the warning line
// (how long the Steps counter has been stuck, and at what value) and a
// dump of every goroutine's stack. The analysis follows it with the
// flight record.
func WriteStallReport(w io.Writer, stalled time.Duration, steps int64) {
	fmt.Fprintf(w, "=== stall watchdog: no progress for %s (stuck at %d steps) ===\n",
		stalled.Round(time.Millisecond), steps)
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	fmt.Fprintf(w, "goroutine stacks:\n%s\n", buf[:n])
}
