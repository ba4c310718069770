package obsv

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// FlightRecorder is the always-on crash/stall diagnosis layer: a bounded
// last-N-spans recorder plus a periodic sampler of metrics deltas. It is
// cheap enough to leave enabled on every run — the span store is a small
// drop-oldest ring (the same lock-free ring the tracer uses), and the
// sampler wakes a few times per second to read atomic counters — so when a
// 400k-statement analysis panics, exceeds its step budget, or stalls, Dump
// produces a diagnosable artifact (recent spans, recent progress rates,
// final counters) instead of a bare error.
//
// Lifecycle: create once with NewFlightRecorder, then Bind it to each
// analysis run. Bind returns the tracer the run should emit spans into —
// the caller's own full tracer when one exists, otherwise the recorder's
// internal bounded tracer — and starts the sampler. Unbind stops the
// sampler; Dump may be called at any time, including mid-run.
type FlightRecorder struct {
	spanCap  int
	interval time.Duration

	mu      sync.Mutex
	tr      *Tracer // tracer Dump reads spans from (internal or external)
	m       *Metrics
	samples []FlightSample // ring, oldest dropped
	total   int            // samples ever taken
	bound   time.Time
	stop    chan struct{}
	done    chan struct{}
}

// FlightSample is one periodic reading of the run's progress counters,
// taken relative to the moment the recorder was bound.
type FlightSample struct {
	At            time.Duration `json:"at"`
	Steps         int64         `json:"steps"`
	NodeEvals     int64         `json:"node_evals"`
	MemoHits      int64         `json:"memo_hits"`
	FixpointIters int64         `json:"fixpoint_iters"`
	SchedTasks    int64         `json:"sched_tasks"`
	PeakSet       int64         `json:"peak_set"`
}

// Flight recorder defaults: how many spans and samples survive, and how
// often progress is sampled.
const (
	DefaultFlightSpans    = 256
	DefaultFlightSamples  = 120
	DefaultFlightInterval = 250 * time.Millisecond
)

// flightSampleCap bounds the sample ring.
const flightSampleCap = DefaultFlightSamples

// NewFlightRecorder returns a recorder keeping the last spanCap spans
// (0 means DefaultFlightSpans) and sampling metrics every interval
// (0 means DefaultFlightInterval).
func NewFlightRecorder(spanCap int, interval time.Duration) *FlightRecorder {
	if spanCap <= 0 {
		spanCap = DefaultFlightSpans
	}
	if interval <= 0 {
		interval = DefaultFlightInterval
	}
	return &FlightRecorder{spanCap: spanCap, interval: interval}
}

// Bind attaches the recorder to one analysis run: m is the run's live
// metrics registry, tr its tracer (nil when the run is untraced). The
// returned tracer is what the run must emit spans into — tr itself when
// non-nil, otherwise an internal single-shard tracer bounded at the
// recorder's span capacity. Bind starts the background sampler; callers
// must Unbind when the run finishes (or unwinds).
func (f *FlightRecorder) Bind(m *Metrics, tr *Tracer) *Tracer {
	if tr == nil {
		// One shard so the ring holds the last N spans globally, not per
		// worker track.
		tr = NewTracer(1, f.spanCap)
	}
	f.mu.Lock()
	f.tr = tr
	f.m = m
	f.samples = f.samples[:0]
	f.total = 0
	f.bound = time.Now()
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	stop, done := f.stop, f.done
	f.mu.Unlock()
	go f.sampleLoop(stop, done)
	return tr
}

// Unbind stops the sampler started by Bind. The recorded spans and samples
// remain readable (Dump still works) until the next Bind. Safe to call more
// than once.
func (f *FlightRecorder) Unbind() {
	f.mu.Lock()
	stop, done := f.stop, f.done
	f.stop = nil
	f.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (f *FlightRecorder) sampleLoop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			f.sample()
		}
	}
}

// sample appends one progress reading, dropping the oldest past capacity.
func (f *FlightRecorder) sample() {
	f.mu.Lock()
	m := f.m
	at := time.Since(f.bound)
	f.mu.Unlock()
	if m == nil {
		return
	}
	s := FlightSample{
		At:            at,
		Steps:         m.Steps.Load(),
		NodeEvals:     m.NodeEvals.Load(),
		MemoHits:      m.MemoHits.Load(),
		FixpointIters: m.FixpointIters.Load(),
		SchedTasks:    m.SchedTasks.Load(),
		PeakSet:       m.PeakSet.Load(),
	}
	f.mu.Lock()
	if len(f.samples) >= flightSampleCap {
		copy(f.samples, f.samples[1:])
		f.samples = f.samples[:len(f.samples)-1]
	}
	f.samples = append(f.samples, s)
	f.total++
	f.mu.Unlock()
}

// Samples returns a copy of the surviving progress samples, oldest first.
func (f *FlightRecorder) Samples() []FlightSample {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FlightSample(nil), f.samples...)
}

// Dump writes the flight record: the cause line, the current counter state,
// the recent progress samples with per-interval deltas, and the most recent
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
	samples := append([]FlightSample(nil), f.samples...)
	total := f.total
	f.mu.Unlock()

	fmt.Fprintf(w, "=== flight record: %s ===\n", cause)
	if m == nil {
		_, err := fmt.Fprintln(w, "(recorder was never bound to a run)")
		return err
	}
	fmt.Fprintf(w, "elapsed: %s\n", time.Since(bound).Round(time.Millisecond))
	fmt.Fprintf(w, "counters: steps=%d node_evals=%d memo=%d/%d fixpoint_iters=%d pending_restarts=%d sched=%d/%d peak_set=%d\n",
		m.Steps.Load(), m.NodeEvals.Load(), m.MemoHits.Load(), m.MemoMisses.Load(),
		m.FixpointIters.Load(), m.PendingRestarts.Load(),
		m.SchedTasks.Load(), m.SchedSteals.Load(), m.PeakSet.Load())

	if len(samples) > 0 {
		fmt.Fprintf(w, "progress samples (every %s, %d taken, last %d kept):\n",
			f.interval, total, len(samples))
		fmt.Fprintf(w, "  %10s %12s %10s %10s %10s %9s\n",
			"t", "steps", "d-steps", "evals", "d-evals", "peak")
		prev := FlightSample{}
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
		if len(kept) > f.spanCap {
			kept = kept[len(kept)-f.spanCap:]
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
