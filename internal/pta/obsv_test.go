package pta_test

import (
	"testing"

	"repro/internal/obsv"
	"repro/internal/pta"
)

// TestTracingDoesNotChangeResults is the observability determinism guard:
// attaching a tracer (and the metrics registry that is always on) must not
// change the analysis result in any way visible to the canonical
// fingerprint, at any worker count — including when a tiny ring buffer
// forces events to be dropped mid-run.
func TestTracingDoesNotChangeResults(t *testing.T) {
	workerCounts := []int{1, 2, 8}
	for _, fx := range loadFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			var want string
			for _, w := range workerCounts {
				plain := pta.Fingerprint(analyze(t, fx.prog, pta.Options{Workers: w}))
				if want == "" {
					want = plain
				}
				if plain != want {
					t.Fatalf("workers=%d untraced: fingerprint diverged:\n%s",
						w, firstDiff(want, plain))
				}
				for _, capacity := range []int{0, 16} { // default and drop-heavy
					tr := obsv.NewTracer(0, capacity)
					res := analyze(t, fx.prog, pta.Options{Workers: w, Tracer: tr})
					if got := pta.Fingerprint(res); got != want {
						t.Fatalf("workers=%d traced (cap %d): fingerprint diverged:\n%s",
							w, capacity, firstDiff(want, got))
					}
					if tr.Emitted() == 0 {
						t.Errorf("workers=%d traced (cap %d): no events emitted", w, capacity)
					}
					if uint64(res.Metrics.TraceEmitted) != tr.Emitted() ||
						uint64(res.Metrics.TraceDropped) != tr.Dropped() {
						t.Errorf("metrics trace accounting %d/%d != tracer %d/%d",
							res.Metrics.TraceEmitted, res.Metrics.TraceDropped,
							tr.Emitted(), tr.Dropped())
					}
				}
			}
		})
	}
}

// TestMetricsSnapshotConsistency checks the registry invariants on a real
// analysis: map and unmap counts pair up, and the cardinality histogram saw
// every step.
func TestMetricsSnapshotConsistency(t *testing.T) {
	for _, fx := range loadFixtures(t) {
		res := analyze(t, fx.prog, pta.Options{})
		m := res.Metrics
		if m == nil {
			t.Fatalf("%s: Result.Metrics is nil", fx.name)
		}
		if m.Steps == 0 {
			t.Errorf("%s: no steps recorded", fx.name)
		}
		// Every map has a matching unmap except invocations whose callee
		// result was bottom (unreached returns); unmaps never exceed maps.
		if m.UnmapOps > m.MapOps {
			t.Errorf("%s: unmap_ops %d > map_ops %d", fx.name, m.UnmapOps, m.MapOps)
		}
		if m.Cardinality.Count != m.Steps {
			t.Errorf("%s: cardinality histogram saw %d observations, want %d (one per step)",
				fx.name, m.Cardinality.Count, m.Steps)
		}
		if m.PeakSet != m.Cardinality.Max {
			t.Errorf("%s: peak set %d != cardinality max %d", fx.name, m.PeakSet, m.Cardinality.Max)
		}
	}
}
