package obsv_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/testutil"
)

// fullSnapshot has every scalar family, both histograms and one function
// row nonzero, with the trace counts filled in afterwards the way the
// analysis fills them.
func fullSnapshot() *obsv.MetricsSnapshot {
	m := obsv.NewMetrics()
	m.Steps.Add(1234)
	m.NodeEvals.Add(40)
	m.MemoHits.Add(30)
	m.MemoMisses.Add(10)
	m.SharedHits.Add(3)
	m.MapOps.Add(21)
	m.UnmapOps.Add(19)
	m.FixpointIters.Add(5)
	m.PendingRestarts.Add(2)
	m.SchedTasks.Add(17)
	m.SchedSteals.Add(4)
	m.LocContended.Add(6)
	m.DemandFactsKept.Add(77)
	m.FactsPruned.Add(88)
	for v := int64(0); v < 20; v++ {
		m.Cardinality.Observe(v)
	}
	for v := int64(1); v <= 8; v++ {
		m.LiveVars.Observe(v * v)
	}
	fc := m.Func("main")
	fc.Evals.Add(3)
	fc.MemoHits.Add(2)
	fc.FixpointIters.Add(1)
	fc.AddWall(1500 * time.Microsecond)
	s := m.Snapshot()
	s.TraceEmitted, s.TraceDropped = 512, 64
	s.TaintSources, s.TaintSinks, s.TaintSanitizers = 1, 2, 3
	s.TaintErrors, s.TaintWarnings = 4, 5
	return s
}

// infoRe matches the pta_info sample, whose labels name the host and the
// Go release.
var infoRe = regexp.MustCompile(`(?m)^pta_info\{.*\} 1$`)

// TestExpositionGolden pins the Prometheus text and the JSON of a full
// snapshot, of that snapshot merged twice into a fresh registry (the
// pta-server totals path) and of an empty registry.
func TestExpositionGolden(t *testing.T) {
	full := fullSnapshot()
	merged := obsv.NewMetrics()
	merged.Merge(full)
	merged.Merge(full)
	for _, tc := range []struct {
		name string
		snap *obsv.MetricsSnapshot
	}{
		{"full", full},
		{"merged", merged.Snapshot()},
		{"empty", obsv.NewMetrics().Snapshot()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var prom bytes.Buffer
			if err := obsv.WritePrometheusSnapshot(&prom, tc.snap); err != nil {
				t.Fatal(err)
			}
			text := infoRe.ReplaceAllString(prom.String(), `pta_info{goos="GOOS",goarch="GOARCH",go_version="GOVERSION"} 1`)
			testutil.Golden(t, filepath.Join("testdata", tc.name+".prom"), text)

			js, err := json.MarshalIndent(tc.snap, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			testutil.Golden(t, filepath.Join("testdata", tc.name+".json"), string(js)+"\n")
		})
	}
}
