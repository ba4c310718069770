package report

import (
	"fmt"
	"io"

	"repro/internal/obsv"
)

// WriteCostTable renders the per-function cost table of a metrics snapshot:
// where the analysis spent its node evaluations, fixed-point iterations and
// wall time. Rows arrive most-expensive-first from the snapshot; limit
// truncates the table (0 means all rows).
func WriteCostTable(w io.Writer, funcs []obsv.FuncCostSnapshot, limit int) {
	if len(funcs) == 0 {
		fmt.Fprintln(w, "  (no function evaluations recorded)")
		return
	}
	fmt.Fprintf(w, "  %-20s %8s %10s %9s %10s\n", "function", "evals", "memo-hits", "fixpoint", "wall")
	shown := funcs
	if limit > 0 && len(shown) > limit {
		shown = shown[:limit]
	}
	for _, f := range shown {
		fmt.Fprintf(w, "  %-20s %8d %10d %9d %8.2fms\n",
			f.Name, f.Evals, f.MemoHits, f.FixpointIters, f.WallMS)
	}
	if n := len(funcs) - len(shown); n > 0 {
		fmt.Fprintf(w, "  ... and %d more functions\n", n)
	}
}

// WriteMetrics renders a full metrics snapshot in human-readable form: the
// engine counters, the memoization rate, the points-to set cardinality
// distribution, trace-buffer accounting, and the per-function cost table.
func WriteMetrics(w io.Writer, s *obsv.MetricsSnapshot) {
	if s == nil {
		fmt.Fprintln(w, "metrics: (none recorded)")
		return
	}
	fmt.Fprintln(w, "analysis metrics:")
	fmt.Fprintf(w, "  steps %d, node evals %d, map/unmap %d/%d\n",
		s.Steps, s.NodeEvals, s.MapOps, s.UnmapOps)
	fmt.Fprintf(w, "  memo: %d hits / %d misses (%.1f%% hit rate)",
		s.MemoHits, s.MemoMisses, 100*s.MemoHitRate)
	if s.SharedHits > 0 {
		fmt.Fprintf(w, ", shared summary hits %d", s.SharedHits)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  fixed point: %d extra iterations, %d pending restarts\n",
		s.FixpointIters, s.PendingRestarts)
	c := s.Cardinality
	fmt.Fprintf(w, "  set cardinality: mean %.1f, p50 %d, p90 %d, p99 %d, max %d (peak %d)\n",
		c.Mean, c.P50, c.P90, c.P99, c.Max, s.PeakSet)
	if s.TraceEmitted > 0 || s.TraceDropped > 0 {
		fmt.Fprintf(w, "  trace: %d events emitted, %d dropped by ring overflow\n",
			s.TraceEmitted, s.TraceDropped)
	}
	fmt.Fprintln(w, "per-function cost (most expensive first):")
	WriteCostTable(w, s.Funcs, 20)
}
