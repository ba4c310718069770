package obsv

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one and returns the new value.
func (c *Counter) Inc() int64 { return c.v.Add(1) }

// Add adds n and returns the new value.
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// MaxGauge tracks the maximum value ever observed.
type MaxGauge struct{ v atomic.Int64 }

// Observe raises the gauge to n if n exceeds the current maximum.
func (g *MaxGauge) Observe(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the maximum observed so far.
func (g *MaxGauge) Load() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i
// (bucket 0 counts v <= 0).
const histBuckets = 33

// Histogram is a lock-free power-of-two histogram for small nonnegative
// integer observations (points-to set cardinalities). An observation costs
// two atomic adds and a CAS-max.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     MaxGauge
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
	h.max.Observe(v)
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
		if b >= histBuckets {
			b = histBuckets - 1
		}
	}
	h.buckets[b].Add(1)
}

// Merge folds an already-taken histogram snapshot into this histogram —
// the aggregation path a long-running server uses to roll per-request
// snapshots into process totals. Bucket upper bounds map back onto the
// power-of-two bucket index (2^i - 1 has bit length i), so a merged
// histogram is exactly what observing every original value would have
// produced. Safe for concurrent use.
func (h *Histogram) Merge(s HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	h.count.Add(s.Count)
	if s.Sum > 0 {
		h.sum.Add(s.Sum)
	}
	h.max.Observe(s.Max)
	for _, bk := range s.Buckets {
		i := 0
		if bk.UpperBound > 0 {
			i = bits.Len64(uint64(bk.UpperBound))
			if i >= histBuckets {
				i = histBuckets - 1
			}
		}
		h.buckets[i].Add(bk.Count)
	}
}

// HistBucket is one populated histogram bucket in a snapshot.
type HistBucket struct {
	// UpperBound is the largest value the bucket can hold (2^i - 1).
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Max     int64        `json:"max"`
	Mean    float64      `json:"mean"`
	P50     int64        `json:"p50"`
	P90     int64        `json:"p90"`
	P99     int64        `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram. Quantiles are upper-bound estimates from
// the power-of-two buckets, clamped to the exact maximum.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	upper := func(i int) int64 {
		if i == 0 {
			return 0
		}
		return (int64(1) << i) - 1
	}
	quantile := func(q float64) int64 {
		rank := int64(q * float64(s.Count))
		var cum int64
		for i, c := range counts {
			cum += c
			if cum > rank {
				u := upper(i)
				if u > s.Max {
					u = s.Max
				}
				return u
			}
		}
		return s.Max
	}
	s.P50, s.P90, s.P99 = quantile(0.50), quantile(0.90), quantile(0.99)
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, HistBucket{UpperBound: upper(i), Count: c})
		}
	}
	return s
}

// FuncCost accumulates per-function analysis cost: node evaluations, memo
// hits, fixed-point iterations beyond the first pass, and inclusive wall
// time (a parent's evaluation time includes its callees').
type FuncCost struct {
	Evals         Counter
	MemoHits      Counter
	FixpointIters Counter
	Wall          Counter // nanoseconds
}

// AddWall accumulates evaluation wall time.
func (f *FuncCost) AddWall(d time.Duration) { f.Wall.Add(int64(d)) }

// FuncCostSnapshot is the exported per-function cost record.
type FuncCostSnapshot struct {
	Name          string  `json:"name"`
	Evals         int64   `json:"evals"`
	MemoHits      int64   `json:"memo_hits"`
	FixpointIters int64   `json:"fixpoint_iters"`
	WallMS        float64 `json:"wall_ms"`
}

// Metrics is the typed metrics registry of one analysis run. The hot-path
// instruments are plain struct fields updated atomically; the per-function
// table is behind a mutex (touched only per node evaluation, never per
// statement).
type Metrics struct {
	// Steps counts basic-statement transfer-function evaluations.
	Steps Counter
	// MemoHits / MemoMisses count input-keyed summary-cache lookups on
	// invocation-graph nodes.
	MemoHits, MemoMisses Counter
	// SharedHits counts global summary-cache reuses (Options.ShareContexts).
	SharedHits Counter
	// NodeEvals counts invocation-graph node body evaluations (memo and
	// recursion-approximation hits excluded).
	NodeEvals Counter
	// MapOps / UnmapOps count map_process / unmap_process operations.
	MapOps, UnmapOps Counter
	// FixpointIters counts recursion fixed-point iterations beyond each
	// node evaluation's first pass.
	FixpointIters Counter
	// PendingRestarts counts pending-list generalization restarts of
	// recursive fixed points (input widened, evaluation restarted).
	PendingRestarts Counter
	// SchedTasks counts the branches of every parallel fan-out (indirect
	// call targets, if/else splits, thread spawns) of a run with more than
	// one worker.
	SchedTasks Counter
	// SchedSteals counts fan-out branches that ran on a spare worker track,
	// that is, on a goroutine other than the one that forked them.
	SchedSteals Counter
	// LocContended counts location-table lock acquisitions that had to
	// wait; the analysis adds the table's count when the run ends.
	LocContended Counter
	// PeakSet is the largest points-to set flowing into any statement.
	// The analysis hot path does not update it directly — Cardinality's
	// internal maximum covers it — but it remains for observations that
	// bypass the histogram; Snapshot reports the larger of the two.
	PeakSet MaxGauge
	// Cardinality is the distribution of points-to set sizes flowing into
	// basic statements.
	Cardinality Histogram

	// Demand-mode accounting (zero in exhaustive runs): DemandFactsKept
	// counts triples recorded at seeded statements, FactsPruned counts
	// triples dropped because their source variable was dead, and
	// LiveVars is the distribution of live tracked-variable counts at
	// statement inputs.
	DemandFactsKept Counter
	FactsPruned     Counter
	LiveVars        Histogram

	mu    sync.Mutex
	funcs map[string]*FuncCost
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{funcs: make(map[string]*FuncCost)}
}

// Func returns the cost accumulator for the named function, creating it on
// first use. Safe for concurrent use.
func (m *Metrics) Func(name string) *FuncCost {
	m.mu.Lock()
	if m.funcs == nil {
		// Tolerate a zero-value registry (callers may supply their own
		// rather than use NewMetrics).
		m.funcs = make(map[string]*FuncCost)
	}
	fc := m.funcs[name]
	if fc == nil {
		fc = &FuncCost{}
		m.funcs[name] = fc
	}
	m.mu.Unlock()
	return fc
}

// Merge folds a finished run's snapshot into this registry. This is how a
// long-running server aggregates per-request registries into monotone
// process totals scraped at /metrics: each request runs against its own
// fresh registry (isolation), and its end-of-run snapshot is added here.
// Counters add, the peak gauge takes the maximum, the cardinality histogram
// merges bucket-exact, and the per-function cost table accumulates by name.
// Snapshot-only fields the registry has no instrument for (trace
// accounting) are not aggregated. Safe for concurrent use.
func (m *Metrics) Merge(s *MetricsSnapshot) {
	if s == nil {
		return
	}
	m.Steps.Add(s.Steps)
	m.MemoHits.Add(s.MemoHits)
	m.MemoMisses.Add(s.MemoMisses)
	m.SharedHits.Add(s.SharedHits)
	m.NodeEvals.Add(s.NodeEvals)
	m.MapOps.Add(s.MapOps)
	m.UnmapOps.Add(s.UnmapOps)
	m.FixpointIters.Add(s.FixpointIters)
	m.PendingRestarts.Add(s.PendingRestarts)
	m.SchedTasks.Add(s.SchedTasks)
	m.SchedSteals.Add(s.SchedSteals)
	m.LocContended.Add(s.LocContended)
	m.PeakSet.Observe(s.PeakSet)
	m.Cardinality.Merge(s.Cardinality)
	m.DemandFactsKept.Add(s.DemandFactsKept)
	m.FactsPruned.Add(s.FactsPruned)
	m.LiveVars.Merge(s.LiveVars)
	for _, f := range s.Funcs {
		fc := m.Func(f.Name)
		fc.Evals.Add(f.Evals)
		fc.MemoHits.Add(f.MemoHits)
		fc.FixpointIters.Add(f.FixpointIters)
		fc.Wall.Add(int64(f.WallMS * 1e6))
	}
}

// MetricsSnapshot is the exported, JSON-serializable view of a registry,
// stored as pta.Result.Metrics. The trace fields are filled by the
// analysis from the tracer.
type MetricsSnapshot struct {
	Steps           int64 `json:"steps"`
	MemoHits        int64 `json:"memo_hits"`
	MemoMisses      int64 `json:"memo_misses"`
	SharedHits      int64 `json:"shared_hits,omitempty"`
	NodeEvals       int64 `json:"node_evals"`
	MapOps          int64 `json:"map_ops"`
	UnmapOps        int64 `json:"unmap_ops"`
	FixpointIters   int64 `json:"fixpoint_iters"`
	PendingRestarts int64 `json:"pending_restarts"`
	PeakSet         int64 `json:"peak_set"`

	// MemoHitRate is MemoHits / (MemoHits + MemoMisses), 0 when cold.
	MemoHitRate float64 `json:"memo_hit_rate"`

	// Parallel fan-out activity (zero in serial runs): branches forked,
	// and branches that ran on a spare worker track.
	SchedTasks  int64 `json:"sched_tasks,omitempty"`
	SchedSteals int64 `json:"sched_steals,omitempty"`

	// LocContended counts location-table lock acquisitions that had to
	// wait.
	LocContended int64 `json:"loc_contended,omitempty"`

	// SchedParks counted idle parks of the work-stealing scheduler, which
	// is gone. It is never filled and never serialized, and remains only
	// so existing readers keep compiling.
	//
	// Deprecated: always zero.
	SchedParks int64 `json:"-"`

	// The Intern* fields described the points-to set intern table, which
	// is gone. They are never filled and never serialized, and remain only
	// so existing readers keep compiling.
	//
	// Deprecated: always zero.
	InternDistinct int `json:"-"`
	// Deprecated: always zero.
	InternHits uint64 `json:"-"`
	// Deprecated: always zero.
	InternMisses uint64 `json:"-"`
	// Deprecated: always zero.
	InternContended uint64 `json:"-"`

	// Cardinality is the points-to set size distribution over statements.
	Cardinality HistogramSnapshot `json:"set_cardinality"`

	// TraceEmitted / TraceDropped report the ring activity of the caller's
	// tracer (trace_dropped is the overflow loss); both are 0 when the run
	// was untraced, whatever the flight recorder's own ring kept.
	TraceEmitted uint64 `json:"trace_emitted,omitempty"`
	TraceDropped uint64 `json:"trace_dropped,omitempty"`

	// Demand-mode accounting (absent in exhaustive runs): facts recorded
	// at seeded statements, facts pruned as dead, and the distribution
	// of live tracked-variable counts per statement input.
	DemandFactsKept int64             `json:"demand_facts_kept,omitempty"`
	FactsPruned     int64             `json:"facts_pruned,omitempty"`
	LiveVars        HistogramSnapshot `json:"live_vars,omitempty"`

	// Taint counters, filled by the taint client when it runs over this
	// result (internal/taint mutates the snapshot in place).
	TaintSources    int64 `json:"taint_sources,omitempty"`
	TaintSinks      int64 `json:"taint_sinks,omitempty"`
	TaintSanitizers int64 `json:"taint_sanitizers,omitempty"`
	TaintErrors     int64 `json:"taint_errors,omitempty"`
	TaintWarnings   int64 `json:"taint_warnings,omitempty"`

	// Funcs is the per-function cost table, most expensive first.
	Funcs []FuncCostSnapshot `json:"funcs,omitempty"`
}

// Snapshot captures every instrument of the registry. Call it after the
// analysis has quiesced; the snapshot is immutable.
func (m *Metrics) Snapshot() *MetricsSnapshot {
	s := &MetricsSnapshot{
		Steps:           m.Steps.Load(),
		MemoHits:        m.MemoHits.Load(),
		MemoMisses:      m.MemoMisses.Load(),
		SharedHits:      m.SharedHits.Load(),
		NodeEvals:       m.NodeEvals.Load(),
		MapOps:          m.MapOps.Load(),
		UnmapOps:        m.UnmapOps.Load(),
		FixpointIters:   m.FixpointIters.Load(),
		PendingRestarts: m.PendingRestarts.Load(),
		SchedTasks:      m.SchedTasks.Load(),
		SchedSteals:     m.SchedSteals.Load(),
		LocContended:    m.LocContended.Load(),
		PeakSet:         m.PeakSet.Load(),
		Cardinality:     m.Cardinality.Snapshot(),
		DemandFactsKept: m.DemandFactsKept.Load(),
		FactsPruned:     m.FactsPruned.Load(),
		LiveVars:        m.LiveVars.Snapshot(),
	}
	if s.Cardinality.Max > s.PeakSet {
		s.PeakSet = s.Cardinality.Max
	}
	if lookups := s.MemoHits + s.MemoMisses; lookups > 0 {
		s.MemoHitRate = float64(s.MemoHits) / float64(lookups)
	}
	m.mu.Lock()
	for name, fc := range m.funcs {
		s.Funcs = append(s.Funcs, FuncCostSnapshot{
			Name:          name,
			Evals:         fc.Evals.Load(),
			MemoHits:      fc.MemoHits.Load(),
			FixpointIters: fc.FixpointIters.Load(),
			WallMS:        float64(fc.Wall.Load()) / 1e6,
		})
	}
	m.mu.Unlock()
	sort.Slice(s.Funcs, func(i, j int) bool {
		a, b := s.Funcs[i], s.Funcs[j]
		if a.WallMS != b.WallMS {
			return a.WallMS > b.WallMS
		}
		return a.Name < b.Name
	})
	return s
}
