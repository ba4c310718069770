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

// maxGauge tracks the maximum value ever observed.
type maxGauge struct{ v atomic.Int64 }

// Observe raises the gauge to n if n exceeds the current maximum.
func (g *maxGauge) Observe(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the maximum observed so far.
func (g *maxGauge) Load() int64 { return g.v.Load() }

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
	max     maxGauge
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

// Metrics is the typed metrics registry of one analysis run. The hot path
// updates its counters atomically (a.m.Steps.Inc()); each fills the
// MetricsSnapshot field of the same name, and metricDefs declares what it
// measures and how it is exported. The per-function table is behind a
// mutex (touched only per node evaluation, never per statement).
type Metrics struct {
	// LocContended is added from the location table when the run ends,
	// so it reads 0 mid-run.
	Steps, NodeEvals, MemoHits, MemoMisses, SharedHits Counter
	MapOps, UnmapOps, FixpointIters, PendingRestarts   Counter
	SchedTasks, SchedSteals, LocContended              Counter
	DemandFactsKept, FactsPruned                       Counter

	// Cardinality is the distribution of points-to set sizes flowing into
	// basic statements; its maximum is the snapshot's peak set.
	Cardinality Histogram
	// LiveVars is the distribution of live tracked-variable counts at
	// statement inputs (demand mode only).
	LiveVars Histogram

	mu    sync.Mutex
	funcs map[string]*FuncCost
}

// metricDef declares one scalar family of the engine, once: Merge,
// Snapshot, WritePrometheusSnapshot and the flight record's counters line
// loop over metricDefs, and a test checks EXPERIMENTS.md's metrics
// reference against it.
type metricDef struct {
	// key is the MetricsSnapshot JSON key. The Prometheus family is
	// pta_<key>, with a _total suffix for a counter.
	key  string
	typ  string // Prometheus type: "counter" or "gauge"
	help string
	// skipZero omits the family from the Prometheus text while it is zero.
	skipZero bool
	// counter is the registry counter a run adds to, nil for a value the
	// snapshot derives or the analysis fills in afterwards.
	counter func(*Metrics) *Counter
	// field is the MetricsSnapshot field the row fills; ratio replaces it
	// for the one fractional family.
	field func(*MetricsSnapshot) *int64
	ratio func(*MetricsSnapshot) float64
}

// metricDefs is the scalar family table, in Prometheus exposition order.
var metricDefs = []metricDef{
	{"steps", "counter", "Basic-statement transfer-function evaluations.", false,
		func(m *Metrics) *Counter { return &m.Steps }, func(s *MetricsSnapshot) *int64 { return &s.Steps }, nil},
	{"node_evals", "counter", "Invocation-graph node body evaluations (memo hits excluded).", false,
		func(m *Metrics) *Counter { return &m.NodeEvals }, func(s *MetricsSnapshot) *int64 { return &s.NodeEvals }, nil},
	{"memo_hits", "counter", "Input-keyed summary-cache hits on invocation-graph nodes.", false,
		func(m *Metrics) *Counter { return &m.MemoHits }, func(s *MetricsSnapshot) *int64 { return &s.MemoHits }, nil},
	{"memo_misses", "counter", "Input-keyed summary-cache misses on invocation-graph nodes.", false,
		func(m *Metrics) *Counter { return &m.MemoMisses }, func(s *MetricsSnapshot) *int64 { return &s.MemoMisses }, nil},
	{"shared_hits", "counter", "Global shared-summary cache reuses (ShareContexts).", true,
		func(m *Metrics) *Counter { return &m.SharedHits }, func(s *MetricsSnapshot) *int64 { return &s.SharedHits }, nil},
	{"map_ops", "counter", "map_process operations at call sites.", false,
		func(m *Metrics) *Counter { return &m.MapOps }, func(s *MetricsSnapshot) *int64 { return &s.MapOps }, nil},
	{"unmap_ops", "counter", "unmap_process operations at call sites.", false,
		func(m *Metrics) *Counter { return &m.UnmapOps }, func(s *MetricsSnapshot) *int64 { return &s.UnmapOps }, nil},
	{"fixpoint_iters", "counter", "Recursion fixed-point iterations beyond each first pass.", false,
		func(m *Metrics) *Counter { return &m.FixpointIters }, func(s *MetricsSnapshot) *int64 { return &s.FixpointIters }, nil},
	{"pending_restarts", "counter", "Pending-list generalization restarts of recursive fixed points.", false,
		func(m *Metrics) *Counter { return &m.PendingRestarts }, func(s *MetricsSnapshot) *int64 { return &s.PendingRestarts }, nil},
	{"sched_tasks", "counter", "Branches of parallel fan-outs at more than one worker.", false,
		func(m *Metrics) *Counter { return &m.SchedTasks }, func(s *MetricsSnapshot) *int64 { return &s.SchedTasks }, nil},
	{"sched_steals", "counter", "Fan-out branches that ran on a spare worker track.", false,
		func(m *Metrics) *Counter { return &m.SchedSteals }, func(s *MetricsSnapshot) *int64 { return &s.SchedSteals }, nil},
	{"loc_contended", "counter", "Location-table lock acquisitions that had to wait.", false,
		func(m *Metrics) *Counter { return &m.LocContended }, func(s *MetricsSnapshot) *int64 { return &s.LocContended }, nil},
	{"trace_emitted", "counter", "Trace events recorded into the ring buffers.", true,
		nil, func(s *MetricsSnapshot) *int64 { return &s.TraceEmitted }, nil},
	{"trace_dropped", "counter", "Trace events lost to ring-buffer overflow.", true,
		nil, func(s *MetricsSnapshot) *int64 { return &s.TraceDropped }, nil},
	{"demand_facts_kept", "counter", "Demand mode: points-to triples recorded at seeded statements.", true,
		func(m *Metrics) *Counter { return &m.DemandFactsKept }, func(s *MetricsSnapshot) *int64 { return &s.DemandFactsKept }, nil},
	{"facts_pruned", "counter", "Demand mode: points-to triples dropped for dead source variables.", true,
		func(m *Metrics) *Counter { return &m.FactsPruned }, func(s *MetricsSnapshot) *int64 { return &s.FactsPruned }, nil},
	{"peak_set", "gauge", "Largest points-to set flowing into any statement.", false,
		nil, func(s *MetricsSnapshot) *int64 { return &s.PeakSet }, nil},
	{"memo_hit_rate", "gauge", "Memo hits over memo lookups, 0 when cold.", false,
		nil, nil, func(s *MetricsSnapshot) float64 { return s.MemoHitRate }},
}

// family is the row's Prometheus family name.
func (d *metricDef) family() string {
	if d.typ == "counter" {
		return "pta_" + d.key + "_total"
	}
	return "pta_" + d.key
}

// value reads the row's snapshot value.
func (d *metricDef) value(s *MetricsSnapshot) float64 {
	if d.ratio != nil {
		return d.ratio(s)
	}
	return float64(*d.field(s))
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
// Every registry counter adds, the histograms merge bucket-exact (so the
// peak set is the largest merged), and the per-function cost table
// accumulates by name. Snapshot-only fields the registry has no counter
// for (trace accounting) are not aggregated. Safe for concurrent use.
func (m *Metrics) Merge(s *MetricsSnapshot) {
	if s == nil {
		return
	}
	for _, d := range metricDefs {
		if d.counter != nil {
			d.counter(m).Add(*d.field(s))
		}
	}
	m.Cardinality.Merge(s.Cardinality)
	if s.LiveVars != nil {
		m.LiveVars.Merge(*s.LiveVars)
	}
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
	TraceEmitted int64 `json:"trace_emitted,omitempty"`
	TraceDropped int64 `json:"trace_dropped,omitempty"`

	// Demand-mode accounting (absent in exhaustive runs): facts recorded
	// at seeded statements, facts pruned as dead, and the distribution
	// of live tracked-variable counts per statement input (nil when
	// nothing was observed).
	DemandFactsKept int64              `json:"demand_facts_kept,omitempty"`
	FactsPruned     int64              `json:"facts_pruned,omitempty"`
	LiveVars        *HistogramSnapshot `json:"live_vars,omitempty"`

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
	s := &MetricsSnapshot{Cardinality: m.Cardinality.Snapshot()}
	if lv := m.LiveVars.Snapshot(); lv.Count > 0 {
		s.LiveVars = &lv
	}
	for _, d := range metricDefs {
		if d.counter != nil {
			*d.field(s) = d.counter(m).Load()
		}
	}
	s.PeakSet = s.Cardinality.Max
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
