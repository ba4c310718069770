package obsv

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketsAndQuantiles checks the power-of-two bucketing and
// the quantile estimates against a known distribution.
func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 90 ones and 10 hundreds: p50 lands in the [1,1] bucket, p99 in the
	// bucket holding 100 (upper bound 127, clamped to the exact max).
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 90+1000 || s.Max != 100 {
		t.Fatalf("count/sum/max = %d/%d/%d, want 100/1090/100", s.Count, s.Sum, s.Max)
	}
	if s.P50 != 1 {
		t.Errorf("P50 = %d, want 1", s.P50)
	}
	if s.P99 != 100 {
		t.Errorf("P99 = %d, want 100 (bucket upper bound clamped to max)", s.P99)
	}
	if len(s.Buckets) != 2 {
		t.Errorf("got %d populated buckets, want 2: %+v", len(s.Buckets), s.Buckets)
	}
}

// TestHistogramZeroAndEmpty covers the v<=0 bucket and the empty snapshot.
func TestHistogramZeroAndEmpty(t *testing.T) {
	var empty Histogram
	if s := empty.Snapshot(); s.Count != 0 || s.P50 != 0 || len(s.Buckets) != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	var h Histogram
	h.Observe(0)
	s := h.Snapshot()
	if s.Count != 1 || s.Max != 0 || s.P50 != 0 {
		t.Errorf("zero-only snapshot = %+v", s)
	}
}

// TestMetricsConcurrent updates every instrument from several goroutines
// (the -race guard for the registry) and checks the totals.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Steps.Inc()
				m.MemoHits.Add(2)
				m.Cardinality.Observe(int64(i % 37))
				if i%100 == 0 {
					m.Func("f").Evals.Inc()
				}
			}
		}(g)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Steps != goroutines*per {
		t.Errorf("Steps = %d, want %d", s.Steps, goroutines*per)
	}
	if s.MemoHits != 2*goroutines*per {
		t.Errorf("MemoHits = %d, want %d", s.MemoHits, 2*goroutines*per)
	}
	if s.PeakSet != 36 {
		t.Errorf("PeakSet = %d, want the cardinality maximum 36", s.PeakSet)
	}
	if s.Cardinality.Count != goroutines*per {
		t.Errorf("Cardinality.Count = %d, want %d", s.Cardinality.Count, goroutines*per)
	}
	if len(s.Funcs) != 1 || s.Funcs[0].Evals != goroutines*per/100 {
		t.Errorf("Funcs = %+v, want one entry with %d evals", s.Funcs, goroutines*per/100)
	}
}

// TestMemoHitRate checks the derived rate in the snapshot.
func TestMemoHitRate(t *testing.T) {
	m := NewMetrics()
	m.MemoHits.Add(3)
	m.MemoMisses.Add(1)
	if s := m.Snapshot(); s.MemoHitRate != 0.75 {
		t.Errorf("MemoHitRate = %v, want 0.75", s.MemoHitRate)
	}
	if s := NewMetrics().Snapshot(); s.MemoHitRate != 0 {
		t.Errorf("cold MemoHitRate = %v, want 0", s.MemoHitRate)
	}
}

// TestMetricsMerge checks the server-totals aggregation path: merging two
// per-request snapshots into a fresh registry must equal having observed
// everything in one registry.
func TestMetricsMerge(t *testing.T) {
	mkReq := func(steps int64, card []int64, fn string, evals int64) *MetricsSnapshot {
		m := NewMetrics()
		m.Steps.Add(steps)
		m.MemoHits.Add(steps / 2)
		m.MemoMisses.Add(steps / 4)
		m.NodeEvals.Add(evals)
		for _, v := range card {
			m.Cardinality.Observe(v)
		}
		fc := m.Func(fn)
		fc.Evals.Add(evals)
		fc.Wall.Add(evals * 1e6) // 1ms per eval
		return m.Snapshot()
	}
	s1 := mkReq(100, []int64{0, 1, 3, 7, 500}, "f", 4)
	s2 := mkReq(40, []int64{2, 1000}, "g", 2)

	tot := NewMetrics()
	tot.Merge(s1)
	tot.Merge(s2)
	tot.Merge(nil) // no-op
	got := tot.Snapshot()

	if got.Steps != 140 || got.MemoHits != 70 || got.MemoMisses != 35 || got.NodeEvals != 6 {
		t.Errorf("merged counters wrong: %+v", got)
	}
	if got.PeakSet != 1000 {
		t.Errorf("merged peak = %d, want 1000", got.PeakSet)
	}
	if got.Cardinality.Count != 7 || got.Cardinality.Sum != 1513 || got.Cardinality.Max != 1000 {
		t.Errorf("merged cardinality = %+v", got.Cardinality)
	}
	// Bucket-exact merge: the union must equal direct observation.
	direct := &Histogram{}
	for _, v := range []int64{0, 1, 3, 7, 500, 2, 1000} {
		direct.Observe(v)
	}
	want := direct.Snapshot()
	if len(got.Cardinality.Buckets) != len(want.Buckets) {
		t.Fatalf("bucket shapes differ: got %v want %v", got.Cardinality.Buckets, want.Buckets)
	}
	for i := range want.Buckets {
		if got.Cardinality.Buckets[i] != want.Buckets[i] {
			t.Errorf("bucket %d: got %+v want %+v", i, got.Cardinality.Buckets[i], want.Buckets[i])
		}
	}
	// Per-function costs accumulate by name.
	funcs := map[string]FuncCostSnapshot{}
	for _, f := range got.Funcs {
		funcs[f.Name] = f
	}
	if f := funcs["f"]; f.Evals != 4 || f.WallMS != 4 {
		t.Errorf("func f cost = %+v", f)
	}
	if g := funcs["g"]; g.Evals != 2 || g.WallMS != 2 {
		t.Errorf("func g cost = %+v", g)
	}
}

// TestMergeDoublesEveryCounterRow sets a distinct value on every registry
// counter of the family table, snapshots it and merges the snapshot twice
// into a fresh registry: each row must come back doubled, so no row can
// skip Merge or Snapshot, or read another row's field.
func TestMergeDoublesEveryCounterRow(t *testing.T) {
	m := NewMetrics()
	for i, d := range metricDefs {
		if d.counter != nil {
			d.counter(m).Add(int64(i + 1))
		}
	}
	s := m.Snapshot()
	tot := NewMetrics()
	tot.Merge(s)
	tot.Merge(s)
	got := tot.Snapshot()
	rows := 0
	for i, d := range metricDefs {
		if d.counter == nil {
			continue
		}
		rows++
		if v := *d.field(got); v != 2*int64(i+1) {
			t.Errorf("%s merged twice = %d, want %d", d.key, v, 2*(i+1))
		}
	}
	if rows == 0 {
		t.Fatal("no family has a registry counter")
	}
}

// TestExperimentsMetricsReference checks the Exported metrics reference
// table of EXPERIMENTS.md against the declarations: its unlabelled rows
// must name the scalar families of metricDefs and then the two histograms,
// with their JSON keys, in order.
func TestExperimentsMetricsReference(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "## Exported metrics reference")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Exported metrics reference section")
	}
	var got []string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(line, "|")
		family, key := strings.TrimSpace(cells[1]), strings.TrimSpace(cells[2])
		if !strings.HasPrefix(family, "`pta_") || strings.Contains(family, "{") {
			continue // header, separator and labelled series
		}
		got = append(got, family+" "+key)
	}
	var want []string
	for _, d := range metricDefs {
		want = append(want, fmt.Sprintf("`%s` `%s`", d.family(), d.key))
	}
	want = append(want,
		"`pta_set_cardinality` (histogram) `set_cardinality`",
		"`pta_live_vars` (histogram) `live_vars`")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("EXPERIMENTS.md metrics reference rows:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
