package obsv

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// sampleRe splits an exposition sample line into name, optional label
	// block, and value.
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses exposition text, checking the structural rules as it
// goes: every sample preceded by HELP/TYPE for its family, names and labels
// valid, values parseable.
func parseProm(t *testing.T, text string) []promSample {
	t.Helper()
	var samples []promSample
	typed := map[string]string{} // family -> type
	helped := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Errorf("HELP line without help text: %q", line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("unknown metric type %q in %q", parts[1], line)
			}
			typed[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unknown comment line: %q", line)
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable sample line: %q", line)
			continue
		}
		s := promSample{name: m[1], labels: map[string]string{}}
		if !metricNameRe.MatchString(s.name) {
			t.Errorf("invalid metric name %q", s.name)
		}
		for _, lm := range labelRe.FindAllStringSubmatch(m[2], -1) {
			if !labelNameRe.MatchString(lm[1]) {
				t.Errorf("invalid label name %q in %q", lm[1], line)
			}
			s.labels[lm[1]] = lm[2]
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
		}
		s.value = v
		// Histogram series attach _bucket/_sum/_count to the family name.
		fam := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.name, suf)
			if base != s.name && typed[base] == "histogram" {
				fam = base
			}
		}
		if typed[fam] == "" {
			t.Errorf("sample %q has no preceding TYPE for family %q", line, fam)
		}
		if !helped[fam] {
			t.Errorf("sample %q has no preceding HELP for family %q", line, fam)
		}
		if typed[fam] == "counter" && !strings.HasSuffix(fam, "_total") &&
			!strings.HasSuffix(fam, "_info") {
			t.Errorf("counter family %q does not end in _total", fam)
		}
		samples = append(samples, s)
	}
	return samples
}

// exercisedMetrics returns a registry with every scalar instrument nonzero,
// so skipZero families render too.
func exercisedMetrics() *Metrics {
	m := NewMetrics()
	m.Steps.Add(1234)
	m.MemoHits.Add(30)
	m.MemoMisses.Add(10)
	m.SharedHits.Add(3)
	m.NodeEvals.Add(40)
	m.MapOps.Add(20)
	m.UnmapOps.Add(20)
	m.FixpointIters.Add(5)
	m.PendingRestarts.Add(2)
	m.SchedTasks.Add(17)
	m.SchedSteals.Add(4)
	m.LocContended.Add(6)
	m.Cardinality.Observe(99)
	for v := int64(0); v < 20; v++ {
		m.Cardinality.Observe(v)
	}
	m.Func("main").Evals.Inc()
	m.Func("main").AddWall(1500000)
	return m
}

func TestPrometheusStructure(t *testing.T) {
	var b bytes.Buffer
	if err := WritePrometheus(&b, exercisedMetrics()); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, b.String())
	byName := map[string][]promSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}

	// Every scalar family from the table must be present with the right
	// value.
	want := map[string]float64{
		"pta_steps_total":          1234,
		"pta_memo_hits_total":      30,
		"pta_memo_misses_total":    10,
		"pta_shared_hits_total":    3,
		"pta_node_evals_total":     40,
		"pta_sched_tasks_total":    17,
		"pta_sched_steals_total":   4,
		"pta_loc_contended_total":  6,
		"pta_fixpoint_iters_total": 5,
		"pta_memo_hit_rate":        0.75,
	}
	for name, v := range want {
		got := byName[name]
		if len(got) != 1 {
			t.Fatalf("family %s: got %d samples, want 1", name, len(got))
		}
		if got[0].value != v {
			t.Errorf("%s = %v, want %v", name, got[0].value, v)
		}
	}
	if byName["pta_peak_set"][0].value != 99 {
		t.Errorf("pta_peak_set = %v, want 99 (the histogram maximum)", byName["pta_peak_set"][0].value)
	}

	// Per-function series carry the fn label.
	if fs := byName["pta_func_evals_total"]; len(fs) != 1 || fs[0].labels["fn"] != "main" {
		t.Errorf("pta_func_evals_total samples = %+v, want one with fn=main", fs)
	}
	if fs := byName["pta_func_wall_seconds"]; len(fs) != 1 || fs[0].value != 0.0015 {
		t.Errorf("pta_func_wall_seconds = %+v, want 0.0015", fs)
	}

	// pta_info carries build metadata.
	info := byName["pta_info"]
	if len(info) != 1 || info[0].value != 1 || info[0].labels["goos"] == "" {
		t.Errorf("pta_info = %+v, want one sample with value 1 and goos label", info)
	}
}

// TestPrometheusLocContendedMerged checks that the location-table
// contention finished runs report reaches the totals a server scrapes.
func TestPrometheusLocContendedMerged(t *testing.T) {
	tot := NewMetrics()
	s := &MetricsSnapshot{LocContended: 5}
	tot.Merge(s)
	tot.Merge(s)
	var b bytes.Buffer
	if err := WritePrometheus(&b, tot); err != nil {
		t.Fatal(err)
	}
	for _, sm := range parseProm(t, b.String()) {
		if sm.name == "pta_loc_contended_total" {
			if sm.value != 10 {
				t.Errorf("pta_loc_contended_total = %v, want 10", sm.value)
			}
			return
		}
	}
	t.Fatal("pta_loc_contended_total missing")
}

func TestPrometheusHistogramConsistency(t *testing.T) {
	m := NewMetrics()
	for v := int64(0); v < 100; v++ {
		m.Cardinality.Observe(v)
	}
	var b bytes.Buffer
	if err := WritePrometheus(&b, m); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, b.String())

	var buckets []promSample
	var sum, count float64 = -1, -1
	for _, s := range samples {
		switch s.name {
		case "pta_set_cardinality_bucket":
			buckets = append(buckets, s)
		case "pta_set_cardinality_sum":
			sum = s.value
		case "pta_set_cardinality_count":
			count = s.value
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets rendered")
	}
	// Cumulative buckets must be monotone with le increasing, ending at
	// +Inf.
	prev := -1.0
	prevLE := -1.0
	for i, bk := range buckets {
		le := bk.labels["le"]
		if i == len(buckets)-1 {
			if le != "+Inf" {
				t.Fatalf("last bucket le=%q, want +Inf", le)
			}
		} else {
			u, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", le, err)
			}
			if u <= prevLE {
				t.Errorf("bucket bounds not increasing: %v after %v", u, prevLE)
			}
			prevLE = u
		}
		if bk.value < prev {
			t.Errorf("cumulative bucket counts not monotone: %v after %v", bk.value, prev)
		}
		prev = bk.value
	}
	inf := buckets[len(buckets)-1].value
	if inf != count {
		t.Errorf("+Inf bucket %v != _count %v", inf, count)
	}
	if count != 100 {
		t.Errorf("_count = %v, want 100", count)
	}
	// sum of 0..99 = 4950
	if sum != 4950 {
		t.Errorf("_sum = %v, want 4950", sum)
	}
}

func TestPrometheusFuncSeriesBounded(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 3*promFuncLimit; i++ {
		fc := m.Func(fmt.Sprintf("fn%03d", i))
		fc.Evals.Inc()
		fc.AddWall(1000)
	}
	var b bytes.Buffer
	if err := WritePrometheus(&b, m); err != nil {
		t.Fatal(err)
	}
	n := strings.Count(b.String(), "pta_func_evals_total{")
	if n != promFuncLimit {
		t.Errorf("exported %d per-function series, want cap %d", n, promFuncLimit)
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	m := NewMetrics()
	fc := m.Func("weird\"fn\\name\nx")
	fc.Evals.Inc()
	fc.AddWall(1000)
	var b bytes.Buffer
	if err := WritePrometheus(&b, m); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `fn="weird\"fn\\name\nx"`) {
		t.Errorf("label value not escaped per exposition rules:\n%s", out)
	}
	// The whole output must still parse line by line.
	parseProm(t, out)
}

func TestPrometheusNilArgs(t *testing.T) {
	if err := WritePrometheus(io.Discard, nil); err == nil {
		t.Error("WritePrometheus(nil) should error")
	}
	if err := WritePrometheusSnapshot(io.Discard, nil); err == nil {
		t.Error("WritePrometheusSnapshot(nil) should error")
	}
}

func TestMetricsHandler(t *testing.T) {
	m := exercisedMetrics()
	h := MetricsHandler(m.Snapshot)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	if !strings.Contains(rec.Body.String(), "pta_steps_total 1234") {
		t.Errorf("body missing pta_steps_total:\n%s", rec.Body.String())
	}

	// No snapshot source yet: 503, not a crash.
	h = MetricsHandler(func() *MetricsSnapshot { return nil })
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 503 {
		t.Errorf("status %d with nil snapshot, want 503", rec.Code)
	}
}

// TestPrometheusConcurrentScrape renders while writers are hammering the
// registry; under -race this is the mid-run scrape safety test, and the
// output must stay structurally valid on every iteration.
func TestPrometheusConcurrentScrape(t *testing.T) {
	m := NewMetrics()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Steps.Inc()
				m.Cardinality.Observe(i % 64)
				m.Func("hot").Evals.Inc()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b bytes.Buffer
		if err := WritePrometheus(&b, m); err != nil {
			t.Fatal(err)
		}
		parseProm(t, b.String())
	}
	close(stop)
	wg.Wait()
}

// TestRegisterMetricsPerMux proves the mux-injectable registration: two
// muxes each get their own /metrics backed by different registries, and
// neither touches http.DefaultServeMux or the other's output.
func TestRegisterMetricsPerMux(t *testing.T) {
	m1, m2 := NewMetrics(), NewMetrics()
	m1.Steps.Add(11)
	m2.Steps.Add(22)
	mux1, mux2 := http.NewServeMux(), http.NewServeMux()
	RegisterMetrics(mux1, m1.Snapshot)
	RegisterMetrics(mux2, m2.Snapshot)

	scrape := func(mux *http.ServeMux) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("status %d, want 200", rec.Code)
		}
		return rec.Body.String()
	}
	if body := scrape(mux1); !strings.Contains(body, "pta_steps_total 11") {
		t.Errorf("mux1 scrape missing its registry:\n%s", body)
	}
	if body := scrape(mux2); !strings.Contains(body, "pta_steps_total 22") {
		t.Errorf("mux2 scrape missing its registry:\n%s", body)
	}
}
