package obsv

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// This file renders a metrics snapshot in the Prometheus text exposition
// format (version 0.0.4) and serves it live on /metrics, so a long-running
// analysis — or the pta-server daemon this layer is built for — can be
// scraped mid-run. Snapshotting the registry while the analysis is writing
// it is safe: every instrument is atomic and the per-function table is
// behind a mutex. A concurrent snapshot may be slightly torn between
// instruments (counts drift a few observations apart); the renderer keeps
// each exposed family internally consistent (cumulative histogram buckets
// stay monotone, +Inf equals the bucket total) so the output is always
// valid for a scraper.

// promFuncLimit bounds the per-function series exported on /metrics. The
// cost table can hold thousands of functions on generated programs; a
// scrape exposes only the most expensive ones (the snapshot arrives sorted
// by inclusive wall time) to keep label cardinality bounded.
const promFuncLimit = 20

// WritePrometheus snapshots a live registry and renders it in Prometheus
// text format. Safe to call while an analysis is still writing the
// registry — this is the /metrics scrape path.
func WritePrometheus(w io.Writer, m *Metrics) error {
	if m == nil {
		return fmt.Errorf("obsv: WritePrometheus on nil registry")
	}
	return WritePrometheusSnapshot(w, m.Snapshot())
}

// WritePrometheusSnapshot renders an already-taken snapshot in Prometheus
// text exposition format 0.0.4.
func WritePrometheusSnapshot(w io.Writer, s *MetricsSnapshot) error {
	if s == nil {
		return fmt.Errorf("obsv: WritePrometheusSnapshot on nil snapshot")
	}
	var b strings.Builder
	for _, d := range metricDefs {
		v := d.value(s)
		if d.skipZero && v == 0 {
			continue
		}
		name := d.family()
		writeFamilyHeader(&b, name, d.typ, d.help)
		fmt.Fprintf(&b, "%s %s\n", name, promFloat(v))
	}

	writeHistogram(&b, "pta_set_cardinality",
		"Points-to set size flowing into basic statements.", s.Cardinality)

	if s.LiveVars != nil {
		writeHistogram(&b, "pta_live_vars",
			"Demand mode: live tracked pointer variables at statement inputs.", *s.LiveVars)
	}

	if len(s.Funcs) > 0 {
		funcs := s.Funcs
		if len(funcs) > promFuncLimit {
			funcs = funcs[:promFuncLimit]
		}
		writeFamilyHeader(&b, "pta_func_wall_seconds", "gauge",
			"Inclusive evaluation wall time per function (top functions only).")
		for _, f := range funcs {
			fmt.Fprintf(&b, "pta_func_wall_seconds{fn=\"%s\"} %s\n",
				escapeLabel(f.Name), promFloat(f.WallMS/1e3))
		}
		writeFamilyHeader(&b, "pta_func_evals_total", "counter",
			"Node evaluations per function (top functions only).")
		for _, f := range funcs {
			fmt.Fprintf(&b, "pta_func_evals_total{fn=\"%s\"} %d\n", escapeLabel(f.Name), f.Evals)
		}
	}

	writeFamilyHeader(&b, "pta_info", "gauge", "Analysis process metadata.")
	fmt.Fprintf(&b, "pta_info{goos=\"%s\",goarch=\"%s\",go_version=\"%s\"} 1\n",
		escapeLabel(runtime.GOOS), escapeLabel(runtime.GOARCH), escapeLabel(runtime.Version()))

	_, err := io.WriteString(w, b.String())
	return err
}

func writeFamilyHeader(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// writeHistogram renders the power-of-two histogram with cumulative
// buckets. The +Inf bucket and _count are the cumulative bucket total (not
// the snapshot's Count field): under a mid-run scrape the two can be torn a
// few observations apart, and deriving both from the buckets keeps the
// family monotone and self-consistent.
func writeHistogram(b *strings.Builder, name, help string, h HistogramSnapshot) {
	writeFamilyHeader(b, name, "histogram", help)
	var cum int64
	for _, bk := range h.Buckets {
		cum += bk.Count
		fmt.Fprintf(b, "%s_bucket{le=\"%d\"} %d\n", name, bk.UpperBound, cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %d\n", name, h.Sum)
	fmt.Fprintf(b, "%s_count %d\n", name, cum)
}

// promFloat renders a value the way Prometheus parsers expect: integral
// values without an exponent, everything else in shortest form.
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format. %q adds the
// surrounding quotes and escapes " and \; it also escapes real newlines to
// \n, which is exactly the format's rule.
func escapeLabel(v string) string {
	s := strconv.Quote(v)
	return s[1 : len(s)-1]
}

// MetricsHandler returns an http.Handler that serves fn's snapshot in
// Prometheus text format on every request. fn is called per scrape, so
// serving a live registry is just MetricsHandler(m.Snapshot).
func MetricsHandler(fn func() *MetricsSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := fn()
		if s == nil {
			http.Error(w, "no metrics recorded yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheusSnapshot(w, s); err != nil {
			// Headers are gone; nothing useful left to do for this scrape.
			return
		}
	})
}

// RegisterMetrics mounts a live /metrics endpoint on mux, serving fn's
// snapshot per scrape. Each caller — pta-server, a test, a CLI debug mux —
// owns its mux, so registrations never collide across callers the way the
// old DefaultServeMux-only entry point forced them to.
func RegisterMetrics(mux *http.ServeMux, fn func() *MetricsSnapshot) {
	mux.Handle("/metrics", MetricsHandler(fn))
}

var (
	serveMetricsMu sync.Mutex
	serveMetricsFn func() *MetricsSnapshot
	serveMetricsOn bool
)

// ServeMetrics is the thin process-global wrapper over RegisterMetrics for
// CLIs that serve on http.DefaultServeMux (the mux StartProfiles' debug
// server listens on): the first call registers the endpoint, and every call
// replaces the snapshot source, so a CLI can point the endpoint at each
// analysis run in turn. Daemons should use RegisterMetrics on their own mux
// instead.
func ServeMetrics(fn func() *MetricsSnapshot) {
	serveMetricsMu.Lock()
	defer serveMetricsMu.Unlock()
	serveMetricsFn = fn
	if serveMetricsOn {
		return
	}
	serveMetricsOn = true
	RegisterMetrics(http.DefaultServeMux, func() *MetricsSnapshot {
		serveMetricsMu.Lock()
		f := serveMetricsFn
		serveMetricsMu.Unlock()
		if f == nil {
			return nil
		}
		return f()
	})
}
