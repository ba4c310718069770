package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
)

// fixture sources used across the server tests.
const fig6Src = `
int a, b, c;
int *pa, *pb, *pc;
int (*fp)();
int foo();
int bar();
int main() {
	int cond;
	pc = &c;
	if (cond)
		fp = foo;
	else
		fp = bar;
	fp();
	return 0;
}
int foo() {
	int cond;
	pa = &a;
	if (cond)
		fp();
	return 0;
}
int bar() {
	pb = &b;
	return 0;
}
`

// syncBuffer collects the access log concurrently with requests.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// newTestServer builds a warmed-up server over a temp spool, returning the
// server, its access-log buffer, and the spool dir.
func newTestServer(t *testing.T) (*Server, *syncBuffer, string) {
	t.Helper()
	buf := &syncBuffer{}
	log, err := obsv.NewLogger(buf, obsv.LogOptions{JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := New(Config{SpoolDir: dir, Logger: log, PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	return s, buf, dir
}

// post sends one analysis request through the handler and decodes the body.
func post(t *testing.T, h http.Handler, path string, req AnalyzeRequest, hdr map[string]string) (*httptest.ResponseRecorder, *AnalyzeResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", path, bytes.NewReader(body))
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	var resp AnalyzeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response is not JSON (%v):\n%s", err, rec.Body.String())
	}
	return rec, &resp
}

func TestHealthAndReadiness(t *testing.T) {
	buf := &syncBuffer{}
	log, _ := obsv.NewLogger(buf, obsv.LogOptions{JSON: true})
	s, err := New(Config{SpoolDir: t.TempDir(), Logger: log})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/healthz"); rec.Code != 200 {
		t.Errorf("/healthz = %d, want 200", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != 503 {
		t.Errorf("/readyz before warmup = %d, want 503", rec.Code)
	}
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	if rec := get("/readyz"); rec.Code != 200 {
		t.Errorf("/readyz after warmup = %d, want 200", rec.Code)
	}
	if rec := get("/debug/pprof/cmdline"); rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d, want 200", rec.Code)
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	s, logBuf, _ := newTestServer(t)
	h := s.Handler()
	rec, resp := post(t, h, "/v1/analyze", AnalyzeRequest{Filename: "fig6.c", Source: fig6Src}, nil)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.RequestID == "" {
		t.Error("no request_id in response")
	}
	if got := rec.Header().Get("X-Request-ID"); got != resp.RequestID {
		t.Errorf("header request id %q != body %q", got, resp.RequestID)
	}
	if resp.View != "analyze" || resp.Filename != "fig6.c" {
		t.Errorf("view/filename = %q/%q", resp.View, resp.Filename)
	}
	if len(resp.PointsTo) == 0 {
		t.Error("no points-to triples")
	}
	var fpTargets []string
	for _, tr := range resp.PointsTo {
		if tr.Src == "fp" {
			fpTargets = append(fpTargets, tr.Dst)
		}
	}
	if len(fpTargets) != 2 {
		t.Errorf("fp targets = %v, want foo and bar", fpTargets)
	}
	if len(resp.Fingerprint) != 64 {
		t.Errorf("fingerprint %q is not a sha256 hex digest", resp.Fingerprint)
	}
	if resp.Metrics == nil || resp.Metrics.Steps == 0 {
		t.Error("metrics snapshot missing or empty")
	}
	if resp.Trace == nil || resp.Trace.Spans == 0 {
		t.Error("trace summary missing or empty")
	}
	if resp.FlightDump != "" {
		t.Errorf("healthy request spooled a flight dump: %q", resp.FlightDump)
	}
	if !strings.Contains(logBuf.String(), resp.RequestID) {
		t.Errorf("access log does not mention request id %s:\n%s", resp.RequestID, logBuf.String())
	}
}

func TestCheckView(t *testing.T) {
	src, err := os.ReadFile("../../examples/check/uaf.c")
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := newTestServer(t)
	rec, resp := post(t, s.Handler(), "/v1/check", AnalyzeRequest{Filename: "uaf.c", Source: string(src)}, nil)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Findings) == 0 || resp.Errors == 0 {
		t.Errorf("check view found nothing on the UAF fixture: %+v", resp)
	}
	for _, f := range resp.Findings {
		if f.Severity != "error" && f.Severity != "warning" {
			t.Errorf("bad severity %q", f.Severity)
		}
	}
}

func TestRaceAndTaintViews(t *testing.T) {
	s, _, _ := newTestServer(t)
	h := s.Handler()
	for _, view := range []string{"race", "taint"} {
		rec, resp := post(t, h, "/v1/"+view, AnalyzeRequest{Source: fig6Src}, nil)
		if rec.Code != 200 {
			t.Fatalf("%s status %d: %s", view, rec.Code, rec.Body.String())
		}
		if resp.View != view {
			t.Errorf("view = %q, want %q", resp.View, view)
		}
		// fig6 has no threads and no taint: clean result, still correlated.
		if len(resp.Findings) != 0 || resp.Errors != 0 {
			t.Errorf("%s view on clean fixture: %+v", view, resp.Findings)
		}
		if resp.Metrics == nil || resp.Metrics.Steps == 0 {
			t.Errorf("%s view missing metrics", view)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	s, _, _ := newTestServer(t)
	h := s.Handler()
	_, resp := post(t, h, "/v1/analyze", AnalyzeRequest{Source: fig6Src},
		map[string]string{"X-Request-ID": "caller-id-42"})
	if resp.RequestID != "caller-id-42" {
		t.Errorf("propagated id lost: got %q", resp.RequestID)
	}
	// Unusable IDs (path metacharacters would name spool files) are replaced.
	_, resp = post(t, h, "/v1/analyze", AnalyzeRequest{Source: fig6Src},
		map[string]string{"X-Request-ID": "../../etc/passwd"})
	if resp.RequestID == "../../etc/passwd" || resp.RequestID == "" {
		t.Errorf("unsafe id not replaced: got %q", resp.RequestID)
	}
}

func TestBadRequests(t *testing.T) {
	s, _, _ := newTestServer(t)
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/analyze", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET = %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/analyze", strings.NewReader("{not json")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON = %d, want 400", rec.Code)
	}

	rec, _ = post(t, h, "/v1/analyze", AnalyzeRequest{Source: "   "}, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty source = %d, want 400", rec.Code)
	}

	rec, resp := post(t, h, "/v1/analyze", AnalyzeRequest{Source: "int main( {"}, nil)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("parse error = %d, want 422", rec.Code)
	}
	if resp.Error == "" {
		t.Error("parse failure carried no error message")
	}

	rec, resp = post(t, h, "/v1/analyze", AnalyzeRequest{
		Source: fig6Src,
		Config: &RequestConfig{FnPtrStrategy: "psychic"},
	}, nil)
	if rec.Code != http.StatusInternalServerError && rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("bad strategy = %d, want error status", rec.Code)
	}
	if !strings.Contains(resp.Error, "psychic") {
		t.Errorf("bad strategy error = %q", resp.Error)
	}
}

// A 39-byte source whose macro body names the macro must end in a parse
// error and leave no worker slot held.
func TestSelfNamingMacroFreesSlot(t *testing.T) {
	s, _, _ := newTestServer(t)
	h := s.Handler()
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		body := `{"source": "#define A x A\nint main() { return A; }\n"}`
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/check", strings.NewReader(body)))
		done <- rec.Code
	}()
	select {
	case code := <-done:
		if code != http.StatusUnprocessableEntity {
			t.Errorf("self-naming macro = %d, want 422", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("request did not finish within 10s")
	}
	if n := len(s.pool.sem); n != 0 {
		t.Errorf("%d worker slots still held after the request", n)
	}
}

func TestMetricsEndpointCombined(t *testing.T) {
	s, _, _ := newTestServer(t)
	h := s.Handler()
	if rec, _ := post(t, h, "/v1/analyze", AnalyzeRequest{Source: fig6Src}, nil); rec.Code != 200 {
		t.Fatalf("analyze failed: %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"pta_steps_total ",
		`http_requests_total{path="/v1/analyze",code="200"} 1`,
		"http_request_duration_seconds_bucket",
		// The scrape itself is in flight while the gauge renders.
		"inflight_requests 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestNewRejectsNegativeMaxSteps: a negative ceiling would fail every
// request with an abort after warmup passed, so New refuses it.
func TestNewRejectsNegativeMaxSteps(t *testing.T) {
	if _, err := New(Config{SpoolDir: t.TempDir(), MaxSteps: -1}); err == nil {
		t.Error("New accepted MaxSteps -1")
	}
}

// TestStartBoundsHeaderReads: the listening server bounds how long a
// client may take to send its request headers.
func TestStartBoundsHeaderReads(t *testing.T) {
	s, _, _ := newTestServer(t)
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(t.Context())
	if got := s.srv.ReadHeaderTimeout; got != readHeaderTimeout || got <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", got, readHeaderTimeout)
	}
}

func TestGracefulShutdown(t *testing.T) {
	s, _, _ := newTestServer(t)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("http://%s/healthz", addr)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(url); err == nil {
		t.Error("server still answering after Shutdown")
	}
}
