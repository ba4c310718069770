// Package server implements pta-server: the points-to analysis as a
// long-running HTTP/JSON service with a request-scoped observability spine.
//
// Every request gets its own observability scope — a generated or
// propagated X-Request-ID, a private metrics registry (returned inline in
// the response and merged into monotone server totals), a private tracer
// stamped with the request ID, and a private flight recorder whose dump is
// spooled to a file named by the request ID when the run panics, blows its
// step budget, or stalls. The access log, the trace, the metrics snapshot
// and the flight dump all carry the same ID, so one identifier follows a
// request across every surface.
//
// Server-level endpoints: POST /v1/analyze, /v1/check, /v1/race, /v1/taint
// and /v1/query (views over one request path: a shared parse cache, one
// engine run, one status rule); GET /metrics (Prometheus text:
// aggregated analysis registry plus http_requests_total,
// http_request_duration_seconds, inflight_requests); /healthz; /readyz
// (ready only after the warmup self-analysis passes); and /debug/pprof.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/pointsto"
)

// Config configures a Server.
type Config struct {
	// PoolSize bounds concurrent analyses (0 means GOMAXPROCS).
	PoolSize int
	// AnalysisWorkers caps the per-analysis worker count a request may ask
	// for (0 means GOMAXPROCS).
	AnalysisWorkers int
	// SpoolDir receives per-request flight-record dumps. Required.
	SpoolDir string
	// MaxSourceBytes bounds a request body (0 means 8 MiB).
	MaxSourceBytes int64
	// MaxSteps is the per-request step-budget ceiling (0 means the engine
	// default, negative is an error); requests may lower it but not raise
	// it.
	MaxSteps int
	// Logger receives the access log and server events (nil means a JSON
	// logger on io.Discard).
	Logger *slog.Logger
	// WarmupSource overrides the built-in warmup program ("" = built-in).
	WarmupSource string
}

// warmupSource is a tiny program covering the paths a request exercises
// (globals, heap, a function-pointer call): if this analyzes correctly the
// server is fit to serve.
const warmupSource = `
int g;
int *p;
int (*fp)();
int set() { p = &g; return 0; }
int main() {
	fp = set;
	fp();
	return 0;
}
`

// Server is one pta-server instance. Create with New, mount Handler on any
// mux or listener, or use Start/Shutdown for the daemon lifecycle.
type Server struct {
	cfg    Config
	log    *slog.Logger
	pool   *workerPool
	spool  *spool
	parses *parseCache
	totals *obsv.Metrics
	http   *httpMetrics
	ready  atomic.Bool

	srv      *http.Server
	listener net.Listener
}

// New validates the config and builds a Server (not yet listening, not yet
// warmed up).
func New(cfg Config) (*Server, error) {
	if cfg.MaxSteps < 0 {
		return nil, fmt.Errorf("server: negative MaxSteps %d", cfg.MaxSteps)
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = runtime.GOMAXPROCS(0)
	}
	if cfg.AnalysisWorkers <= 0 {
		cfg.AnalysisWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = 8 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	sp, err := newSpool(cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:    cfg,
		log:    cfg.Logger,
		pool:   newWorkerPool(cfg.PoolSize),
		spool:  sp,
		parses: newParseCache(0),
		totals: obsv.NewMetrics(),
		http:   newHTTPMetrics(),
	}, nil
}

// Handler builds the server's mux, with every route behind the request-ID +
// access-log + HTTP-metrics middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, view := range views {
		mux.Handle("/v1/"+view, s.handle(view))
	}
	// One exposition combining the aggregated analysis registry (rendered
	// by the obsv exporter) with the server's own HTTP series. The server
	// owns this mux outright — obsv.RegisterMetrics never touches a global.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obsv.WritePrometheus(w, s.totals); err != nil {
			return
		}
		if err := s.http.writePrometheus(w); err != nil {
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.instrument(mux)
}

// instrument is the request-scoped observability middleware: request ID in
// (propagated or generated) and out (response header, context, access log),
// HTTP metrics, and one structured access-log line per request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		r = r.WithContext(withRequestID(r.Context(), id))
		w.Header().Set(requestIDHeader, id)
		done := s.http.begin()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		dur := time.Since(start)
		done(r.URL.Path, rec.status, dur.Microseconds())
		s.log.Info("request",
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_ms", float64(dur)/float64(time.Millisecond),
			"bytes", rec.bytes,
			"flight_dump", rec.Header().Get(flightDumpHeader),
		)
	})
}

// flightDumpHeader carries the spooled dump name from the handler to the
// access-log middleware (and to the client, which also sees it in the JSON
// body).
const flightDumpHeader = "X-Flight-Dump"

// statusRecorder captures status and body size for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// writeJSON sends a JSON response, surfacing the spooled flight dump's name
// as a header so the access-log middleware can stamp it into the request
// line.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, body any, dump string) {
	if dump != "" {
		w.Header().Set(flightDumpHeader, dump)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.log.Error("write response", "request_id", RequestIDFrom(r.Context()), "err", err)
	}
}

// writeError sends a minimal JSON error body (no analysis was run).
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	s.writeJSON(w, r, status, &AnalyzeResponse{
		RequestID: RequestIDFrom(r.Context()),
		Error:     msg,
	}, "")
}

// Warmup runs the self-analysis gate: the server reports ready only once
// the engine demonstrably works in this process. Errors leave the server
// up (healthz) but not ready (readyz).
func (s *Server) Warmup() error {
	src := s.cfg.WarmupSource
	if src == "" {
		src = warmupSource
	}
	cfg := &pointsto.Config{Workers: 1}
	if _, err := pointsto.AnalyzeSource("warmup.c", src, cfg); err != nil {
		return fmt.Errorf("server: warmup analysis failed: %w", err)
	}
	s.ready.Store(true)
	return nil
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that never finishes them cannot hold the
// connection open.
const readHeaderTimeout = 10 * time.Second

// Start listens on addr and serves in a background goroutine, returning the
// bound address (useful with ":0"). Warmup is launched asynchronously, so
// the socket answers /healthz immediately and /readyz flips once the
// self-analysis passes.
func (s *Server) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.listener = l
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		if err := s.srv.Serve(l); err != nil && err != http.ErrServerClosed {
			s.log.Error("serve", "err", err)
		}
	}()
	go func() {
		if err := s.Warmup(); err != nil {
			s.log.Error("warmup", "err", err)
		} else {
			s.log.Info("ready", "addr", l.Addr().String())
		}
	}()
	return l.Addr(), nil
}

// Shutdown drains in-flight requests and closes the listener; new requests
// are refused immediately, queued ones finish.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}
