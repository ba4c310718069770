package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/obsv"
	"repro/internal/pta"
	"repro/internal/pta/loc"
	"repro/internal/race"
	"repro/internal/simple"
	"repro/internal/taint"
	"repro/pointsto"
)

// AnalyzeRequest is the body of POST /v1/analyze (and the /v1/check,
// /v1/race, /v1/taint views over the same run).
type AnalyzeRequest struct {
	// Filename labels positions in diagnostics (default "input.c").
	Filename string `json:"filename,omitempty"`
	// Source is the C translation unit to analyze. Required.
	Source string `json:"source"`
	// Config exposes the pointsto.Config knobs per request.
	Config *RequestConfig `json:"config,omitempty"`
}

// QueryRequest is the body of POST /v1/query: points-to queries answered by
// a demand-driven, liveness-pruned analysis run. It carries every key of
// AnalyzeRequest plus the query batch.
type QueryRequest struct {
	// Filename labels positions (default "input.c"); query positions must
	// use the same name.
	Filename string `json:"filename,omitempty"`
	// Source is the C translation unit. Required.
	Source string `json:"source"`
	// Queries is the batch to answer. Required.
	Queries []pointsto.Query `json:"queries"`
	// Exhaustive answers from a full exhaustive run instead of demand
	// mode (the correctness oracle; answers are identical by contract).
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Config exposes the same knobs as /v1/analyze.
	Config *RequestConfig `json:"config,omitempty"`
}

// RequestConfig is the JSON view of the analysis knobs a caller may set.
type RequestConfig struct {
	FnPtrStrategy      string `json:"fnptr,omitempty"`
	NoDefinite         bool   `json:"no_definite,omitempty"`
	SingleArrayLoc     bool   `json:"single_array_loc,omitempty"`
	NoMemo             bool   `json:"no_memo,omitempty"`
	ContextInsensitive bool   `json:"context_insensitive,omitempty"`
	// Workers is clamped to the server's per-analysis cap.
	Workers int `json:"workers,omitempty"`
	// MaxSteps bounds the run (0 means the server default); it is clamped
	// to the server's ceiling so one request cannot hold a pool slot for an
	// unbounded fixed point.
	MaxSteps int `json:"max_steps,omitempty"`
	// StallWindowMS arms the per-request stall watchdog; with StallKill a
	// detected stall aborts the request (and spools its flight record).
	StallWindowMS int  `json:"stall_window_ms,omitempty"`
	StallKill     bool `json:"stall_kill,omitempty"`
}

// Triple is one points-to relationship in a response.
type Triple struct {
	Src      string `json:"src"`
	Dst      string `json:"dst"`
	Definite bool   `json:"definite"`
}

// Finding is one checker diagnostic in a response.
type Finding struct {
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

// TraceSummary reports the per-request tracer's ring accounting.
type TraceSummary struct {
	Spans   uint64 `json:"spans"`
	Dropped uint64 `json:"dropped"`
}

// AnalyzeResponse is the body returned by the /v1 analysis views. The
// request ID, the inline metrics snapshot and the flight-dump reference are
// the correlation surface: the same ID appears in the access log and names
// the spooled dump.
type AnalyzeResponse struct {
	RequestID   string                `json:"request_id"`
	View        string                `json:"view"`
	Filename    string                `json:"filename"`
	DurationMS  float64               `json:"duration_ms"`
	Fingerprint string                `json:"fingerprint_sha256,omitempty"`
	PointsTo    []Triple              `json:"points_to,omitempty"`
	Findings    []Finding             `json:"findings,omitempty"`
	Errors      int                   `json:"errors"`
	Warnings    int                   `json:"warnings"`
	Diagnostics []string              `json:"diagnostics,omitempty"`
	Metrics     *obsv.MetricsSnapshot `json:"metrics,omitempty"`
	Trace       *TraceSummary         `json:"trace,omitempty"`
	FlightDump  string                `json:"flight_dump,omitempty"`
	Error       string                `json:"error,omitempty"`
}

// QueryResponse is the body returned by /v1/query. A spooled flight dump
// is named by the X-Flight-Dump header and the access log.
type QueryResponse struct {
	RequestID  string  `json:"request_id"`
	Filename   string  `json:"filename"`
	DurationMS float64 `json:"duration_ms"`
	// CacheHit reports whether the parse came from the session cache.
	CacheHit bool                   `json:"cache_hit"`
	Results  []pointsto.QueryResult `json:"results,omitempty"`
	Metrics  *obsv.MetricsSnapshot  `json:"metrics,omitempty"`
	Error    string                 `json:"error,omitempty"`
}

// views are the /v1 routes, one per way renderView answers a request.
var views = []string{"analyze", "check", "race", "taint", "query"}

// reqTraceBuffer bounds the per-request tracer ring. One shard keeps the
// last N spans globally, which is what the flight dump renders.
const reqTraceBuffer = 2048

// handle builds the handler of one /v1 view. Every view takes the same
// path — decode, validate, queue for a slot, run — and differs only in how
// renderView turns the analysis into a response.
func (s *Server) handle(view string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.writeError(w, r, http.StatusMethodNotAllowed, "POST only")
			return
		}
		// A QueryRequest has every AnalyzeRequest key, so one decode serves
		// every view; the analysis views ignore the query keys.
		var req QueryRequest
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		if strings.TrimSpace(req.Source) == "" {
			s.writeError(w, r, http.StatusBadRequest, "empty source")
			return
		}
		if view == "query" && len(req.Queries) == 0 {
			s.writeError(w, r, http.StatusBadRequest, "no queries")
			return
		}
		if req.Filename == "" {
			req.Filename = "input.c"
		}

		// Queue for an analysis slot; a client that disconnects while
		// queued releases its goroutine instead of analyzing for no one.
		if err := s.pool.acquire(r.Context()); err != nil {
			s.writeError(w, r, http.StatusServiceUnavailable, "canceled while queued: "+err.Error())
			return
		}
		defer s.pool.release()

		status, resp, dump := s.run(RequestIDFrom(r.Context()), view, &req)
		s.writeJSON(w, r, status, resp, dump)
	}
}

// run answers one request inside its own observability scope: a private
// metrics registry (answered inline and merged into the server totals), a
// private tracer stamped with the request ID, and a private flight recorder
// spooled to a file named by the ID. It returns the status, the response
// body and the spooled dump's name ("" when nothing was spooled). Caller
// faults — a parse or simplify error, no main, a bad config, an
// unresolvable query — get 422; engine aborts — the step budget, a stall
// kill, a panic — get 500 and leave the dump.
func (s *Server) run(id, view string, req *QueryRequest) (int, any, string) {
	start := time.Now()
	resp := &AnalyzeResponse{RequestID: id, View: view, Filename: req.Filename}
	dump := s.spool.writer(id)
	cfg := s.config(view, req)
	cfg.Metrics = obsv.NewMetrics()
	cfg.Tracer = obsv.NewTracer(1, reqTraceBuffer)
	// The instant marker (not a span) is recorded immediately, so a flight
	// dump taken mid-run — the only time dumps happen — already carries the
	// request identity.
	cfg.Tracer.Instant(0, obsv.CatPhase, "request", id+" view="+view)
	cfg.Flight = obsv.NewFlightRecorder(dump)

	var (
		hit     bool
		results []pointsto.QueryResult
	)
	err := guard(func() error {
		prog, err, cached := s.parses.get(req.Filename, req.Source)
		hit = cached
		if err != nil {
			return err
		}
		a, err := s.analyze(prog, cfg, resp)
		if err != nil {
			return err
		}
		a.Source = req.Source // the taint client scans it for pragmas
		results, err = renderView(resp, a, req.Queries)
		return err
	})
	if spooled, cerr := dump.close(); spooled {
		resp.FlightDump = s.spool.dumpName(id)
	} else if cerr != nil {
		s.log.Error("flight spool", "request_id", id, "err", cerr)
	}
	status := http.StatusOK
	if err != nil {
		resp.Error = err.Error()
		status = errStatus(err)
	}
	resp.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	if view != "query" {
		return status, resp, resp.FlightDump
	}
	return status, &QueryResponse{
		RequestID: id, Filename: req.Filename, DurationMS: resp.DurationMS,
		CacheHit: hit, Results: results, Metrics: resp.Metrics, Error: resp.Error,
	}, resp.FlightDump
}

// analyze runs the engine. Whether the run finishes or unwinds, the
// request registry is complete for what happened: analyze answers with it
// and folds it into the server totals, so /metrics stays monotone. The
// check, race and taint views read this run's per-context annotations, so
// the registry covers all the engine work of the request.
func (s *Server) analyze(prog *simple.Program, cfg *pointsto.Config, resp *AnalyzeResponse) (a *pointsto.Analysis, err error) {
	defer func() {
		if a != nil {
			resp.Metrics = a.Metrics() // adds the trace counts the registry lacks
		} else {
			resp.Metrics = cfg.Metrics.Snapshot()
		}
		s.totals.Merge(resp.Metrics)
		resp.Trace = &TraceSummary{Spans: cfg.Tracer.Emitted(), Dropped: cfg.Tracer.Dropped()}
	}()
	return pointsto.AnalyzeProgram(prog, cfg)
}

// config builds a fresh engine configuration for a request of view: the
// caller's knobs, with workers and the step budget clamped to the server's
// caps, and for the query view the demand its queries seed (unless the
// caller asks for the exhaustive oracle).
func (s *Server) config(view string, req *QueryRequest) *pointsto.Config {
	rc := req.Config
	if rc == nil {
		rc = &RequestConfig{}
	}
	cfg := &pointsto.Config{
		FnPtrStrategy:      rc.FnPtrStrategy,
		NoDefinite:         rc.NoDefinite,
		SingleArrayLoc:     rc.SingleArrayLoc,
		NoMemo:             rc.NoMemo,
		ContextInsensitive: rc.ContextInsensitive,
		Workers:            clampWorkers(rc.Workers, s.cfg.AnalysisWorkers),
		MaxSteps:           s.cfg.MaxSteps,
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = pta.DefaultMaxSteps
	}
	if rc.MaxSteps > 0 && rc.MaxSteps < cfg.MaxSteps {
		cfg.MaxSteps = rc.MaxSteps
	}
	if rc.StallWindowMS > 0 {
		cfg.StallWindow = time.Duration(rc.StallWindowMS) * time.Millisecond
		cfg.StallKill = rc.StallKill
	}
	if view == "query" {
		cfg.Demand, cfg.Queries = !req.Exhaustive, req.Queries
	}
	return cfg
}

// panicError is a panic recovered from the engine or a client.
type panicError struct{ v any }

func (e panicError) Error() string { return fmt.Sprintf("analysis panicked: %v", e.v) }

// guard runs f behind a panic barrier: the engine dumps the flight record
// on its way out of a panic and rethrows, and a daemon must turn that into
// a failed request, not a dead process.
func guard(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = panicError{v}
		}
	}()
	return f()
}

// errStatus is the status of a failed request: an engine abort is the
// server's fault, anything else the request's.
func errStatus(err error) int {
	var abort *pta.AbortError
	var panicked panicError
	if errors.As(err, &abort) || errors.As(err, &panicked) {
		return http.StatusInternalServerError
	}
	return http.StatusUnprocessableEntity
}

// renderView fills the view-specific part of the response. The query view
// returns its answers, which only a QueryResponse carries.
func renderView(resp *AnalyzeResponse, a *pointsto.Analysis, queries []pointsto.Query) ([]pointsto.QueryResult, error) {
	if resp.View == "query" {
		return a.QueryAll(queries), nil
	}
	resp.Fingerprint = fingerprintSHA(a.Result)
	resp.Diagnostics = a.Diagnostics()
	switch resp.View {
	case "analyze":
		for _, t := range a.Result.MainOut.Triples() {
			if t.Dst.Kind == loc.Null {
				continue
			}
			resp.PointsTo = append(resp.PointsTo, Triple{
				Src: t.Src.Name(), Dst: t.Dst.Name(), Definite: bool(t.Def),
			})
		}
	case "check":
		diags, err := a.Check()
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			resp.Findings = append(resp.Findings, Finding{Severity: d.Sev.String(), Message: d.String()})
			count(resp, d.Sev == check.Error)
		}
	case "race":
		diags, err := a.Races()
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			resp.Findings = append(resp.Findings, Finding{Severity: d.Sev.String(), Message: d.String()})
			count(resp, d.Sev == race.Error)
		}
	case "taint":
		diags, err := a.Taint()
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			resp.Findings = append(resp.Findings, Finding{Severity: d.Sev.String(), Message: d.String()})
			count(resp, d.Sev == taint.Error)
		}
	}
	return nil, nil
}

func count(resp *AnalyzeResponse, isError bool) {
	if isError {
		resp.Errors++
	} else {
		resp.Warnings++
	}
}

// fingerprintSHA hashes the canonical result fingerprint; two analyses
// agree on every reported fact iff these digests are equal, and a digest
// travels in a JSON response where the multi-kilobyte fingerprint cannot.
func fingerprintSHA(res *pta.Result) string {
	sum := sha256.Sum256([]byte(pta.Fingerprint(res)))
	return hex.EncodeToString(sum[:])
}

func clampWorkers(requested, cap int) int {
	if cap <= 0 {
		cap = 1
	}
	if requested <= 0 || requested > cap {
		return cap
	}
	return requested
}
