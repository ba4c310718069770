// Package perf times the points-to analysis over the benchmark suite in
// its serial, parallel and unmemoized configurations and emits the
// machine-readable report committed as BENCH_pta.json. It lives outside
// internal/bench because it depends on internal/pta, whose tests load the
// benchmark programs.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/obsv"
	"repro/internal/pta"
	"repro/internal/report"
	"repro/internal/simple"
	"repro/internal/taint"
)

// PerfProgram is the performance record of one benchmark program: wall
// times of the serial, parallel and unmemoized analyses, the memoization
// counters, and the cross-check that all three variants produced
// byte-identical results.
type PerfProgram struct {
	Name  string `json:"name"`
	Steps int    `json:"steps"` // basic-statement evaluations (memoized)

	// Wall times in milliseconds (best of Repeats runs).
	WallSerialMS   float64 `json:"wall_serial_ms"`
	WallParallelMS float64 `json:"wall_parallel_ms"`
	WallNoMemoMS   float64 `json:"wall_nomemo_ms"`

	// Memoization: input-keyed summary-cache activity of the serial run.
	MemoHits    int     `json:"memo_hits"`
	MemoMisses  int     `json:"memo_misses"`
	MemoHitRate float64 `json:"memo_hit_rate"`

	// PeakSetLen is the largest points-to set flowing into any statement.
	PeakSetLen int `json:"peak_set_len"`

	// Engine metrics of the serial run (from Result.Metrics): the
	// points-to set cardinality distribution over statements and the
	// invocation-graph evaluation effort.
	CardP50         int64 `json:"card_p50"`
	CardP90         int64 `json:"card_p90"`
	CardMax         int64 `json:"card_max"`
	NodeEvals       int64 `json:"node_evals"`
	FixpointIters   int64 `json:"fixpoint_iters"`
	PendingRestarts int64 `json:"pending_restarts"`

	// SpeedupMemo is the memoization speedup (unmemoized / memoized wall
	// time, both serial); SpeedupParallel is serial / parallel wall time.
	SpeedupMemo     float64 `json:"speedup_memo"`
	SpeedupParallel float64 `json:"speedup_parallel"`

	// Identical reports that the serial, parallel and unmemoized analyses
	// produced byte-identical canonical results.
	Identical bool `json:"identical"`

	// Taint-analysis diagnostic counts from a separate per-context run
	// (the timing runs above skip RecordContexts).
	TaintErrors   int `json:"taint_errors"`
	TaintWarnings int `json:"taint_warnings"`

	// Demand-mode comparison: a check-seeded, liveness-pruned run against
	// the exhaustive oracle. FactsExhaustive/FactsDemand count the
	// annotation triples each run kept; FactsPruned counts the triples the
	// demand run dropped at recording time; DemandIdentical reports that
	// both runs produced the same checker diagnostics.
	WallDemandMS    float64 `json:"wall_demand_ms"`
	FactsExhaustive int     `json:"facts_exhaustive"`
	FactsDemand     int     `json:"facts_demand"`
	FactsPruned     int64   `json:"facts_pruned"`
	LiveVarsP50     int64   `json:"live_vars_p50"`
	DemandIdentical bool    `json:"demand_identical"`
}

// PerfReport is the machine-readable performance report (BENCH_pta.json).
type PerfReport struct {
	Workers    int           `json:"workers"` // pool size of the parallel runs
	GOMAXPROCS int           `json:"gomaxprocs"`
	Repeats    int           `json:"repeats"` // timing runs per variant (best kept)
	Host       HostInfo      `json:"host"`
	Programs   []PerfProgram `json:"programs"`
}

// RunPerf analyzes the named benchmark programs (all of them when names is
// empty) three ways — serial memoized, parallel memoized, serial unmemoized
// — timing each with Repeats repetitions, and cross-checks that all
// variants agree byte-for-byte.
func RunPerf(names []string, workers, repeats int) (*PerfReport, error) {
	if len(names) == 0 {
		names = bench.Names()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if repeats <= 0 {
		repeats = 3
	}
	rep := &PerfReport{Workers: workers, GOMAXPROCS: runtime.GOMAXPROCS(0), Repeats: repeats, Host: CurrentHost()}
	for _, name := range names {
		prog, err := bench.Load(name)
		if err != nil {
			return nil, err
		}
		p := PerfProgram{Name: name}

		serial, wall, err := timeAnalysis(prog, pta.Options{Workers: 1}, repeats)
		if err != nil {
			return nil, fmt.Errorf("%s serial: %w", name, err)
		}
		p.WallSerialMS = wall
		sm := serial.Metrics
		p.Steps = int(sm.Steps)
		p.MemoHits, p.MemoMisses = int(sm.MemoHits), int(sm.MemoMisses)
		p.MemoHitRate = sm.MemoHitRate
		p.PeakSetLen = int(sm.PeakSet)
		if m := serial.Metrics; m != nil {
			p.CardP50 = m.Cardinality.P50
			p.CardP90 = m.Cardinality.P90
			p.CardMax = m.Cardinality.Max
			p.NodeEvals = m.NodeEvals
			p.FixpointIters = m.FixpointIters
			p.PendingRestarts = m.PendingRestarts
		}

		parallel, wall, err := timeAnalysis(prog, pta.Options{Workers: workers}, repeats)
		if err != nil {
			return nil, fmt.Errorf("%s parallel: %w", name, err)
		}
		p.WallParallelMS = wall

		nomemo, wall, err := timeAnalysis(prog, pta.Options{Workers: 1, NoMemo: true}, repeats)
		if err != nil {
			return nil, fmt.Errorf("%s nomemo: %w", name, err)
		}
		p.WallNoMemoMS = wall

		if p.WallSerialMS > 0 {
			p.SpeedupMemo = p.WallNoMemoMS / p.WallSerialMS
		}
		if p.WallParallelMS > 0 {
			p.SpeedupParallel = p.WallSerialMS / p.WallParallelMS
		}
		fp := pta.Fingerprint(serial)
		p.Identical = fp == pta.Fingerprint(parallel) && fp == pta.Fingerprint(nomemo)

		ctxRes, err := pta.Analyze(prog, pta.Options{Workers: workers, RecordContexts: true})
		if err != nil {
			return nil, fmt.Errorf("%s contexts: %w", name, err)
		}
		tdiags, err := taint.Run(ctxRes, nil)
		if err != nil {
			return nil, fmt.Errorf("%s taint: %w", name, err)
		}
		p.TaintErrors, p.TaintWarnings = report.TaintDiagCounts(tdiags)

		// Demand run seeded for the pointer checker, timed against the
		// exhaustive serial run above. The exhaustive fact count comes from
		// that serial run; equivalence is judged on checker diagnostics.
		demand, wall, err := timeAnalysis(prog,
			pta.Options{Workers: 1, Demand: check.DemandSeeds(prog), RecordContexts: true}, repeats)
		if err != nil {
			return nil, fmt.Errorf("%s demand: %w", name, err)
		}
		p.WallDemandMS = wall
		p.FactsExhaustive = serial.Annots.TotalFacts()
		p.FactsDemand = demand.Annots.TotalFacts()
		p.FactsPruned = demand.Metrics.FactsPruned
		if lv := demand.Metrics.LiveVars; lv != nil {
			p.LiveVarsP50 = lv.P50
		}
		exDiags, err := check.Run(ctxRes)
		if err != nil {
			return nil, fmt.Errorf("%s check: %w", name, err)
		}
		dmDiags, err := check.Run(demand)
		if err != nil {
			return nil, fmt.Errorf("%s demand check: %w", name, err)
		}
		p.DemandIdentical = fmt.Sprint(exDiags) == fmt.Sprint(dmDiags)

		rep.Programs = append(rep.Programs, p)
	}
	return rep, nil
}

// timeAnalysis runs the analysis repeats times and returns the last result
// with the best (minimum) wall time in milliseconds.
func timeAnalysis(prog *simple.Program, opts pta.Options, repeats int) (*pta.Result, float64, error) {
	var res *pta.Result
	best := 0.0
	for i := 0; i < repeats; i++ {
		start := time.Now()
		r, err := pta.Analyze(prog, opts)
		if err != nil {
			return nil, 0, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if i == 0 || ms < best {
			best = ms
		}
		res = r
	}
	return res, best, nil
}

// TracePrograms analyzes each named benchmark (all when names is empty)
// once with tracing enabled and returns the per-program event groups, ready
// for obsv.WriteChromeTraceProcs — the whole suite renders as one Perfetto
// trace with one process per program.
func TracePrograms(names []string, workers int) ([]obsv.Process, error) {
	if len(names) == 0 {
		names = bench.Names()
	}
	var procs []obsv.Process
	for i, name := range names {
		prog, err := bench.Load(name)
		if err != nil {
			return nil, err
		}
		tr := obsv.NewTracer(0, 0)
		if _, err := pta.Analyze(prog, pta.Options{Workers: workers, Tracer: tr}); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		procs = append(procs, obsv.Process{Pid: i + 1, Name: name, Events: tr.Events()})
	}
	return procs, nil
}

// ExplainDivergence re-analyzes one benchmark under the serial, parallel and
// unmemoized configurations and renders a human-readable report of how they
// differ: the first diverging fingerprint lines and the per-function cost
// tables of the disagreeing variants. Used by ptabench -verify to turn a
// bare "results diverge" failure into something debuggable.
func ExplainDivergence(w io.Writer, name string, workers int) error {
	prog, err := bench.Load(name)
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	variants := []struct {
		label string
		opts  pta.Options
	}{
		{"serial", pta.Options{Workers: 1}},
		{fmt.Sprintf("parallel(%d)", workers), pta.Options{Workers: workers}},
		{"nomemo", pta.Options{Workers: 1, NoMemo: true}},
	}
	type run struct {
		label string
		fp    string
		res   *pta.Result
	}
	runs := make([]run, len(variants))
	for i, v := range variants {
		res, err := pta.Analyze(prog, v.opts)
		if err != nil {
			return fmt.Errorf("%s %s: %w", name, v.label, err)
		}
		runs[i] = run{label: v.label, fp: pta.Fingerprint(res), res: res}
	}
	fmt.Fprintf(w, "divergence report for %s:\n", name)
	base := runs[0]
	for _, r := range runs[1:] {
		if r.fp == base.fp {
			fmt.Fprintf(w, "  %s == %s\n", base.label, r.label)
			continue
		}
		line, a, b := firstDiffLine(base.fp, r.fp)
		fmt.Fprintf(w, "  %s != %s, first difference at fingerprint line %d:\n", base.label, r.label, line)
		fmt.Fprintf(w, "    %-12s %s\n", base.label+":", a)
		fmt.Fprintf(w, "    %-12s %s\n", r.label+":", b)
		fmt.Fprintf(w, "  per-function cost, %s:\n", base.label)
		report.WriteCostTable(w, base.res.Metrics.Funcs, 10)
		fmt.Fprintf(w, "  per-function cost, %s:\n", r.label)
		report.WriteCostTable(w, r.res.Metrics.Funcs, 10)
	}
	return nil
}

// firstDiffLine returns the 1-based line number and the two lines where the
// fingerprints first disagree ("<end of output>" when one is a prefix of the
// other).
func firstDiffLine(a, b string) (int, string, string) {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		va, vb := "<end of output>", "<end of output>"
		if i < len(la) {
			va = la[i]
		}
		if i < len(lb) {
			vb = lb[i]
		}
		if va != vb {
			return i + 1, va, vb
		}
	}
	return 0, "", ""
}

// WriteJSON emits the report as indented JSON.
func (r *PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the report as an aligned text table.
func (r *PerfReport) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "points-to analysis performance (workers=%d, best of %d runs)\n\n", r.Workers, r.Repeats)
	fmt.Fprintf(w, "%-11s %9s %9s %9s %9s %9s %7s %6s %11s %7s %5s\n",
		"program", "serial", "parallel", "nomemo", "demand", "steps", "memo%", "peak", "facts dm/ex", "taint", "ok")
	for _, p := range r.Programs {
		ok := p.Identical && p.DemandIdentical
		fmt.Fprintf(w, "%-11s %7.2fms %7.2fms %7.2fms %7.2fms %9d %6.1f%% %6d %11s %7s %5v\n",
			p.Name, p.WallSerialMS, p.WallParallelMS, p.WallNoMemoMS, p.WallDemandMS, p.Steps,
			100*p.MemoHitRate, p.PeakSetLen,
			fmt.Sprintf("%d/%d", p.FactsDemand, p.FactsExhaustive),
			fmt.Sprintf("%dE/%dW", p.TaintErrors, p.TaintWarnings), ok)
	}
}
