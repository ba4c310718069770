// mccat-pta is the analysis driver: it parses a C file (or a named builtin
// benchmark), runs the context-sensitive points-to analysis, and prints the
// requested views — points-to sets, the simplified program, the invocation
// graph, pointer replacements or alias pairs.
//
// Usage:
//
//	mccat-pta [flags] file.c
//	mccat-pta [flags] -bench hash
//
// Flags:
//
//	-pts       print the points-to set at the exit of main (default)
//	-simple    print the SIMPLE intermediate representation
//	-dot       print the invocation graph in Graphviz DOT form
//	-replace   print indirect references replaceable via definite info
//	-alias     print alias pairs implied at main's exit (depth 2)
//	-stats     print invocation graph and analysis statistics (steps,
//	           memoization hit rate, peak set size, lock contention)
//	-workers N worker pool size (0 = GOMAXPROCS, 1 = serial; results are
//	           bit-identical for every worker count)
//	-check     run the memory-safety checker (NULL/uninit deref, UAF, dangling)
//	-race      run the lockset-based data-race detector over pthread threads
//	-taint     run the context-sensitive taint analysis (sources -> sinks)
//	-exit-code exit 1 when -check/-race/-taint report any error-level diagnostic
//	-modref    print per-function MOD/REF accesses with source positions
//	-fnptr S   function pointer strategy: precise|addr-taken|all
//	-ci        context-insensitive ablation
//	-nodef     disable definite relationships
//	-demand    demand-driven, liveness-pruned mode: the fixpoint keeps
//	           facts only for live-and-demanded pointers; the demand is
//	           derived from the enabled clients (-check/-race/-taint) and
//	           the -query flags, and the reported facts are bit-identical
//	           to the exhaustive run's
//	-query Q   answer the points-to query "file:line[:col]:var" after the
//	           run (repeatable; in -demand mode queries also seed the
//	           demand)
//
// Observability flags:
//
//	-metrics        print the full metrics report (engine counters, memo hit
//	                rate, set-cardinality distribution, per-function cost
//	                table)
//	-metrics-out F  write the metrics snapshot to F as JSON
//	-trace F        record a structured execution trace and write it to F as
//	                Chrome trace_event JSON (open in ui.perfetto.dev)
//	-trace-jsonl F  write the trace to F as a JSON-lines stream instead
//	-trace-buf N    per-shard trace ring capacity in events (drop-oldest)
//	-cpuprofile F   write a CPU profile of the run to F
//	-memprofile F   write a heap profile at exit to F
//	-debug-addr A   serve net/http/pprof AND a live Prometheus /metrics
//	                endpoint on A (e.g. localhost:6060) — an in-flight
//	                analysis can be scraped mid-run
//	-flight F       write the flight record (last spans, progress samples)
//	                to F after the run; on a panic, step-budget blowout or
//	                stall the record is dumped to stderr automatically
//	-no-flight      disable the always-on flight recorder
//	-watchdog D     arm the stall watchdog: after D without step progress,
//	                dump goroutine stacks plus the flight record to stderr
//	-watchdog-kill  make a detected stall abort the analysis
//	-max-steps N    basic-statement evaluation budget (0 = engine default;
//	                negative is a usage error)
//	-log-json       write stderr diagnostics as JSON log lines
//	-log-level L    stderr log level: debug|info|warn|error
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"repro/internal/alias"
	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/deptest"
	"repro/internal/obsv"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/loc"
	"repro/internal/race"
	"repro/internal/report"
	"repro/pointsto"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fatalErr unwinds run() to its top-level recover with exit code 1.
type fatalErr struct{ err error }

func fatal(err error) {
	panic(fatalErr{err})
}

// run is the driver body, separated from main so tests can exercise the CLI
// end to end with captured output and exit codes.
func run(argv []string, stdout, stderr io.Writer) (code int) {
	// logger is set right after flag parsing; the recover falls back to a
	// plain print for failures before that point.
	var logger *slog.Logger
	defer func() {
		if r := recover(); r != nil {
			fe, ok := r.(fatalErr)
			if !ok {
				panic(r)
			}
			if logger != nil {
				logger.Error("fatal", "err", fe.err)
			} else {
				fmt.Fprintln(stderr, "mccat-pta:", fe.err)
			}
			code = 1
		}
	}()

	fs := flag.NewFlagSet("mccat-pta", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "", "analyze the named builtin benchmark instead of a file")
		doPts     = fs.Bool("pts", false, "print the points-to set at main's exit")
		doSimple  = fs.Bool("simple", false, "print the SIMPLE IR")
		doDot     = fs.Bool("dot", false, "print the invocation graph as DOT")
		doRepl    = fs.Bool("replace", false, "print pointer replacement opportunities")
		doAlias   = fs.Bool("alias", false, "print implied alias pairs")
		doStats   = fs.Bool("stats", false, "print invocation graph statistics")
		doConst   = fs.Bool("const", false, "run constant propagation over the points-to results")
		doConn    = fs.Bool("conn", false, "run the heap connection analysis")
		doCheck   = fs.Bool("check", false, "run the memory-safety checker")
		doRace    = fs.Bool("race", false, "run the data-race detector")
		doTaint   = fs.Bool("taint", false, "run the context-sensitive taint analysis")
		exitCode  = fs.Bool("exit-code", false, "exit 1 when any checker reports an error-level diagnostic")
		doModRef  = fs.Bool("modref", false, "print per-function MOD/REF accesses with positions")
		doDep     = fs.Bool("dep", false, "run array dependence testing over the loops")
		fnptr     = fs.String("fnptr", "precise", "function pointer strategy: precise|addr-taken|all")
		ci        = fs.Bool("ci", false, "context-insensitive ablation")
		nodef     = fs.Bool("nodef", false, "disable definite relationships")
		workers   = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
		demand    = fs.Bool("demand", false, "demand-driven, liveness-pruned analysis mode")

		doMetrics  = fs.Bool("metrics", false, "print the full metrics report")
		metricsOut = fs.String("metrics-out", "", "write the metrics snapshot to this file as JSON")
		traceOut   = fs.String("trace", "", "write a Chrome trace_event JSON execution trace to this file")
		traceJSONL = fs.String("trace-jsonl", "", "write a JSON-lines execution trace to this file")
		traceBuf   = fs.Int("trace-buf", 0, "per-shard trace ring capacity in events (0 = default)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile at exit to this file")
		debugAddr  = fs.String("debug-addr", "", "serve net/http/pprof and a live /metrics endpoint on this address")
		flightOut  = fs.String("flight", "", "write the flight record to this file after the run")
		noFlight   = fs.Bool("no-flight", false, "disable the always-on flight recorder")
		watchdog   = fs.Duration("watchdog", 0, "stall watchdog window (0 disables)")
		wdKill     = fs.Bool("watchdog-kill", false, "abort the analysis when the watchdog detects a stall")
		maxSteps   = fs.Int("max-steps", 0, "basic-statement evaluation budget (0 = engine default)")
		logJSON    = fs.Bool("log-json", false, "write stderr diagnostics as JSON log lines")
		logLevel   = fs.String("log-level", "info", "stderr log level: debug|info|warn|error")
	)
	var queryFlags multiFlag
	fs.Var(&queryFlags, "query", "answer the points-to query \"file:line[:col]:var\" (repeatable)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *maxSteps < 0 {
		fmt.Fprintln(stderr, "mccat-pta: -max-steps must not be negative")
		return 2
	}
	lg, err := obsv.NewLogger(stderr, obsv.LogOptions{JSON: *logJSON, Level: *logLevel})
	if err != nil {
		fmt.Fprintln(stderr, "mccat-pta:", err)
		return 2
	}
	logger = lg

	var name, src string
	switch {
	case *benchName != "":
		s, err := bench.Source(*benchName)
		if err != nil {
			fatal(err)
		}
		name, src = *benchName+".c", s
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		name, src = fs.Arg(0), string(data)
	default:
		fmt.Fprintln(stderr, "usage: mccat-pta [flags] file.c | -bench name")
		fs.PrintDefaults()
		return 2
	}

	prof, err := obsv.StartProfiles(*cpuprofile, *memprofile, *debugAddr)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil && code == 0 {
			logger.Error("profile shutdown", "err", err)
			code = 1
		}
	}()

	// The live registry exists before the analysis starts so a -debug-addr
	// scraper sees counters advance mid-run rather than a 503 until the end.
	liveMetrics := obsv.NewMetrics()
	if *debugAddr != "" {
		obsv.ServeMetrics(liveMetrics.Snapshot)
	}
	var flight *obsv.FlightRecorder
	if !*noFlight {
		flight = obsv.NewFlightRecorder(stderr)
	}
	var tracer *obsv.Tracer
	if *traceOut != "" || *traceJSONL != "" {
		tracer = obsv.NewTracer(0, *traceBuf)
	}

	queries := make([]pointsto.Query, len(queryFlags))
	for i, q := range queryFlags {
		pq, err := pointsto.ParseQuery(q)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		queries[i] = pq
	}
	var demandClients []string
	if *demand {
		for _, c := range []struct {
			on   bool
			name string
		}{{*doCheck, "check"}, {*doRace, "race"}, {*doTaint, "taint"}} {
			if c.on {
				demandClients = append(demandClients, c.name)
			}
		}
	}

	cfg := &pointsto.Config{
		FnPtrStrategy:      *fnptr,
		ContextInsensitive: *ci,
		NoDefinite:         *nodef,
		Workers:            *workers,
		Demand:             *demand,
		Queries:            queries,
		DemandClients:      demandClients,
		Tracer:             tracer,
		MaxSteps:           *maxSteps,
		Metrics:            liveMetrics,
		Flight:             flight,
		StallWindow:        *watchdog,
		StallKill:          *wdKill,
	}
	a, err := pointsto.AnalyzeSource(name, src, cfg)
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		writeFileWith(*traceOut, a.WriteChromeTrace)
	}
	if *traceJSONL != "" {
		writeFileWith(*traceJSONL, a.WriteTraceJSONL)
	}
	if *flightOut != "" {
		if flight == nil {
			fatal(fmt.Errorf("-flight needs the flight recorder (drop -no-flight)"))
		}
		writeFileWith(*flightOut, func(w io.Writer) error {
			return flight.Dump(w, "end of run")
		})
	}
	if *metricsOut != "" {
		writeFileWith(*metricsOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(a.Metrics())
		})
	}

	any := false
	hadErrors := false
	if *doSimple {
		a.WriteSimple(stdout)
		any = true
	}
	if *doDot {
		a.WriteInvocationGraph(stdout)
		any = true
	}
	if *doStats {
		st := a.InvocationGraphStats()
		fmt.Fprintf(stdout, "ig nodes %d, call sites %d, functions %d, recursive %d, approximate %d, threads %d\n",
			st.Nodes, st.CallSites, st.Functions, st.Recursive, st.Approximate, st.Threads)
		fmt.Fprintf(stdout, "avg nodes/call-site %.2f, avg nodes/function %.2f\n",
			st.AvgPerCallSite(), st.AvgPerFunction())
		m := a.Metrics()
		fmt.Fprintf(stdout, "workers %d, steps %d, peak set %d\n", a.Result.Workers, m.Steps, m.PeakSet)
		fmt.Fprintf(stdout, "memo: %d hits / %d misses (%.1f%% hit rate)\n",
			m.MemoHits, m.MemoMisses, 100*m.MemoHitRate)
		fmt.Fprintf(stdout, "set cardinality: p50 %d, p90 %d, max %d\n",
			m.Cardinality.P50, m.Cardinality.P90, m.Cardinality.Max)
		fmt.Fprintf(stdout, "sched: %d tasks, %d steals\n", m.SchedTasks, m.SchedSteals)
		fmt.Fprintf(stdout, "locks: loc %d contended\n", m.LocContended)
		if m.TraceDropped > 0 {
			fmt.Fprintf(stdout, "trace: %d events dropped by ring overflow (raise -trace-buf)\n", m.TraceDropped)
		}
		any = true
	}
	if *doMetrics {
		report.WriteMetrics(stdout, a.Metrics())
		any = true
	}
	if *doRepl {
		for _, r := range a.Replacements() {
			fmt.Fprintln(stdout, r)
		}
		any = true
	}
	if *doAlias {
		fmt.Fprintln(stdout, alias.Format(a.AliasPairs(2)))
		any = true
	}
	if *doConst {
		report.WriteConstants(stdout, a.ConstantPropagation())
		any = true
	}
	if *doDep {
		dp := deptest.Run(a.Result)
		fmt.Fprintln(stdout, dp.Summary())
		for _, l := range dp.SortedLoops() {
			if len(l.Pairs) == 0 {
				continue
			}
			disj, sub, dep, unk := l.Counts()
			fmt.Fprintf(stdout, "  %s %s (trip %d, admissible %v): disjoint %d, indep-subscript %d, dependent %d, unknown %d\n",
				l.Fn.Name(), l.Loop.Pos, l.Trip, l.Admissible, disj, sub, dep, unk)
		}
		any = true
	}
	if *doConn {
		report.WriteConnections(stdout, a.HeapConnections())
		any = true
	}
	if *doCheck {
		diags, err := a.Check()
		if err != nil {
			fatal(err)
		}
		report.WriteDiags(stdout, diags)
		report.WriteDiagSummary(stdout, diags)
		for _, d := range diags {
			if d.Sev == check.Error {
				hadErrors = true
			}
		}
		any = true
	}
	if *doRace {
		diags, err := a.Races()
		if err != nil {
			fatal(err)
		}
		report.WriteRaceDiags(stdout, diags)
		report.WriteRaceDiagSummary(stdout, diags)
		for _, d := range diags {
			if d.Sev == race.Error {
				hadErrors = true
			}
		}
		any = true
	}
	if *doTaint {
		diags, err := a.Taint()
		if err != nil {
			fatal(err)
		}
		report.WriteTaintDiags(stdout, diags)
		report.WriteTaintDiagSummary(stdout, diags)
		if errs, _ := report.TaintDiagCounts(diags); errs > 0 {
			hadErrors = true
		}
		any = true
	}
	if *doModRef {
		printModRef(stdout, a)
		any = true
	}
	if len(queries) > 0 {
		for _, r := range a.QueryAll(queries) {
			if r.Err != "" {
				fmt.Fprintf(stdout, "query %s %s: %s\n", r.Pos, r.Var, r.Err)
				hadErrors = true
				continue
			}
			parts := make([]string, len(r.Targets))
			for i, t := range r.Targets {
				parts[i] = t.String()
			}
			fmt.Fprintf(stdout, "query %s %s -> %s\n", r.Pos, r.Var, strings.Join(parts, " "))
		}
		any = true
	}
	if *demand {
		m := a.Metrics()
		var liveP50 int64
		if m.LiveVars != nil {
			liveP50 = m.LiveVars.P50
		}
		fmt.Fprintf(stdout, "demand: %d facts kept at seeded statements, %d pruned, live vars p50 %d\n",
			m.DemandFactsKept, m.FactsPruned, liveP50)
		any = true
	}
	if *doPts || !any {
		printPts(stdout, a)
	}
	for _, d := range a.Diagnostics() {
		logger.Info("note", "msg", d)
	}
	if *exitCode && hadErrors {
		return 1
	}
	return 0
}

// printModRef renders the MOD/REF summary and positioned access records of
// the first invocation-graph node of each function, in graph walk order.
func printModRef(w io.Writer, a *pointsto.Analysis) {
	mr := a.ModRef()
	seen := make(map[string]bool)
	a.Result.Graph.Walk(func(n *invgraph.Node) {
		name := n.Fn.Name()
		if seen[name] {
			return
		}
		seen[name] = true
		fmt.Fprintf(w, "%s:\n", name)
		fmt.Fprintf(w, "  MOD: %s\n", locNames(mr.ModOf(n)))
		fmt.Fprintf(w, "  REF: %s\n", locNames(mr.RefOf(n)))
		for _, acc := range mr.Accesses(n) {
			fmt.Fprintf(w, "  %s\n", acc)
		}
	})
}

func locNames(ls []*loc.Location) string {
	if len(ls) == 0 {
		return "{}"
	}
	names := make([]string, len(ls))
	for i, l := range ls {
		names[i] = l.Name()
	}
	return "{" + strings.Join(names, ", ") + "}"
}

func printPts(w io.Writer, a *pointsto.Analysis) {
	fmt.Fprintln(w, "points-to set at exit of main (NULL targets omitted):")
	for _, t := range a.Result.MainOut.Triples() {
		if t.Dst.Kind == loc.Null {
			continue
		}
		fmt.Fprintf(w, "  (%s, %s, %s)\n", t.Src.Name(), t.Dst.Name(), t.Def)
	}
}

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := fn(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// multiFlag collects the values of a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
