package pta

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cc/ast"
	"repro/internal/cc/types"
	"repro/internal/obsv"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/live"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// FnPtrStrategy selects how indirect call sites are resolved (paper §5 and
// §6's livc study).
type FnPtrStrategy int

// Function-pointer resolution strategies.
const (
	// Precise resolves an indirect call to the current points-to set of
	// the function pointer — the paper's algorithm (Figure 5).
	Precise FnPtrStrategy = iota
	// AddrTaken resolves every indirect call to all functions whose
	// address is taken somewhere in the program.
	AddrTaken
	// AllFuncs resolves every indirect call to every defined function.
	AllFuncs
)

// Options configures an analysis run; the zero value is the paper's
// algorithm.
type Options struct {
	FnPtr FnPtrStrategy

	// NoDefinite downgrades every generated relationship to possible and
	// disables strong updates — the "definite information" ablation.
	NoDefinite bool

	// SingleArrayLoc collapses the two-location array abstraction
	// (a_head/a_tail) into a single location per array — the array
	// abstraction ablation.
	SingleArrayLoc bool

	// NoMemo disables memoization of IN/OUT pairs on invocation graph
	// nodes (§4's advantage (3)) — the memoization ablation.
	NoMemo bool

	// ContextInsensitive merges the inputs from all call sites of a
	// function and analyzes each function against the merged input — the
	// context-sensitivity ablation (one summary per function instead of
	// one per invocation path). Implemented in ci.go.
	ContextInsensitive bool

	// ShareContexts enables the optimization the paper proposes as future
	// work in §6: a global per-function cache of (input, output) summary
	// pairs, so an invocation whose mapped input has already been analyzed
	// anywhere in the graph reuses the stored output instead of
	// re-analyzing the body (subtree sharing by memoization).
	ShareContexts bool

	// MaxSteps bounds the number of basic-statement evaluations as a
	// runaway guard (0 means DefaultMaxSteps).
	MaxSteps int

	// RecordContexts keeps, for every statement, the merged input per
	// invocation-graph node in addition to the global merge — required by
	// the check, race and taint clients to grade findings by calling
	// context. It costs memory: on the 3.9k-line generated program of
	// e2ebench's gen-check workload (one worker, 2-vCPU Xeon, Go 1.24) the
	// live heap after Analyze grows from 5.3 MB to 8.2 MB and the run
	// allocates 31 MB instead of 28 MB. The pointsto package turns it on
	// for every exhaustive analysis except ShareContexts ones.
	RecordContexts bool

	// Workers bounds how many goroutines evaluate independent invocation
	// subtrees (function-pointer fan-out targets and if/else branches) at
	// once. 0 means GOMAXPROCS; 1 forces fully serial evaluation. All
	// merges are performed in deterministic order, so results are
	// bit-identical to the serial analysis for every worker count. The
	// ShareContexts and ContextInsensitive variants are order-sensitive
	// global fixed points and always run serially.
	Workers int

	// Tracer, when non-nil, receives hierarchical spans for invocation-
	// graph node evaluations, map/unmap operations, basic-statement
	// transfers, fixed-point iterations and spare-worker fan-out branches,
	// and Result.Metrics reports its ring accounting (TraceEmitted,
	// TraceDropped). Tracing is purely observational: results are
	// bit-identical with and without it (enforced by the determinism guard
	// tests), and a nil tracer costs one pointer check per hook.
	Tracer *obsv.Tracer

	// Metrics, when non-nil, supplies the live registry the run reports
	// through instead of a private one, so an in-flight analysis can be
	// scraped (obsv.WritePrometheus / the /metrics endpoint). The registry
	// must be fresh per run: counters accumulate and hit rates would blend
	// runs otherwise.
	Metrics *obsv.Metrics

	// Flight, when non-nil, attaches the always-on flight recorder: the
	// last-N spans and the run monitor's progress samples are kept in
	// bounded buffers and dumped to the recorder's writer when the run
	// panics, exceeds its step budget, or stalls. Like tracing, the
	// recorder never changes analysis results.
	Flight *obsv.FlightRecorder

	// StallWindow, when positive, makes the run monitor watch the Steps
	// counter: after StallWindow without progress it emits a warning
	// event, writes goroutine stacks plus the flight record to the
	// recorder's writer (os.Stderr without a recorder), and with StallKill
	// aborts the run deterministically through the step-budget unwind.
	StallWindow time.Duration

	// StallKill makes a detected stall abort the analysis (the run returns
	// an error) instead of only reporting it.
	StallKill bool

	// Demand, when non-nil, switches the engine to demand-driven mode:
	// a backward liveness pass (package live) is computed from these
	// client-registered seeds, the set flowing into each statement is
	// pruned of facts whose source variable is dead there, and
	// annotations are recorded only at seeded statements. Every fact of
	// a live (or pinned) variable is bit-identical to the exhaustive
	// engine's; facts of dead variables are simply absent. Exhaustive
	// mode (nil) remains the default and the correctness oracle.
	Demand *live.Seeds
}

// DefaultMaxSteps is the step budget of a run that sets no MaxSteps.
const DefaultMaxSteps = 50_000_000

// Result is the outcome of an analysis.
type Result struct {
	Prog  *simple.Program
	Table *loc.Table
	Graph *invgraph.Graph
	Opts  Options

	// Annots holds the merged points-to set flowing into every basic
	// statement, across all analyzed calling contexts.
	Annots *Annotations

	// MainOut is the points-to set at the exit of main.
	MainOut ptset.Set

	// Diags collects non-fatal analysis diagnostics (unresolved function
	// pointers, calls to unknown externals with pointer results, …).
	Diags []string

	// Metrics is the full metrics snapshot of the run: counters (steps,
	// memo and shared-summary hits, map/unmap, fixed-point activity,
	// location-table contention), the points-to set cardinality histogram,
	// and the per-function cost table. Serial and parallel runs report
	// through this one registry.
	Metrics *obsv.MetricsSnapshot

	// Workers is the effective worker count the analysis ran with.
	Workers int

	// Live is the liveness information the run pruned against; nil in
	// exhaustive mode.
	Live *live.Info
}

// Analyze runs the points-to analysis on a SIMPLE program.
func Analyze(prog *simple.Program, opts Options) (*Result, error) {
	return analyze(prog, opts, loc.NewTable(prog))
}

// analyze runs the analysis with locations interned in tab, a table made
// for prog. Tests pass one that already holds locations, to choose the
// IDs the run sees.
func analyze(prog *simple.Program, opts Options, tab *loc.Table) (*Result, error) {
	g, err := invgraph.Build(prog)
	if err != nil {
		return nil, err
	}
	m := opts.Metrics
	if m == nil {
		m = obsv.NewMetrics()
	}
	a := &analyzer{
		prog:   prog,
		tab:    tab,
		g:      g,
		opts:   opts,
		ann:    NewAnnotations(),
		m:      m,
		tracer: opts.Tracer,
		limit:  int64(opts.MaxSteps),
	}
	if a.limit == 0 {
		a.limit = DefaultMaxSteps
	}
	a.stepCeil.Store(a.limit)
	if opts.RecordContexts {
		a.ann.EnableContexts()
	}
	if opts.Demand != nil {
		a.live = live.Compute(prog, opts.Demand, live.Options{
			AllFuncs: opts.FnPtr == AllFuncs,
			NoKill:   opts.NoDefinite,
		})
	}
	if opts.ShareContexts {
		a.shared = make(map[*simple.Function][]invgraph.Summary)
	}
	if opts.Flight != nil {
		// The recorder returns the tracer the run must emit into: the full
		// tracer when one was requested, otherwise its own bounded ring.
		a.tracer = opts.Flight.Bind(a.m, a.tracer)
	}
	a.workers = effectiveWorkers(opts)
	if a.workers > 1 {
		a.spare = make(chan obsv.Track, a.workers-1)
		for i := 1; i < a.workers; i++ {
			a.spare <- a.tracer.NewTrack()
		}
	}
	res := &Result{Prog: prog, Table: a.tab, Graph: g, Opts: opts, Annots: a.ann, Live: a.live}

	err = a.run()
	// Count location-table contention into the registry even for an
	// aborted run, so a caller that snapshots the registry itself sees it.
	a.m.LocContended.Add(int64(a.tab.Stats().Contended))
	if err != nil {
		return nil, err
	}
	a.ann.finish()
	// Child order under parallel fan-out depends on scheduling; restore the
	// canonical (site, callee) order so graph renderings are deterministic.
	g.Canonicalize()
	// Diagnostics are emitted from whichever worker encounters them; sort
	// and deduplicate so serial and parallel runs report identically.
	sort.Strings(a.diags)
	res.Diags = slices.Compact(a.diags)
	res.MainOut = a.mainOut
	res.Workers = a.workers

	// Snapshot the metrics registry and fill in the part it cannot see:
	// the ring accounting of the caller's tracer. The flight recorder's
	// private ring is not a trace the caller asked for, so it is not
	// counted. Every caller — serial or parallel — reports through the one
	// registry.
	snap := a.m.Snapshot()
	if opts.Tracer.Enabled() {
		snap.TraceEmitted = int64(opts.Tracer.Emitted())
		snap.TraceDropped = int64(opts.Tracer.Dropped())
	}
	res.Metrics = snap
	return res, nil
}

// effectiveWorkers resolves Options.Workers: 0 defaults to GOMAXPROCS, and
// the order-sensitive global-fixed-point variants force serial evaluation.
func effectiveWorkers(opts Options) int {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if opts.ShareContexts || opts.ContextInsensitive {
		w = 1
	}
	return w
}

type analyzer struct {
	prog    *simple.Program
	tab     *loc.Table
	g       *invgraph.Graph
	opts    Options
	ann     *Annotations
	live    *live.Info // demand mode: pruning oracle (nil when exhaustive)
	diags   []string
	diagMu  sync.Mutex
	mainOut ptset.Set

	// limit is the configured step budget; stepCeil is the live ceiling
	// step() checks. They coincide until the run is aborted (see abort),
	// which records the run's one abort cause and drops the ceiling below
	// zero, so every worker's next step unwinds through stepsExceeded.
	limit    int64
	stepCeil atomic.Int64
	cause    atomic.Pointer[AbortError]

	// m is the metrics registry every counter of the run reports through
	// (steps, memoization, map/unmap, fixed points, set cardinality,
	// per-function cost); its instruments are atomic, so serial and
	// parallel runs share one path. tracer is nil unless span recording
	// was requested (Options.Tracer).
	m      *obsv.Metrics
	tracer *obsv.Tracer

	// Parallel fan-out (parallel.go): workers is the effective
	// parallelism; spare holds the workers-1 trace tracks a branch must
	// take to run on its own goroutine, and is nil when serial. recMu
	// serializes appends to recursion pending lists, which sibling
	// subtrees may share through an ancestor.
	workers int
	spare   chan obsv.Track
	recMu   sync.Mutex

	// Context-insensitive variant state.
	ci        map[*simple.Function]*ciSummary
	ciChanged bool

	// shared caches completed (input, output) summaries per function when
	// Options.ShareContexts is set.
	shared map[*simple.Function][]invgraph.Summary
}

func (a *analyzer) diagf(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	a.diagMu.Lock()
	a.diags = append(a.diags, s)
	a.diagMu.Unlock()
}

type stepsExceeded struct{}

// AbortError is the error of a run the engine cut short: it exceeded its
// step budget, or the run monitor killed it for stalling. An attached
// flight recorder has dumped its record by the time the error is returned.
type AbortError struct{ Reason string }

func (e *AbortError) Error() string { return "pta: analysis " + e.Reason }

func (a *analyzer) step() {
	if a.m.Steps.Inc() > a.stepCeil.Load() {
		panic(stepsExceeded{})
	}
}

// testWatchdogProgress, when set by a test, replaces the run monitor's
// progress source so a stall can be forced deterministically on an
// otherwise always-progressing analysis.
var testWatchdogProgress func() int64

// monitorPoll is how often the run monitor samples progress, unless a
// stall window needs a finer poll.
const monitorPoll = 250 * time.Millisecond

// startMonitor starts the run's one monitor goroutine when Options.Flight
// or Options.StallWindow is set, and returns the function that stops and
// joins it. Every poll samples progress into the flight recorder and
// reads the Steps counter; after StallWindow without progress the monitor
// reports the stall once (see reportStall) and re-arms when progress resumes.
// It polls every 250 ms, or every StallWindow/8 (at least 1 ms) when
// that is shorter, so a stall is reported within the window plus one poll.
func (a *analyzer) startMonitor() (stop func()) {
	window := a.opts.StallWindow
	if a.opts.Flight == nil && window <= 0 {
		return func() {}
	}
	poll := monitorPoll
	if window > 0 && window/8 < poll {
		poll = max(window/8, time.Millisecond)
	}
	progress := a.m.Steps.Load
	if testWatchdogProgress != nil {
		progress = testWatchdogProgress
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(poll)
		defer t.Stop()
		last, lastChange, fired := progress(), time.Now(), false
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			a.opts.Flight.Sample()
			v := progress()
			if v != last {
				last, lastChange, fired = v, time.Now(), false
				continue
			}
			if stalled := time.Since(lastChange); window > 0 && !fired && stalled >= window {
				fired = true
				a.reportStall(stalled, v)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// reportStall reports a stall: a warning trace event, then the stall
// report (goroutine stacks) and the flight record on the recorder's
// writer. With Options.StallKill it then aborts the run.
func (a *analyzer) reportStall(stalled time.Duration, steps int64) {
	a.tracer.Instant(0, obsv.CatPhase, "stall-watchdog", fmt.Sprintf("no progress for %s", stalled))
	obsv.WriteStallReport(a.opts.Flight.Writer(), stalled, steps)
	a.dumpFlight(fmt.Sprintf("stall after %s without progress", stalled))
	if a.opts.StallKill {
		a.abort(fmt.Sprintf("aborted by stall watchdog (no progress for %s)", a.opts.StallWindow))
	}
}

// abort records reason as the run's abort cause and drops the step
// ceiling below zero, so every worker unwinds at its next step and run
// returns the cause. Only the first abort of a run counts; abort reports
// whether this call was it.
func (a *analyzer) abort(reason string) bool {
	if !a.cause.CompareAndSwap(nil, &AbortError{Reason: reason}) {
		return false
	}
	a.stepCeil.Store(-1)
	return true
}

// dumpFlight writes the flight record for an abnormal end of run.
func (a *analyzer) dumpFlight(cause string) {
	a.opts.Flight.Dump(a.opts.Flight.Writer(), cause)
}

func (a *analyzer) run() (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(stepsExceeded); !ok {
			a.dumpFlight(fmt.Sprintf("panic: %v", r))
			panic(r)
		}
		// A stall kill recorded its cause before it dropped the ceiling;
		// any other unwind is the step budget running out.
		if a.abort(fmt.Sprintf("exceeded %d steps (non-terminating fixed point?)", a.limit)) {
			a.dumpFlight(fmt.Sprintf("steps exceeded (budget %d)", a.limit))
		}
		err = a.cause.Load()
	}()
	// The monitor watches the fixed point only: what Analyze does after
	// it takes no steps, and would read as a stall.
	stop := a.startMonitor()
	defer stop()

	// Initial environment: global pointers are NULL, then the synthesized
	// global initializers run.
	sp := a.tracer.Begin(0, obsv.CatPhase, "global-init", "")
	in := ptset.New()
	for _, gv := range a.prog.Globals {
		a.initNull(in, gv)
	}
	f := a.processStmt(a.prog.GlobalInit, in, a.g.Root, 0)
	entry := f.out.Clone() // f.out may be a recorded set: seed a copy
	sp.End()

	// Seed main's pointer parameters (argc/argv) with symbolic targets so
	// programs that traverse argv have something sound to point at.
	mainFn := a.prog.Main()
	for _, p := range mainFn.Params {
		if p.Type == nil {
			continue
		}
		depth := p.Type.PointerDepth()
		cur := a.tab.VarLoc(p, nil)
		t := p.Type
		for lvl := 1; lvl <= depth; lvl++ {
			t = pointeeType(t)
			sym := a.tab.SymLoc(mainFn, fmt.Sprintf("%d_%s", lvl, p.Name), nil, t)
			entry.Insert(cur, sym, ptset.P)
			cur = sym
		}
	}

	sp = a.tracer.Begin(0, obsv.CatPhase, "analysis", "")
	if a.opts.ContextInsensitive {
		a.runCI(mainFn, entry)
	} else {
		a.mainOut = a.processCallNode(a.g.Root, entry, 0)
	}
	sp.End()
	return nil
}

// BaseLoc is an exported (location, definiteness) pair for reporting code.
type BaseLoc struct {
	Loc *loc.Location
	Def ptset.Def
}

// EvalBaseLocs exposes the named base locations of a reference (the
// locations of r.Var with r.Path applied, before any dereference) for the
// statistics in package report.
func EvalBaseLocs(res *Result, r *simple.Ref) []BaseLoc {
	a := &analyzer{prog: res.Prog, tab: res.Table, opts: res.Opts}
	return baseLocs(a.evalBase(r.Var, r.Path))
}

// EvalLLocs exposes the L-location set of a reference under a given
// points-to set (Table 1) for follow-on analyses.
func EvalLLocs(res *Result, r *simple.Ref, in ptset.Set) []BaseLoc {
	a := &analyzer{prog: res.Prog, tab: res.Table, opts: res.Opts}
	return baseLocs(a.llocs(r, in))
}

// EvalRLocsOfRef exposes the R-location set of a reference used as an
// rvalue under a given points-to set.
func EvalRLocsOfRef(res *Result, r *simple.Ref, in ptset.Set) []BaseLoc {
	a := &analyzer{prog: res.Prog, tab: res.Table, opts: res.Opts}
	return baseLocs(a.rlocsOfRef(r, in))
}

// EvalRLocs exposes the R-location set of a basic statement's right-hand
// side under a given points-to set (used by the flow-insensitive baseline).
func EvalRLocs(res *Result, b *simple.Basic, in ptset.Set) []BaseLoc {
	a := &analyzer{prog: res.Prog, tab: res.Table, opts: res.Opts}
	return baseLocs(a.rlocs(b, in))
}

// baseLocs exports location pairs sorted by SortKey. The engine keeps them
// in derivation order, which follows location IDs and so the schedule.
func baseLocs(lds []locD) []BaseLoc {
	var out []BaseLoc
	for _, ld := range lds {
		out = append(out, BaseLoc{ld.l, ld.d})
	}
	slices.SortFunc(out, func(x, y BaseLoc) int { return loc.Compare(x.Loc, y.Loc) })
	return out
}

// NewShellResult builds a Result without running the full analysis: a
// program plus a fresh location table, so baseline analyses can reuse the
// reference evaluators and the reporting machinery with their own
// annotations.
func NewShellResult(prog *simple.Program, opts Options) *Result {
	return &Result{
		Prog:   prog,
		Table:  loc.NewTable(prog),
		Opts:   opts,
		Annots: NewAnnotations(),
	}
}

func pointeeType(t *types.Type) *types.Type {
	if t == nil {
		return nil
	}
	d := t.Decay()
	if d.Kind == types.Pointer {
		return d.Elem
	}
	return nil
}

// initNull inserts the NULL-initialization relationships for every
// pointer-carrying location of obj (paper: "we initialize all pointers to
// NULL"). Locations that stand for more than one real location (array
// tails) get only a possible relationship.
func (a *analyzer) initNull(s ptset.Set, obj *ast.Object) {
	if obj.Type == nil || !obj.Type.HasPointers() {
		return
	}
	for _, path := range loc.PointerPaths(obj.Type) {
		l := a.tab.VarLoc(obj, path)
		d := ptset.D
		if l.Multi() {
			d = ptset.P
		}
		s.Insert(l, a.tab.NullLoc(), d)
	}
}
