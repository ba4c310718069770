// Package pointsto is the public API of the reproduction of Emami, Ghiya &
// Hendren, "Context-Sensitive Interprocedural Points-to Analysis in the
// Presence of Function Pointers" (PLDI 1994).
//
// It wraps the full pipeline — C-subset frontend, SIMPLE simplifier,
// points-to analysis with invocation graphs and function-pointer handling —
// behind a small surface:
//
//	a, err := pointsto.AnalyzeSource("prog.c", src, nil)
//	targets := a.PointsTo("main", "p")   // e.g. [{x D}]
//	a.WriteInvocationGraph(os.Stdout)    // Graphviz DOT
//
// For lower-level access (per-statement annotations, the location table,
// baseline analyses) use the internal packages via the fields of Analysis.
package pointsto

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/alias"
	"repro/internal/cc/ast"
	"repro/internal/cc/parser"
	"repro/internal/check"
	"repro/internal/constprop"
	"repro/internal/deptest"
	"repro/internal/heapconn"
	"repro/internal/modref"
	"repro/internal/obsv"
	"repro/internal/pta"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/race"
	"repro/internal/simple"
	"repro/internal/simplify"
	"repro/internal/taint"
	"repro/internal/xform"
)

// Config controls an analysis. The zero value (or a nil *Config) is the
// paper's algorithm.
type Config struct {
	// FnPtrStrategy: "precise" (default), "addr-taken" or "all".
	FnPtrStrategy string
	// NoDefinite disables definite relationships and strong updates.
	NoDefinite bool
	// SingleArrayLoc collapses the a_head/a_tail array abstraction.
	SingleArrayLoc bool
	// NoMemo disables IN/OUT memoization on invocation graph nodes.
	NoMemo bool
	// ContextInsensitive merges all calling contexts per function.
	ContextInsensitive bool
	// ShareContexts enables the paper's §6 future-work optimization: a
	// global per-function summary cache that shares invocation-graph
	// subtrees with identical inputs.
	ShareContexts bool
	// Workers bounds how many goroutines evaluate independent invocation
	// subtrees at once: 0 means GOMAXPROCS, 1 forces serial. Results are
	// bit-identical for every worker count.
	Workers int
	// Tracer, when non-nil, records a structured execution trace of the
	// run (invocation-graph node evaluations, map/unmap, basic statements,
	// fixed-point iterations, fan-out branches on spare workers) into the
	// caller's tracer, exportable with WriteChromeTrace / WriteTraceJSONL;
	// its ring accounting appears in Result.Metrics. A server opens its own
	// span (stamped with the request ID) on the tracer around the analysis,
	// so the flight record and trace exports carry the request identity.
	// Tracing never changes analysis results.
	Tracer *obsv.Tracer
	// MaxSteps bounds basic-statement evaluations as a runaway guard
	// (0 means pta.DefaultMaxSteps).
	MaxSteps int
	// Metrics, when non-nil, is the live registry the analysis reports
	// through, so an in-flight run can be scraped (obsv.RegisterMetrics /
	// obsv.WritePrometheus). It must be fresh per run: counters accumulate,
	// so a second run through the same registry would double-account.
	Metrics *obsv.Metrics
	// Flight attaches the always-on flight recorder: bounded last-N spans
	// plus progress samples, dumped to the recorder's writer when the run
	// panics, exceeds MaxSteps, or stalls.
	Flight *obsv.FlightRecorder
	// StallWindow arms the stall watchdog: after this long without step
	// progress the engine emits a warning, writes goroutine stacks and the
	// flight record to the recorder's writer (stderr without one), and —
	// with StallKill — aborts the run.
	StallWindow time.Duration
	// StallKill makes a detected stall abort the analysis with an error.
	StallKill bool
	// Demand switches the engine to demand-driven, liveness-pruned mode:
	// the fixpoint only maintains points-to facts for pointers that are
	// live and demanded, pruned at statement granularity, and records
	// annotations only at seeded statements. The demand is the union of
	// the DemandClients' seeds and the Queries. Every fact a demand run
	// reports is bit-identical to the exhaustive run's; setting Demand
	// with neither Queries nor DemandClients is an error (ErrNoDemand).
	Demand bool
	// Queries pre-registers points-to queries; in demand mode they seed
	// the statements they name. Answer them with Analysis.QueryAll or
	// QueryPointsTo (both also work on exhaustive analyses).
	Queries []Query
	// DemandClients names the annotation-reading clients whose seeds the
	// demand must include: "check", "race", "taint". Invoking a client
	// not registered here on a demand-mode analysis is a typed error
	// (ClientDemandError), never a silent exhaustive re-run.
	DemandClients []string
}

func (c *Config) options() (pta.Options, error) {
	var o pta.Options
	if c == nil {
		return o, nil
	}
	switch c.FnPtrStrategy {
	case "", "precise":
		o.FnPtr = pta.Precise
	case "addr-taken":
		o.FnPtr = pta.AddrTaken
	case "all":
		o.FnPtr = pta.AllFuncs
	default:
		return o, fmt.Errorf("pointsto: unknown function-pointer strategy %q", c.FnPtrStrategy)
	}
	o.NoDefinite = c.NoDefinite
	o.SingleArrayLoc = c.SingleArrayLoc
	o.NoMemo = c.NoMemo
	o.ContextInsensitive = c.ContextInsensitive
	o.ShareContexts = c.ShareContexts
	o.Workers = c.Workers
	o.Tracer = c.Tracer
	o.MaxSteps = c.MaxSteps
	o.Metrics = c.Metrics
	o.Flight = c.Flight
	o.StallWindow = c.StallWindow
	o.StallKill = c.StallKill
	return o, nil
}

// Target is one points-to relationship target.
type Target struct {
	Name     string
	Definite bool
}

func (t Target) String() string {
	d := "P"
	if t.Definite {
		d = "D"
	}
	return t.Name + ":" + d
}

// Analysis is a completed points-to analysis of one program.
type Analysis struct {
	// Result exposes the full analysis result for advanced use.
	Result *pta.Result
	// Program is the simplified (SIMPLE) program.
	Program *simple.Program
	// Tracer is Config.Tracer, which holds the execution trace of the run;
	// nil when the run was untraced.
	Tracer *obsv.Tracer
	// Source is the C source text when the analysis came in through
	// AnalyzeSource, "" otherwise. Taint() scans it for sanitizer pragmas.
	Source string

	// demand remembers the registered demand when the analysis ran in
	// demand mode (nil for exhaustive analyses).
	demand *demandState
}

// Metrics returns the analysis metrics snapshot (never nil).
func (a *Analysis) Metrics() *obsv.MetricsSnapshot { return a.Result.Metrics }

// WriteChromeTrace exports the execution trace in Chrome trace_event JSON
// form, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. The
// analysis must have been run with Config.Tracer.
func (a *Analysis) WriteChromeTrace(w io.Writer) error {
	if a.Tracer == nil {
		return fmt.Errorf("pointsto: analysis was not traced (set Config.Tracer)")
	}
	return obsv.WriteChromeTrace(w, a.Tracer)
}

// WriteTraceJSONL exports the execution trace as a JSON-lines stream, one
// event per line. The analysis must have been run with Config.Tracer.
func (a *Analysis) WriteTraceJSONL(w io.Writer) error {
	if a.Tracer == nil {
		return fmt.Errorf("pointsto: analysis was not traced (set Config.Tracer)")
	}
	return obsv.WriteJSONL(w, a.Tracer)
}

// AnalyzeSource parses, simplifies and analyzes C source text.
func AnalyzeSource(filename, src string, cfg *Config) (*Analysis, error) {
	tu, err := parser.Parse(filename, src)
	if err != nil {
		return nil, err
	}
	a, err := AnalyzeUnit(tu, cfg)
	if err != nil {
		return nil, err
	}
	a.Source = src
	return a, nil
}

// AnalyzeUnit analyzes an already-parsed translation unit.
func AnalyzeUnit(tu *ast.TranslationUnit, cfg *Config) (*Analysis, error) {
	prog, err := simplify.Simplify(tu)
	if err != nil {
		return nil, err
	}
	return AnalyzeProgram(prog, cfg)
}

// AnalyzeProgram analyzes a SIMPLE program.
func AnalyzeProgram(prog *simple.Program, cfg *Config) (*Analysis, error) {
	opts, err := cfg.options()
	if err != nil {
		return nil, err
	}
	demand, err := demandSeeds(prog, cfg)
	if err != nil {
		return nil, err
	}
	// The check, race and taint clients grade findings by calling context,
	// so a run records per-context annotations for them: demand mode at
	// the seeded statements of registered clients, exhaustive mode
	// everywhere. A ShareContexts run cannot, since its cache hits skip
	// function bodies; contextResult re-runs it.
	if demand != nil {
		opts.Demand = demand.seeds
		opts.RecordContexts = len(demand.clients) > 0
	} else {
		opts.RecordContexts = !opts.ShareContexts
	}
	res, err := pta.Analyze(prog, opts)
	if err != nil {
		return nil, err
	}
	return &Analysis{Result: res, Program: prog, Tracer: opts.Tracer, demand: demand}, nil
}

// lookupVar finds a variable: fn=="" searches globals only.
func (a *Analysis) lookupVar(fn, name string) *ast.Object {
	return lookupVarIn(a.Program, fn, name)
}

func lookupVarIn(prog *simple.Program, fn, name string) *ast.Object {
	if fn != "" {
		if f := prog.Lookup(fn); f != nil {
			for _, p := range f.Params {
				if p.Name == name {
					return p
				}
			}
			for _, l := range f.Locals {
				if l.Name == name {
					return l
				}
			}
		}
	}
	for _, g := range prog.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// PointsTo returns the targets of variable name (a local or parameter of
// function fn, or a global when fn is "") in the points-to set at the exit
// of main. NULL targets are omitted; targets are sorted by name.
func (a *Analysis) PointsTo(fn, name string) []Target {
	obj := a.lookupVar(fn, name)
	if obj == nil {
		return nil
	}
	return a.targets(a.Result.MainOut, obj)
}

func (a *Analysis) targets(s ptset.Set, obj *ast.Object) []Target {
	l := a.Result.Table.VarLoc(obj, nil)
	var out []Target
	for _, t := range s.Targets(l) {
		if t.Dst.Kind == loc.Null {
			continue
		}
		out = append(out, Target{Name: t.Dst.Name(), Definite: bool(t.Def)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PointsToString formats PointsTo as "a:D b:P ...".
func (a *Analysis) PointsToString(fn, name string) string {
	ts := a.PointsTo(fn, name)
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// CallTargets returns the functions an indirect call through the given
// function pointer can invoke, according to the invocation graph built
// during the analysis.
func (a *Analysis) CallTargets(fnPtrVar string) []string {
	seen := make(map[string]bool)
	a.Result.Graph.Walk(func(n *invgraph.Node) {
		if n.Site != nil && n.Site.Kind == simple.AsgnCallInd &&
			n.Site.FnPtr.Name == fnPtrVar {
			seen[n.Fn.Name()] = true
		}
	})
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// InvocationGraphStats returns the Table 6 measurements.
func (a *Analysis) InvocationGraphStats() invgraph.Stats {
	return a.Result.Graph.ComputeStats()
}

// WriteInvocationGraph emits the invocation graph in Graphviz DOT form.
func (a *Analysis) WriteInvocationGraph(w io.Writer) {
	a.Result.Graph.WriteDot(w)
}

// AliasPairs derives the alias pairs implied by the points-to set at main's
// exit by transitive closure up to depth levels of dereference (§7.1).
func (a *Analysis) AliasPairs(depth int) []alias.Pair {
	return alias.FromPointsTo(a.Result.MainOut, depth)
}

// Replacements returns the indirect references that definite points-to
// information can replace with direct references (§6.1).
func (a *Analysis) Replacements() []xform.Replacement {
	return xform.FindReplacements(a.Result)
}

// ConstantPropagation runs the generalized constant propagation client over
// the analysis, using interprocedural MOD sets at call sites (§6.1).
func (a *Analysis) ConstantPropagation() *constprop.Result {
	return constprop.RunWithMod(a.Result, modref.Compute(a.Result))
}

// ModRef computes interprocedural MOD/REF side-effect sets over the
// invocation graph (the read/write-set client of §6.1).
func (a *Analysis) ModRef() *modref.Result {
	return modref.Compute(a.Result)
}

// HeapConnections runs the companion connection analysis for heap-directed
// pointers (the conclusions' reference [16]).
func (a *Analysis) HeapConnections() *heapconn.Result {
	return heapconn.Run(a.Result)
}

// Dependences runs array dependence testing over the program's counted
// loops, using points-to resolution and head/tail alignment (§6.1, [28]).
func (a *Analysis) Dependences() *deptest.Result {
	return deptest.Run(a.Result)
}

// Check runs the context-sensitive memory-safety checker (NULL dereference,
// uninitialized dereference, use-after-free, double free, dangling stack
// pointers) over the program. The checker reads the per-context annotations
// the analysis recorded. An analysis run with ShareContexts, whose cache
// hits skip function bodies, has none, so it is re-run internally without
// sharing; the re-run does not disturb Result.
func (a *Analysis) Check() ([]check.Diag, error) {
	res, err := a.contextResult("check")
	if err != nil {
		return nil, err
	}
	return check.Run(res)
}

// Races runs the context-sensitive lockset-based data-race detector over
// the program: pthread_create entries become concurrent thread roots, and
// accesses to thread-shared locations are checked for lockset-disjoint
// conflicting pairs. Like Check, the detector reads per-context
// annotations, and an analysis run with ShareContexts is re-run internally
// without sharing; the re-run does not disturb Result.
func (a *Analysis) Races() ([]race.Diag, error) {
	res, err := a.contextResult("race")
	if err != nil {
		return nil, err
	}
	return race.Run(res, modref.Compute(res))
}

// Taint runs the context-sensitive taint-propagation client with the default
// source/sink/sanitizer tables, extended with any "taint:sanitizes" pragmas
// found in the source text. Like Check and Races, the client reads
// per-context annotations, and an analysis run with ShareContexts is re-run
// internally without sharing; the re-run does not disturb Result.
func (a *Analysis) Taint() ([]taint.Diag, error) {
	cfg := taint.DefaultConfig()
	if a.Source != "" {
		cfg.AddSanitizers(taint.PragmaSanitizers(a.Source)...)
	}
	return a.TaintWith(cfg)
}

// TaintWith is Taint with caller-supplied source/sink/sanitizer tables (nil
// means the defaults, without pragma scanning).
func (a *Analysis) TaintWith(cfg *taint.Config) ([]taint.Diag, error) {
	res, err := a.contextResult("taint")
	if err != nil {
		return nil, err
	}
	return taint.Run(res, cfg)
}

// contextResult returns a Result carrying per-context annotations for the
// named client: the analysis's own, except after a ShareContexts run, which
// is re-run without sharing. A demand-mode analysis is never silently
// re-run exhaustively: the client must have been registered in
// Config.DemandClients, in which case the demand result already carries
// the annotations it needs.
func (a *Analysis) contextResult(client string) (*pta.Result, error) {
	res := a.Result
	if a.demand != nil {
		if !a.demand.clients[client] {
			return nil, &ClientDemandError{Client: client}
		}
		return res, nil
	}
	if res.Opts.ShareContexts {
		opts := res.Opts
		opts.ShareContexts = false
		opts.RecordContexts = true
		// The re-run is an implementation detail: it must not accumulate
		// into the caller's live registry or rebind their flight recorder.
		opts.Metrics = nil
		opts.Flight = nil
		opts.StallWindow = 0
		var err error
		res, err = pta.Analyze(a.Program, opts)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Diagnostics returns non-fatal analysis diagnostics.
func (a *Analysis) Diagnostics() []string { return a.Result.Diags }

// WriteSimple pretty-prints the simplified program.
func (a *Analysis) WriteSimple(w io.Writer) { simple.Fprint(w, a.Program) }
