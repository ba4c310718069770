// Package taint is a flow- and context-sensitive taint-propagation client
// built on the D/P points-to results: it seeds taint at configurable sources
// (argv, getenv, read, recv, fgets, the scanf family), propagates it through
// assignments, arithmetic and loads/stores using the per-invocation-graph-node
// points-to annotations, crosses calls — including function-pointer call
// sites resolved by the points-to engine — through the same map/unmap naming
// the analysis used, and reports tainted data reaching configurable sinks
// (system/exec*, unbounded string copies, format strings, array subscripts).
//
// Taintedness carries the paper's definite/possible split. A cell is tainted
// D when every execution reaching the program point leaves attacker-derived
// data in it, and P when some execution may. Stores through a pointer taint
// every abstract target: a strong update (which can also *clear* taint) needs
// the target set to be one single definite non-multi location, mirroring the
// analysis's own kill rule; anything weaker only adds possible taint or
// demotes definite taint to possible. Sanitizer calls (a small recognized
// table, extensible with a "taint:sanitizes fn" comment pragma) kill the
// taint of their arguments' pointees under the same strong/weak rules.
//
// Severity lifts certainty to calling contexts exactly as package check does:
// a sink receiving definitely tainted data in every analyzed context is an
// error, a sink possibly receiving tainted data in some context is a warning.
// Per-context verdicts come from a walk of each thread root's invocation
// subtree; like package race, spawned pthread roots are walked independently
// with an empty taint state — taint does not flow through pthread_create
// arguments.
package taint

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/cc/token"
	"repro/internal/pta"
	"repro/internal/pta/ctxwalk"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/live"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// Severity grades a diagnostic, matching package check's convention.
type Severity int

// Severities: Warning for taint possible in some context, Error for taint
// definite in every context.
const (
	Warning Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Kind names the sink class that produced a diagnostic.
type Kind string

// Diagnostic kinds.
const (
	TaintedExec   Kind = "tainted-exec"   // command execution (system, exec*)
	TaintedCopy   Kind = "tainted-copy"   // unbounded copy (strcpy, strcat, sprintf data)
	TaintedFormat Kind = "tainted-format" // attacker-controlled format string
	TaintedIndex  Kind = "tainted-index"  // attacker-controlled array subscript
)

// Diag is one positioned taint diagnostic.
type Diag struct {
	Pos  token.Pos
	Sev  Severity
	Kind Kind
	Msg  string
	// Ctx is the invocation-graph path under which the flow happens (for an
	// error, any path works: all are bad).
	Ctx string
	// Fn is the enclosing function.
	Fn string
	// Stmt is the sink statement, for the dynamic-taint oracle.
	Stmt *simple.Basic
}

func (d Diag) String() string {
	s := fmt.Sprintf("%s: %s: %s: %s", d.Pos, d.Sev, d.Kind, d.Msg)
	if d.Ctx != "" {
		s += fmt.Sprintf(" [context: %s]", d.Ctx)
	}
	return s
}

// Source describes one taint source function.
type Source struct {
	// Ret taints the call's result value (getenv).
	Ret bool
	// Bufs lists argument indices whose pointees receive tainted data
	// (read/recv fill their buffer argument).
	Bufs []int
	// BufsFrom, when >= 0, taints the pointees of every argument from that
	// index on (scanf stores through all arguments after the format).
	BufsFrom int
}

// Sink describes one taint sink function.
type Sink struct {
	// Kind labels diagnostics for tainted data arguments.
	Kind Kind
	// Args lists the data-argument indices checked for taint.
	Args []int
	// ArgsFrom, when >= 0, checks every argument from that index on.
	ArgsFrom int
	// Format, when >= 0, is a format-string argument: tainted data there is
	// reported as TaintedFormat regardless of Kind.
	Format int
}

// Config selects the source, sink and sanitizer tables. The tables apply to
// external functions only (a program defining its own "system" is analyzed
// as written), except sanitizers, which also silence defined functions — the
// pragma is a trust annotation about the body.
type Config struct {
	Sources    map[string]Source
	Sinks      map[string]Sink
	Sanitizers map[string]bool
}

// ArgvSource is the Sources key enabling taint seeding of main's pointer
// parameters (the argv vector).
const ArgvSource = "argv"

// DefaultConfig returns the default source/sink/sanitizer tables.
func DefaultConfig() *Config {
	return &Config{
		Sources: map[string]Source{
			ArgvSource: {BufsFrom: -1},
			"getenv":   {Ret: true, BufsFrom: -1},
			"gets":     {Bufs: []int{0}, BufsFrom: -1},
			"fgets":    {Bufs: []int{0}, BufsFrom: -1},
			"read":     {Bufs: []int{1}, BufsFrom: -1},
			"recv":     {Bufs: []int{1}, BufsFrom: -1},
			"scanf":    {BufsFrom: 1},
		},
		Sinks: map[string]Sink{
			"system":  {Kind: TaintedExec, Args: []int{0}, ArgsFrom: -1, Format: -1},
			"popen":   {Kind: TaintedExec, Args: []int{0}, ArgsFrom: -1, Format: -1},
			"execl":   {Kind: TaintedExec, ArgsFrom: 0, Format: -1},
			"execv":   {Kind: TaintedExec, ArgsFrom: 0, Format: -1},
			"execvp":  {Kind: TaintedExec, ArgsFrom: 0, Format: -1},
			"strcpy":  {Kind: TaintedCopy, Args: []int{1}, ArgsFrom: -1, Format: -1},
			"strcat":  {Kind: TaintedCopy, Args: []int{1}, ArgsFrom: -1, Format: -1},
			"sprintf": {Kind: TaintedCopy, ArgsFrom: 2, Format: 1},
			"printf":  {Kind: TaintedFormat, ArgsFrom: -1, Format: 0},
		},
		Sanitizers: map[string]bool{
			"sanitize": true,
		},
	}
}

// AddSanitizers registers additional sanitizer function names (typically from
// PragmaSanitizers).
func (c *Config) AddSanitizers(names ...string) {
	if c.Sanitizers == nil {
		c.Sanitizers = make(map[string]bool)
	}
	for _, n := range names {
		c.Sanitizers[n] = true
	}
}

// Metrics summarizes one taint run for Result.Metrics.
type Metrics struct {
	Sources    int // statements that seeded taint (argv counts once)
	Sinks      int // distinct sink sites checked
	Sanitizers int // statements that killed taint
	Errors     int
	Warnings   int
}

// Run propagates taint over an analyzed program and returns its diagnostics,
// sorted by position. The analysis must have been run with
// Options.RecordContexts and without ShareContexts (the same preconditions as
// packages check and race). A nil cfg uses DefaultConfig.
func Run(res *pta.Result, cfg *Config) ([]Diag, error) {
	ds, _, err := RunWithMetrics(res, cfg)
	return ds, err
}

// RunWithMetrics is Run plus per-run counters.
func RunWithMetrics(res *pta.Result, cfg *Config) ([]Diag, Metrics, error) {
	var m Metrics
	if res.Opts.ShareContexts {
		return nil, m, fmt.Errorf("taint: analysis ran with ShareContexts; re-run without it")
	}
	if !res.Annots.ContextsEnabled() {
		return nil, m, fmt.Errorf("taint: analysis ran without Options.RecordContexts")
	}
	if cfg == nil {
		cfg = DefaultConfig()
	}
	w := &walker{
		res: res, cfg: cfg,
		verdicts:   make(map[vkey]*site),
		sourceStmt: make(map[*simple.Basic]bool),
		sanStmt:    make(map[*simple.Basic]bool),
	}
	w.walk.Basic = w.walkBasic
	roots := []*invgraph.Node{res.Graph.Root}
	roots = append(roots, res.Graph.ThreadNodes()...)
	for _, r := range roots {
		st := newState()
		if r == res.Graph.Root {
			w.seedArgv(st)
		}
		w.walk.Node(r, st)
	}
	diags := w.report()
	m.Sources = len(w.sourceStmt)
	if w.argvSeeded {
		m.Sources++
	}
	m.Sinks = len(w.verdicts)
	m.Sanitizers = len(w.sanStmt)
	for _, d := range diags {
		if d.Sev == Error {
			m.Errors++
		} else {
			m.Warnings++
		}
	}
	if res.Metrics != nil {
		res.Metrics.TaintSources = int64(m.Sources)
		res.Metrics.TaintSinks = int64(m.Sinks)
		res.Metrics.TaintSanitizers = int64(m.Sanitizers)
		res.Metrics.TaintErrors = int64(m.Errors)
		res.Metrics.TaintWarnings = int64(m.Warnings)
	}
	return diags, m, nil
}

// ---------------------------------------------------------------------------
// Taint state

// taintVal is the taintedness of one value: untainted, or tainted with D/P
// certainty.
type taintVal struct {
	tainted bool
	def     ptset.Def
}

var untainted = taintVal{}

func taintedD() taintVal { return taintVal{tainted: true, def: ptset.D} }

// joinTV joins the taint of two values contributing to one result (binary
// operands): tainted if either is, definite if either definitely is.
func joinTV(a, b taintVal) taintVal {
	if !a.tainted {
		return b
	}
	if !b.tainted {
		return a
	}
	if a.def == ptset.D || b.def == ptset.D {
		return taintedD()
	}
	return taintVal{tainted: true, def: ptset.P}
}

// tstate is the abstract state of the walk: for each abstract location (in
// the naming of the invocation being walked), whether its cell is definitely
// or possibly tainted. Absent means untainted. The zero tstate, with no map,
// is the dead state.
type tstate struct {
	t ctxwalk.Defs
}

func newState() tstate { return tstate{t: ctxwalk.Defs{}} }

func (s tstate) Dead() bool { return s.t == nil }

// Join joins two control-flow paths: a cell stays definitely tainted only
// when definitely tainted on both; tainted on one side only is possible.
func (s tstate) Join(o tstate) tstate { return tstate{t: ctxwalk.JoinDefs(s.t, o.t)} }

func (s tstate) Equal(o tstate) bool { return maps.Equal(s.t, o.t) }

// joinInto raises the taint of l in m to at least d.
func joinInto(m map[*loc.Location]ptset.Def, l *loc.Location, d ptset.Def) {
	if cur, ok := m[l]; !ok || (cur == ptset.P && d == ptset.D) {
		m[l] = d
	}
}

// ---------------------------------------------------------------------------
// Verdicts

// vkey identifies one sink site: a statement plus a per-statement slot
// (argument index for call sinks, 100+ordinal for subscript sinks) plus the
// kind, so one exec call with several tainted arguments reports once per
// argument.
type vkey struct {
	b    *simple.Basic
	slot int
	kind Kind
}

// site accumulates per-context verdicts for one sink site.
type site struct {
	pos    token.Pos
	fn     string
	expr   string
	callee string
	nodes  map[*invgraph.Node]*ctxVerdict
	order  []*invgraph.Node
}

// ctxVerdict is one context's judgement, merged over loop revisits: bad when
// any visit saw taint, definite only when every visit saw definite taint.
type ctxVerdict struct {
	bad      bool
	definite bool
	visits   int
}

type walker struct {
	res  *pta.Result
	cfg  *Config
	walk ctxwalk.Walker[tstate]
	ctxs ctxwalk.Order

	verdicts map[vkey]*site
	vorder   []vkey

	sourceStmt map[*simple.Basic]bool
	sanStmt    map[*simple.Basic]bool
	argvSeeded bool
}

// record merges one context visit's judgement of a sink site.
func (w *walker) record(b *simple.Basic, slot int, kind Kind, pos token.Pos,
	fn, expr, callee string, n *invgraph.Node, tv taintVal) {
	k := vkey{b: b, slot: slot, kind: kind}
	s, ok := w.verdicts[k]
	if !ok {
		s = &site{pos: pos, fn: fn, expr: expr, callee: callee,
			nodes: make(map[*invgraph.Node]*ctxVerdict)}
		w.verdicts[k] = s
		w.vorder = append(w.vorder, k)
	}
	v, ok := s.nodes[n]
	if !ok {
		v = &ctxVerdict{definite: true}
		s.nodes[n] = v
		s.order = append(s.order, n)
	}
	v.visits++
	if tv.tainted {
		v.bad = true
	}
	if !tv.tainted || tv.def != ptset.D {
		v.definite = false
	}
}

// report aggregates per-context verdicts into diagnostics: definitely
// tainted in every context is an error, tainted in some context a warning.
func (w *walker) report() []Diag {
	var diags []Diag
	for _, k := range w.vorder {
		s := w.verdicts[k]
		nodes := s.order
		slices.SortFunc(nodes, w.ctxs.Compare)
		checked, definite := 0, 0
		anyBad := false
		badCtx := ""
		for _, n := range nodes {
			v := s.nodes[n]
			checked++
			if v.bad {
				anyBad = true
				if badCtx == "" {
					badCtx = w.ctxs.Path(n)
				}
				if v.definite {
					definite++
				}
			}
		}
		if !anyBad || checked == 0 {
			continue
		}
		sev := Warning
		if definite == checked {
			sev = Error
			badCtx = w.ctxs.Path(nodes[0])
		}
		diags = append(diags, Diag{
			Pos: s.pos, Sev: sev, Kind: k.kind,
			Msg: message(k.kind, s.expr, s.callee, sev),
			Ctx: badCtx, Fn: s.fn, Stmt: k.b,
		})
	}
	slices.SortStableFunc(diags, func(a, b Diag) int {
		return cmp.Or(a.Pos.Compare(b.Pos), cmp.Compare(a.Kind, b.Kind), strings.Compare(a.Msg, b.Msg))
	})
	return diags
}

func message(kind Kind, expr, callee string, sev Severity) string {
	switch kind {
	case TaintedExec:
		if sev == Error {
			return fmt.Sprintf("'%s' passes tainted data to '%s'", expr, callee)
		}
		return fmt.Sprintf("'%s' may pass tainted data to '%s'", expr, callee)
	case TaintedCopy:
		if sev == Error {
			return fmt.Sprintf("'%s' copies tainted data of unbounded length via '%s'", expr, callee)
		}
		return fmt.Sprintf("'%s' may copy tainted data of unbounded length via '%s'", expr, callee)
	case TaintedFormat:
		if sev == Error {
			return fmt.Sprintf("'%s' is a tainted format string for '%s'", expr, callee)
		}
		return fmt.Sprintf("'%s' may be a tainted format string for '%s'", expr, callee)
	case TaintedIndex:
		if sev == Error {
			return fmt.Sprintf("'%s' indexes an array with a tainted value", expr)
		}
		return fmt.Sprintf("'%s' may index an array with a tainted value", expr)
	}
	return fmt.Sprintf("tainted data reaches '%s'", callee)
}

// ---------------------------------------------------------------------------
// Seeding

// seedArgv taints the deepest symbolic pointee chain of each of main's
// pointer parameters — for char **argv the character data 2_argv, which is
// what the user typed. The intermediate pointer cells (1_argv, the vector of
// string addresses) hold addresses, not attacker data, and stay clean.
func (w *walker) seedArgv(st tstate) {
	if _, ok := w.cfg.Sources[ArgvSource]; !ok {
		return
	}
	mainFn := w.res.Prog.Main()
	if mainFn == nil {
		return
	}
	for _, p := range mainFn.Params {
		if p.Type == nil {
			continue
		}
		depth := p.Type.PointerDepth()
		if depth == 0 {
			continue
		}
		sym := w.res.Table.SymLoc(mainFn, fmt.Sprintf("%d_%s", depth, p.Name), nil, nil)
		st.t[sym] = ptset.D
		w.argvSeeded = true
	}
}

// ---------------------------------------------------------------------------
// The walk

// walkBasic judges b's sinks under the pre-state, applies its taint transfer
// function, and descends into resolved callees.
func (w *walker) walkBasic(n *invgraph.Node, b *simple.Basic, st tstate) tstate {
	in, ok := w.res.Annots.ContextsAt(b)[n]
	if !ok {
		return st // not reached in this context
	}
	w.checkIndexSinks(n, b, in, st)

	switch b.Kind {
	case simple.AsgnCall:
		return w.walkCall(n, b, in, st)
	case simple.AsgnCallInd:
		return w.walkCallees(n, b, in, st)
	case simple.StmtNop:
		return st
	}
	if b.LHS == nil {
		return st
	}
	var tv taintVal
	switch b.Kind {
	case simple.AsgnCopy, simple.AsgnUnary:
		tv = w.operandTaint(b.X, in, st)
	case simple.AsgnBinary:
		tv = joinTV(w.operandTaint(b.X, in, st), w.operandTaint(b.Y, in, st))
	case simple.AsgnAddr, simple.AsgnMalloc:
		tv = untainted // fresh addresses and fresh storage are clean
	}
	out := tstate{t: maps.Clone(st.t)}
	w.assignRef(out, b.LHS, in, tv)
	return out
}

// walkCall handles a direct call: sink checks under the pre-state, then the
// sanitizer/defined-body/source/external transfer function.
func (w *walker) walkCall(n *invgraph.Node, b *simple.Basic, in ptset.Set, st tstate) tstate {
	name := b.Callee.Name
	external := w.res.Prog.Lookup(name) == nil

	if external {
		if sink, ok := w.cfg.Sinks[name]; ok {
			w.checkSink(n, b, in, st, name, sink)
		}
	}
	// Sanitizers silence defined functions too: the pragma is a trust
	// annotation, so the body is not walked.
	if w.cfg.Sanitizers[name] {
		return w.applySanitizer(n, b, in, st)
	}
	if !external {
		return w.walkCallees(n, b, in, st)
	}
	if src, ok := w.cfg.Sources[name]; ok {
		return w.applySource(n, b, in, st, src)
	}
	switch name {
	case pta.PthreadCreate, pta.PthreadJoin, pta.PthreadExit,
		pta.PthreadMutexLock, pta.PthreadMutexUnlock,
		pta.PthreadMutexInit, pta.PthreadMutexDestroy:
		return st // thread roots are walked separately, taint-free
	case "free":
		return st
	case "strcpy", "strncpy", "memcpy", "memmove", "strcat", "memset":
		return w.applyCopyExternal(n, b, in, st, name)
	}
	// Unknown external: the result may derive from any argument, never more
	// than possibly.
	if b.LHS != nil {
		tv := untainted
		for _, a := range b.Args {
			tv = joinTV(tv, w.dataTaintOperand(a, in, st))
		}
		if tv.tainted {
			tv.def = ptset.P
		}
		out := tstate{t: maps.Clone(st.t)}
		w.assignRef(out, b.LHS, in, tv)
		return out
	}
	return st
}

// walkCallees crosses into every resolved callee of this site and joins
// their exit states; an unresolved site leaves taint unchanged.
func (w *walker) walkCallees(n *invgraph.Node, b *simple.Basic, in ptset.Set, st tstate) tstate {
	return ctxwalk.Callees(n, b, st, func(c *invgraph.Node, st tstate) tstate {
		return w.crossCall(n, c, b, in, st)
	})
}

// crossCall maps the taint state into the callee's naming, walks the callee,
// and unmaps the exit taint back — the taint analogue of the points-to
// analysis's map/unmap: caller cells visible to the callee travel under
// their callee names (globals as themselves, invisible cells under their
// symbolic names), taint on unmapped cells flows back through the inverse
// translation, and cells invisible to the callee keep their caller taint.
func (w *walker) crossCall(n, c *invgraph.Node, b *simple.Basic, in ptset.Set, st tstate) tstate {
	if c.Kind == invgraph.Approximate {
		return st
	}
	mi, ok := c.MapInfo.(*pta.MapInfo)
	if !ok {
		return st
	}
	callee := c.Fn

	// Map: caller cells under their callee names, weakened when the naming
	// fans out or a symbolic stands for several invisible cells.
	cst := newState()
	for l, d := range st.t {
		names := mi.CalleeNames(w.res, l)
		for _, u := range names {
			nd := d
			if len(names) > 1 || u.Multi() || mi.MultiSym(w.res, u) {
				nd = ptset.P
			}
			joinInto(cst.t, u, nd)
		}
	}
	// Formal parameters receive the actuals' value taint (each formal is a
	// fresh single definite cell, so the copy is strong).
	for i, p := range callee.Params {
		if i >= len(b.Args) {
			break
		}
		tv := w.operandTaint(b.Args[i], in, st)
		if tv.tainted {
			joinInto(cst.t, w.res.Table.VarLoc(p, nil), tv.def)
		}
	}

	ex := w.walk.Node(c, cst)
	if ex.Dead() {
		return tstate{} // the callee never returns
	}

	// Unmap: caller cells the callee could see are replaced by the
	// translation of the callee's exit taint; invisible cells survive.
	out := newState()
	for l, d := range st.t {
		if len(mi.CalleeNames(w.res, l)) == 0 {
			out.t[l] = d
		}
	}
	for u, d := range ex.t {
		tr := mi.Translate(w.res, u)
		nd := d
		if len(tr) > 1 || mi.MultiSym(w.res, u) {
			nd = ptset.P
		}
		for _, cu := range tr {
			if cu.Multi() {
				joinInto(out.t, cu, ptset.P)
			} else {
				joinInto(out.t, cu, nd)
			}
		}
	}

	// The return value's taint travels through the retval pseudo-cell.
	if b.LHS != nil {
		tv := untainted
		if callee.RetVal != nil {
			if d, ok := ex.t[w.res.Table.VarLoc(callee.RetVal, nil)]; ok {
				tv = taintVal{tainted: true, def: d}
			}
		}
		w.assignRef(out, b.LHS, in, tv)
	}
	return out
}

// ---------------------------------------------------------------------------
// Transfer functions

// applySource taints the configured buffer pointees definitely (the source
// definitely writes attacker data there when it executes) and the result
// value when the source returns tainted data.
func (w *walker) applySource(n *invgraph.Node, b *simple.Basic, in ptset.Set, st tstate, src Source) tstate {
	out := tstate{t: maps.Clone(st.t)}
	w.sourceStmt[b] = true
	apply := func(idx int) {
		if idx >= len(b.Args) {
			return
		}
		ref, ok := b.Args[idx].(*simple.Ref)
		if !ok {
			return
		}
		w.assignLocs(out, w.dataLocs(ref, in), taintedD())
	}
	for _, idx := range src.Bufs {
		apply(idx)
	}
	if src.BufsFrom >= 0 {
		for idx := src.BufsFrom; idx < len(b.Args); idx++ {
			apply(idx)
		}
	}
	if b.LHS != nil {
		tv := untainted
		if src.Ret {
			tv = taintedD()
		}
		w.assignRef(out, b.LHS, in, tv)
	}
	return out
}

// applySanitizer kills the taint of every argument's pointees (and of the
// arguments' own cells when they are direct references) under the strong/
// weak rules, and leaves the result untainted.
func (w *walker) applySanitizer(n *invgraph.Node, b *simple.Basic, in ptset.Set, st tstate) tstate {
	out := tstate{t: maps.Clone(st.t)}
	w.sanStmt[b] = true
	for _, a := range b.Args {
		ref, ok := a.(*simple.Ref)
		if !ok {
			continue
		}
		w.assignLocs(out, w.dataLocs(ref, in), untainted)
	}
	if b.LHS != nil {
		w.assignRef(out, b.LHS, in, untainted)
	}
	return out
}

// applyCopyExternal models the data movement of the modeled string/memory
// externals: the source argument's data taint flows into the destination's
// pointees. strcat appends (never clears); memset overwrites with a
// constant (clears).
func (w *walker) applyCopyExternal(n *invgraph.Node, b *simple.Basic, in ptset.Set, st tstate, name string) tstate {
	out := tstate{t: maps.Clone(st.t)}
	if len(b.Args) >= 1 {
		if dst, ok := b.Args[0].(*simple.Ref); ok {
			dlocs := w.dataLocs(dst, in)
			switch name {
			case "memset":
				w.assignLocs(out, dlocs, untainted)
			default:
				tv := untainted
				if len(b.Args) >= 2 {
					tv = w.dataTaintOperand(b.Args[1], in, st)
				}
				if name == "strcat" && !tv.tainted {
					break // append of clean data keeps the old contents
				}
				w.assignLocs(out, dlocs, tv)
			}
		}
	}
	if b.LHS != nil {
		// These externals return their destination pointer; the pointer
		// value itself carries no data taint.
		tv := untainted
		if len(b.Args) >= 1 {
			if dst, ok := b.Args[0].(*simple.Ref); ok {
				tv = w.readTaint(dst, in, st)
			}
		}
		w.assignRef(out, b.LHS, in, tv)
	}
	return out
}

// checkSink records per-context verdicts for the configured data arguments
// of a sink call under the pre-state.
func (w *walker) checkSink(n *invgraph.Node, b *simple.Basic, in ptset.Set, st tstate, name string, sink Sink) {
	judge := func(idx int, kind Kind) {
		if idx >= len(b.Args) {
			return
		}
		tv := w.dataTaintOperand(b.Args[idx], in, st)
		expr := b.Args[idx].String()
		pos := b.Pos
		if r, ok := b.Args[idx].(*simple.Ref); ok && r.Pos.IsValid() {
			pos = r.Pos
		}
		w.record(b, idx, kind, pos, n.Fn.Name(), expr, name, n, tv)
	}
	if sink.Format >= 0 {
		judge(sink.Format, TaintedFormat)
	}
	for _, idx := range sink.Args {
		judge(idx, sink.Kind)
	}
	if sink.ArgsFrom >= 0 {
		for idx := sink.ArgsFrom; idx < len(b.Args); idx++ {
			if idx == sink.Format {
				continue
			}
			judge(idx, sink.Kind)
		}
	}
}

// checkIndexSinks records a verdict for every array subscript of b whose
// concrete index operand is a variable reference: a tainted index is an
// attacker-controlled memory access.
func (w *walker) checkIndexSinks(n *invgraph.Node, b *simple.Basic, in ptset.Set, st tstate) {
	slot := 100
	judge := func(r *simple.Ref, sels []simple.Sel) {
		for _, sel := range sels {
			if sel.Kind != simple.SelIndex || sel.Opnd == nil {
				continue
			}
			opRef, ok := sel.Opnd.(*simple.Ref)
			if !ok {
				continue
			}
			tv := w.readTaint(opRef, in, st)
			pos := r.Pos
			if !pos.IsValid() {
				pos = b.Pos
			}
			w.record(b, slot, TaintedIndex, pos, n.Fn.Name(), opRef.String(), "", n, tv)
			slot++
		}
	}
	for _, r := range b.Refs() {
		judge(r, r.Path)
		judge(r, r.DPath)
	}
}

// ---------------------------------------------------------------------------
// Taint evaluation over references

// readTaint is the taint of the value a reference reads: definite only when
// every cell the reference can denote is definitely tainted (the coverage
// invariant lifts per-cell taint to the value), possible when any is.
func (w *walker) readTaint(r *simple.Ref, in ptset.Set, st tstate) taintVal {
	lls := pta.EvalLLocs(w.res, r, in)
	if len(lls) == 0 {
		return untainted
	}
	any, all := false, true
	for _, ll := range lls {
		d, ok := st.t[ll.Loc]
		if ok {
			any = true
		}
		if !ok || d != ptset.D {
			all = false
		}
	}
	switch {
	case any && all:
		return taintedD()
	case any:
		return taintVal{tainted: true, def: ptset.P}
	}
	return untainted
}

// operandTaint is the taint of a simple operand's value; constants are
// clean.
func (w *walker) operandTaint(op simple.Operand, in ptset.Set, st tstate) taintVal {
	r, ok := op.(*simple.Ref)
	if !ok || r == nil {
		return untainted
	}
	return w.readTaint(r, in, st)
}

// dataTaintOperand is the taint of the data an argument hands a callee: the
// value itself, joined with the cells the value points to (a clean char*
// pointing at tainted characters hands over tainted data).
func (w *walker) dataTaintOperand(op simple.Operand, in ptset.Set, st tstate) taintVal {
	r, ok := op.(*simple.Ref)
	if !ok || r == nil {
		return untainted
	}
	tv := w.readTaint(r, in, st)
	rls := w.dataLocs(r, in)
	if len(rls) == 0 {
		return tv
	}
	any, all := false, true
	for _, rl := range rls {
		d, ok := st.t[rl.Loc]
		if ok {
			any = true
		}
		if !ok || d != ptset.D {
			all = false
		}
	}
	switch {
	case any && all:
		return joinTV(tv, taintedD())
	case any:
		return joinTV(tv, taintVal{tainted: true, def: ptset.P})
	}
	return tv
}

// dataLocs is the set of data cells a pointer-valued reference exposes: its
// R-locations minus NULL (no storage) and functions (no data). String
// literals stay in the set — they are (clean) data cells.
func (w *walker) dataLocs(r *simple.Ref, in ptset.Set) []pta.BaseLoc {
	var out []pta.BaseLoc
	for _, rl := range pta.EvalRLocsOfRef(w.res, r, in) {
		if rl.Loc.Kind == loc.Null || rl.Loc.Kind == loc.Func {
			continue
		}
		out = append(out, rl)
	}
	return out
}

// assignRef applies a value's taint to the cells a left-hand side denotes.
func (w *walker) assignRef(st tstate, lhs *simple.Ref, in ptset.Set, tv taintVal) {
	w.assignLocs(st, pta.EvalLLocs(w.res, lhs, in), tv)
}

// assignLocs writes taint into a target cell set with the analysis's own
// strong/weak update rule: one single definite non-multi target is strongly
// updated (set to the value's taint, or cleared); anything weaker only adds
// possible taint, or demotes definite taint to possible on a clean write.
func (w *walker) assignLocs(st tstate, lls []pta.BaseLoc, tv taintVal) {
	if len(lls) == 1 && lls[0].Def == ptset.D && !lls[0].Loc.Multi() && !w.res.Opts.NoDefinite {
		l := lls[0].Loc
		if tv.tainted {
			st.t[l] = tv.def
		} else {
			delete(st.t, l)
		}
		return
	}
	for _, ll := range lls {
		l := ll.Loc
		cur, has := st.t[l]
		if tv.tainted {
			nd := tv.def
			if !has {
				nd = ptset.P // the cell may keep its clean old value
			} else {
				nd = cur.And(tv.def)
			}
			st.t[l] = nd
		} else if has && cur == ptset.D {
			st.t[l] = ptset.P // may have been overwritten with clean data
		}
	}
}

// DemandSeeds returns the demand the taint client places on a points-to
// analysis run in demand mode. The walker applies a taint transfer at
// every reachable statement, reading its per-context points-to annotation
// to resolve pointer stores, loads and sink arguments, so its demand is
// the degenerate all-statements seed; liveness pruning still drops facts
// of dead non-address-taken locals, which no taint transfer can read.
func DemandSeeds(prog *simple.Program) *live.Seeds {
	return live.SeedAllStatements(prog)
}
