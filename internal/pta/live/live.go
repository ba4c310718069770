// Package live computes backward liveness of pointer variables over SIMPLE
// at statement granularity. It is the pruning oracle for the engine's
// demand-driven mode (pta.Options.Demand): a points-to fact (src, dst, def)
// may be dropped from the set flowing into a statement exactly when its
// source root variable is provably never read by the rest of the analysis —
// not by a later lvalue/rvalue evaluation, not by the map process at a call
// site (including function-pointer fan-out), not by a client-registered
// demand seed.
//
// The analysis follows the lazy/liveness-based pointer-analysis line of
// work (Khedker, Mycroft, Rawat): demand seeds make a variable live at the
// seeding statement, ordinary uses propagate liveness backward through the
// compositional SIMPLE control structures (with fixpoints at loop heads),
// and call sites propagate the callee's entry-global liveness backward into
// the caller while the liveness after the call flows into the callee's
// exit. Pointer-induced definitions are over-approximated by pinning: any
// variable whose facts can be reached through a pointer (address-taken,
// array-typed, static), plus every non-variable abstract location (heap,
// symbolic, string, NULL, freed, function) and every return-value
// pseudo-variable, is permanently live. Pinning errs only toward keeping
// facts, so pruning by this analysis never changes any fact the exhaustive
// engine would report for a live variable.
package live

import (
	"sort"

	"repro/internal/cc/ast"
	"repro/internal/cc/types"
	"repro/internal/simple"
)

// ---------------------------------------------------------------------------
// Demand seeds

// Seeds registers the demand of an analysis client: the statements whose
// points-to annotations must be recorded, and the variables whose facts
// must be exact there. Statements not seeded are pruned freely and get no
// annotation in demand mode.
type Seeds struct {
	// PinGlobals keeps every global variable live at every statement.
	// Clients that inspect whole-program escape state (the checker's
	// dangling-pointer pass walks global-source triples in every call
	// context's output) need this; pure position queries do not.
	PinGlobals bool

	stmts map[*simple.Basic][]*ast.Object
}

// NewSeeds returns an empty seed set.
func NewSeeds() *Seeds {
	return &Seeds{stmts: make(map[*simple.Basic][]*ast.Object)}
}

// Add demands the given variables at statement b. Adding a statement with
// no variables still marks it as seeded (its annotation is recorded).
func (s *Seeds) Add(b *simple.Basic, vars ...*ast.Object) {
	if b == nil {
		return
	}
	have := s.stmts[b]
	for _, v := range vars {
		if v == nil {
			continue
		}
		dup := false
		for _, h := range have {
			if h == v {
				dup = true
				break
			}
		}
		if !dup {
			have = append(have, v)
		}
	}
	s.stmts[b] = have
}

// AddStmtRefs demands every variable referenced by b: the base variable of
// each operand reference plus the function-pointer variable of an indirect
// call. This is the per-statement demand of clients that read every
// annotation (race, taint).
func (s *Seeds) AddStmtRefs(b *simple.Basic) {
	if b == nil {
		return
	}
	for _, r := range b.Refs() {
		s.Add(b, r.Var)
	}
	if b.FnPtr != nil {
		s.Add(b, b.FnPtr)
	}
	if _, ok := s.stmts[b]; !ok {
		s.stmts[b] = nil
	}
}

// Merge adds every seed of o into s.
func (s *Seeds) Merge(o *Seeds) {
	if o == nil {
		return
	}
	if o.PinGlobals {
		s.PinGlobals = true
	}
	for b, vars := range o.stmts {
		if len(vars) == 0 {
			if _, ok := s.stmts[b]; !ok {
				s.stmts[b] = nil
			}
			continue
		}
		s.Add(b, vars...)
	}
}

// Seeded reports whether b carries any demand.
func (s *Seeds) Seeded(b *simple.Basic) bool {
	if s == nil {
		return false
	}
	_, ok := s.stmts[b]
	return ok
}

// Demanded returns the variables demanded at b.
func (s *Seeds) Demanded(b *simple.Basic) []*ast.Object { return s.stmts[b] }

// Len returns the number of seeded statements.
func (s *Seeds) Len() int { return len(s.stmts) }

// SeedAllStatements seeds every basic statement of the program with every
// variable it references and pins all globals: the degenerate demand under
// which demand mode must reproduce the exhaustive analysis exactly.
func SeedAllStatements(prog *simple.Program) *Seeds {
	s := NewSeeds()
	s.PinGlobals = true
	prog.ForEachBasic(func(b *simple.Basic) { s.AddStmtRefs(b) })
	return s
}

// ---------------------------------------------------------------------------
// Bit sets

type bits []uint64

func newBits(n int) bits { return make(bits, (n+63)/64) }

func (b bits) get(i int) bool {
	w := i >> 6
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(i)&63)) != 0
}

func (b bits) set(i int)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bits) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

func (b bits) clone() bits {
	c := make(bits, len(b))
	copy(c, b)
	return c
}

// orInto merges o into b (b may be longer) and reports whether b changed.
func (b bits) orInto(o bits) bool {
	changed := false
	for i, w := range o {
		if i >= len(b) {
			break
		}
		if b[i]|w != b[i] {
			b[i] |= w
			changed = true
		}
	}
	return changed
}

func (b bits) count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Options and result

// Options tunes the over-approximations the liveness pass must make to
// stay sound for a particular engine configuration.
type Options struct {
	// AllFuncs widens indirect-call fan-out to every defined function
	// (matching pta's AllFuncs strategy). The default matches both the
	// Precise and AddrTaken strategies: address-taken functions are a
	// superset of any points-to-resolved target set.
	AllFuncs bool

	// NoKill disables strong liveness kills. Required when the engine
	// runs with NoDefinite (assignments then only weaken, never kill,
	// so a redefinition does not end a fact's life).
	NoKill bool
}

// Info is the computed liveness: per-statement live-variable sets plus the
// pin set. It is immutable after Compute and safe for concurrent readers.
type Info struct {
	seeds *Seeds
	opts  Options

	pinned map[*ast.Object]bool
	idx    map[*ast.Object]int              // tracked variable -> bit index
	owner  map[*ast.Object]*simple.Function // locals: owning function
	gwidth int                              // tracked globals occupy bits [0, gwidth)

	liveBefore map[*simple.Basic]bits

	entry map[*simple.Function]bits // live tracked globals at function entry
}

// Seeds returns the demand this liveness was computed for.
func (in *Info) Seeds() *Seeds { return in.seeds }

// Seeded reports whether b carries demand (its annotation is recorded).
func (in *Info) Seeded(b *simple.Basic) bool { return in.seeds.Seeded(b) }

// LiveAt reports whether obj's facts must be kept at the input of b:
// pinned, untracked, or live by the backward dataflow.
func (in *Info) LiveAt(b *simple.Basic, obj *ast.Object) bool {
	return !in.Prunable(b, obj)
}

// Prunable reports whether a fact whose source is rooted at obj may be
// dropped from the set flowing into b. It is conservative: anything the
// pass cannot prove dead is reported live.
func (in *Info) Prunable(b *simple.Basic, obj *ast.Object) bool {
	if obj == nil || in.pinned[obj] {
		return false
	}
	i, ok := in.idx[obj]
	if !ok {
		return false
	}
	lb, ok := in.liveBefore[b]
	if !ok {
		return false
	}
	if i>>6 >= len(lb) {
		return false
	}
	return !lb.get(i)
}

// LiveCount returns the number of tracked variables live at the input of
// b (for the live_vars histogram); pinned variables are not counted.
func (in *Info) LiveCount(b *simple.Basic) int {
	return in.liveBefore[b].count()
}

// TrackedVars returns the number of variables the pass tracks (everything
// not pinned); the remainder of the program's variables are permanently
// live.
func (in *Info) TrackedVars() int { return len(in.idx) }

// EntryGlobals returns the names of tracked globals live at fn's entry,
// sorted. Pinned globals are omitted (they are live everywhere). Intended
// for tests.
func (in *Info) EntryGlobals(fn *simple.Function) []string {
	eb := in.entry[fn]
	if eb == nil {
		return nil
	}
	var names []string
	for obj, i := range in.idx {
		if i < in.gwidth && eb.get(i) {
			names = append(names, obj.Name)
		}
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// Compute

// Compute runs the interprocedural backward liveness analysis for the
// given demand. A nil seeds value means "no demand": only pinned variables
// stay live.
func Compute(prog *simple.Program, seeds *Seeds, opts Options) *Info {
	if seeds == nil {
		seeds = NewSeeds()
	}
	in := &Info{
		seeds:      seeds,
		opts:       opts,
		pinned:     make(map[*ast.Object]bool),
		idx:        make(map[*ast.Object]int),
		owner:      make(map[*ast.Object]*simple.Function),
		liveBefore: make(map[*simple.Basic]bits),
		entry:      make(map[*simple.Function]bits),
	}
	in.computePinned(prog)
	in.assignIndices(prog)
	in.solve(prog)
	return in
}

// computePinned marks every variable whose facts can be read without a
// direct mention of the variable: address-taken (reachable through a
// pointer, so map/unmap and multi-level dereferences can touch it),
// array-containing (array decay takes the address implicitly), statics,
// return-value pseudo-variables (the unmap step reads them at every call
// site), variables of unknown type, and — when demanded by the seeds or
// forced by pthread concurrency — all globals.
func (in *Info) computePinned(prog *simple.Program) {
	pinGlobals := in.seeds.PinGlobals
	prog.ForEachBasic(func(b *simple.Basic) {
		// Threads read and write globals concurrently with every
		// statement after the spawn; global liveness is then not a
		// sequential backward problem, so pin all globals.
		if b.Kind == simple.AsgnCall && b.Callee != nil && b.Callee.Name == "pthread_create" {
			pinGlobals = true
		}
		// Defensive address-of at the SIMPLE level: the parser's
		// AddrTaken flag covers source-level &x, but any synthesized
		// AsgnAddr also makes its base reachable through a pointer.
		if b.Kind == simple.AsgnAddr && b.Addr != nil && !b.Addr.Deref {
			in.pinned[b.Addr.Var] = true
		}
	})
	pinVar := func(v *ast.Object) {
		if v == nil {
			return
		}
		if !isVarKind(v.Kind) || v.AddrTaken || v.Static || v.Type == nil || typeHasArray(v.Type) {
			in.pinned[v] = true
		}
	}
	for _, g := range prog.Globals {
		if pinGlobals {
			in.pinned[g] = true
			continue
		}
		pinVar(g)
	}
	for _, f := range prog.Functions {
		if f.RetVal != nil {
			in.pinned[f.RetVal] = true
		}
		for _, v := range f.Params {
			pinVar(v)
		}
		for _, v := range f.Locals {
			pinVar(v)
		}
	}
}

// typeHasArray reports whether t contains an array anywhere outside a
// pointer indirection: such a variable's address is implicitly taken by
// array-to-pointer decay.
func typeHasArray(t *types.Type) bool {
	seen := make(map[*types.Type]bool)
	var walk func(t *types.Type) bool
	walk = func(t *types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch t.Kind {
		case types.Array:
			return true
		case types.Struct, types.Union:
			for _, f := range t.Fields {
				if walk(f.Type) {
					return true
				}
			}
		}
		return false
	}
	return walk(t)
}

func (in *Info) assignIndices(prog *simple.Program) {
	gi := 0
	for _, g := range prog.Globals {
		if !in.pinned[g] && isVarKind(g.Kind) {
			in.idx[g] = gi
			gi++
		}
	}
	in.gwidth = gi
	for _, f := range prog.Functions {
		li := gi
		track := func(v *ast.Object) {
			if v == nil || in.pinned[v] || !isVarKind(v.Kind) {
				return
			}
			if _, dup := in.idx[v]; dup {
				return
			}
			in.idx[v] = li
			in.owner[v] = f
			li++
		}
		for _, v := range f.Params {
			track(v)
		}
		for _, v := range f.Locals {
			track(v)
		}
	}
}

// solver carries the cross-function fixpoint state: per-function live
// tracked globals at entry and exit. Exit sets grow monotonically from
// call-site merges; entry sets are recomputed by the intraprocedural walk.
type solver struct {
	info *Info
	prog *simple.Program

	exit    map[*simple.Function]bits
	changed bool

	addrTaken []*simple.Function // indirect-call / thread fan-out targets
}

func (in *Info) solve(prog *simple.Program) {
	s := &solver{info: in, prog: prog, exit: make(map[*simple.Function]bits)}
	for _, f := range prog.Functions {
		in.entry[f] = newBits(in.gwidth)
		s.exit[f] = newBits(in.gwidth)
		if in.opts.AllFuncs || (f.Obj != nil && f.Obj.AddrTaken) {
			s.addrTaken = append(s.addrTaken, f)
		}
	}
	// Cross-function fixpoint: entry and exit sets only grow, so this
	// terminates; the bound is a safety net, and blowing it falls back
	// to the sound extreme of pinning every tracked global.
	for iter := 0; ; iter++ {
		s.changed = false
		for _, f := range prog.Functions {
			s.walkFn(f)
		}
		if !s.changed {
			break
		}
		if iter > 4*len(prog.Functions)+64 {
			for i := 0; i < in.gwidth; i++ {
				for _, f := range prog.Functions {
					in.entry[f].set(i)
					s.exit[f].set(i)
				}
			}
			s.changed = false
			for _, f := range prog.Functions {
				s.walkFn(f)
			}
			break
		}
	}
	// Global initializers run before main; what is live after them is
	// what main's entry demands.
	if prog.GlobalInit != nil {
		out := newBits(in.gwidth)
		if m := prog.Main(); m != nil {
			out.orInto(in.entry[m])
		}
		w := &walker{s: s, fn: nil, width: in.gwidth}
		w.seq(prog.GlobalInit, out, walkCtx{ret: out})
	}
}

// walkFn runs one backward pass over f's body, records per-statement live
// sets, and merges the resulting entry-global liveness into the summary.
func (s *solver) walkFn(f *simple.Function) {
	width := s.info.gwidth
	for _, v := range append(append([]*ast.Object{}, f.Params...), f.Locals...) {
		if i, ok := s.info.idx[v]; ok && i >= width {
			width = i + 1
		}
	}
	// At return, locals are dead (nothing downstream names them: the
	// unmap step reads only symbolics, globals and the pinned return
	// value) and live globals are the function's exit summary.
	ret := newBits(width)
	ret.orInto(s.exit[f])
	w := &walker{s: s, fn: f, width: width}
	entryLive := w.seq(f.Body, ret, walkCtx{ret: ret})
	eb := s.info.entry[f]
	for i := 0; i < s.info.gwidth; i++ {
		if entryLive.get(i) && !eb.get(i) {
			eb.set(i)
			s.changed = true
		}
	}
}

// mergeExit records that the tracked globals in out (live after a call
// site resolving to f) are live at f's exit.
func (s *solver) mergeExit(f *simple.Function, out bits) {
	eb := s.exit[f]
	for i := 0; i < s.info.gwidth; i++ {
		if out.get(i) && !eb.get(i) {
			eb.set(i)
			s.changed = true
		}
	}
}

// ---------------------------------------------------------------------------
// Backward statement walker

// walkCtx carries the live sets at the targets of the escaping statements:
// break exits the innermost loop or switch, continue re-enters the
// innermost loop's re-test path, return exits the function.
type walkCtx struct {
	brk, cont, ret bits
}

type walker struct {
	s     *solver
	fn    *simple.Function
	width int
}

const maxLoopIter = 100000

// stmt returns the live set before s, given the live set after it.
func (w *walker) stmt(s simple.Stmt, out bits, ctx walkCtx) bits {
	switch s := s.(type) {
	case nil:
		return out
	case *simple.Basic:
		return w.basic(s, out)
	case *simple.Seq:
		return w.seq(s, out, ctx)
	case *simple.If:
		tin := w.seq(s.Then, out, ctx)
		ein := out
		if s.Else != nil {
			ein = w.seq(s.Else, out, ctx)
		}
		return w.union(tin, ein)
	case *simple.While:
		// CondEval; while (Cond) { Body; CondEval }
		h := out.clone() // live at the loop test
		for i := 0; ; i++ {
			ceIn := w.seq(s.CondEval, h, ctx)
			bodyIn := w.seq(s.Body, ceIn, walkCtx{brk: out, cont: ceIn, ret: ctx.ret})
			if !h.orInto(bodyIn) || i > maxLoopIter {
				break
			}
		}
		return w.seq(s.CondEval, h, ctx)
	case *simple.DoWhile:
		// do { Body; CondEval } while (Cond)
		h := out.clone()
		var bodyIn bits
		for i := 0; ; i++ {
			ceIn := w.seq(s.CondEval, h, ctx)
			bodyIn = w.seq(s.Body, ceIn, walkCtx{brk: out, cont: ceIn, ret: ctx.ret})
			if !h.orInto(bodyIn) || i > maxLoopIter {
				break
			}
		}
		return bodyIn
	case *simple.For:
		// Init; CondEval; while (Cond) { Body; Post; CondEval }
		h := out.clone()
		for i := 0; ; i++ {
			ceIn := w.seq(s.CondEval, h, ctx)
			postIn := w.seq(s.Post, ceIn, ctx)
			bodyIn := w.seq(s.Body, postIn, walkCtx{brk: out, cont: postIn, ret: ctx.ret})
			if !h.orInto(bodyIn) || i > maxLoopIter {
				break
			}
		}
		in := w.seq(s.CondEval, h, ctx)
		return w.seq(s.Init, in, ctx)
	case *simple.Switch:
		// Arms fall through right-to-left; any arm (or, without a
		// default, no arm) may be entered from the head.
		next := out
		hasDefault := false
		in := out
		for i := len(s.Cases) - 1; i >= 0; i-- {
			armIn := w.seq(s.Cases[i].Body, next, walkCtx{brk: out, cont: ctx.cont, ret: ctx.ret})
			next = armIn
			in = w.union(in, armIn)
			if s.Cases[i].IsDefault {
				hasDefault = true
			}
		}
		_ = hasDefault // without a default, `out` is already unioned in
		return in
	case *simple.Break:
		if ctx.brk != nil {
			return ctx.brk
		}
		return out
	case *simple.Continue:
		if ctx.cont != nil {
			return ctx.cont
		}
		return out
	case *simple.Return:
		return ctx.ret
	default:
		return out
	}
}

func (w *walker) seq(s *simple.Seq, out bits, ctx walkCtx) bits {
	if s == nil {
		return out
	}
	for i := len(s.List) - 1; i >= 0; i-- {
		out = w.stmt(s.List[i], out, ctx)
	}
	return out
}

// union returns a ∪ b without mutating either (a is reused when possible).
func (w *walker) union(a, b bits) bits {
	add := false
	for i := range b {
		if i < len(a) && a[i]|b[i] != a[i] {
			add = true
			break
		}
	}
	if !add {
		return a
	}
	c := a.clone()
	c.orInto(b)
	return c
}

// basic applies the backward transfer of one basic statement and records
// the live-before set (the set the engine prunes against).
func (w *walker) basic(b *simple.Basic, out bits) bits {
	in := out
	cow := false
	ensure := func() {
		if !cow {
			in = out.clone()
			cow = true
		}
	}
	setBit := func(i int) {
		if !in.get(i) {
			ensure()
			in.set(i)
		}
	}
	// Strong kill: a whole-variable assignment to a plain pointer ends
	// the previous fact's life (the engine performs the matching strong
	// kill). Calls are excluded: a call assigns its LHS only when the
	// callee actually returns pointer data, which we cannot guarantee.
	if !w.s.info.opts.NoKill && killsWholeVar(b) {
		if i, ok := w.trackedIdx(b.LHS.Var); ok && in.get(i) {
			ensure()
			in.clear(i)
		}
	}
	// Uses: the base variable of every reference the engine evaluates,
	// collected field-wise — never by pointer identity against b.LHS,
	// because the simplifier shares one *Ref between the LHS and the X
	// operand of x = x + 1, which would hide the operand read. A
	// non-dereferencing LHS or address-of base is a pure address
	// computation, and a scalar statement's transfer is the identity
	// (Figure 1's is_pointer_type test), so neither reads facts.
	use := func(r *simple.Ref) {
		if r == nil {
			return
		}
		if i, ok := w.trackedIdx(r.Var); ok {
			setBit(i)
		}
	}
	useOp := func(op simple.Operand) {
		if r, ok := op.(*simple.Ref); ok {
			use(r)
		}
	}
	switch {
	case b.Kind == simple.AsgnCall || b.Kind == simple.AsgnCallInd:
		// The engine maps every argument into the callee (and free
		// reads its argument's L-locations).
		if b.LHS != nil && b.LHS.Deref {
			use(b.LHS)
		}
		for _, a := range b.Args {
			useOp(a)
		}
	case pointerStmt(b):
		if b.LHS != nil && b.LHS.Deref {
			use(b.LHS)
		}
		useOp(b.X)
		useOp(b.Y)
		if b.Addr != nil && b.Addr.Deref {
			use(b.Addr)
		}
	}
	if b.FnPtr != nil {
		if i, ok := w.trackedIdx(b.FnPtr); ok {
			setBit(i)
		}
	}
	// Demand seeds are uses: the queried fact must survive to here.
	for _, v := range w.s.info.seeds.Demanded(b) {
		if i, ok := w.trackedIdx(v); ok {
			setBit(i)
		}
	}
	// Calls: the callee's entry-global demand must survive to the call
	// (map reads them), and what is live after the call is live at the
	// callee's exit (its facts flow through the callee's summary).
	for _, cf := range w.calleeFns(b) {
		for i := 0; i < w.s.info.gwidth; i++ {
			if w.s.info.entry[cf].get(i) {
				setBit(i)
			}
		}
		w.s.mergeExit(cf, out)
	}
	w.s.info.liveBefore[b] = in
	return in
}

// trackedIdx resolves v to its bit index, rejecting locals of other
// functions (their index space is reused per function).
func (w *walker) trackedIdx(v *ast.Object) (int, bool) {
	i, ok := w.s.info.idx[v]
	if !ok {
		return 0, false
	}
	if i >= w.s.info.gwidth && w.s.info.owner[v] != w.fn {
		return 0, false
	}
	return i, true
}

// killsWholeVar reports whether b definitely overwrites every points-to
// fact rooted at its LHS variable: a direct, unselected assignment to a
// plain pointer variable. Aggregates are excluded (the engine's kill hits
// only the root path, leaving field facts alive).
func killsWholeVar(b *simple.Basic) bool {
	switch b.Kind {
	case simple.AsgnCopy, simple.AsgnAddr, simple.AsgnUnary, simple.AsgnBinary, simple.AsgnMalloc:
	default:
		return false
	}
	lhs := b.LHS
	if lhs == nil || lhs.Deref || len(lhs.Path) != 0 || lhs.Var == nil {
		return false
	}
	t := lhs.Var.Type
	return t != nil && t.Kind == types.Pointer
}

// calleeFns resolves the defined functions a call statement may invoke.
// Indirect calls widen to every address-taken function (a superset of any
// strategy's resolved target set except AllFuncs, which widens further).
func (w *walker) calleeFns(b *simple.Basic) []*simple.Function {
	switch b.Kind {
	case simple.AsgnCall:
		if b.Callee == nil {
			return nil
		}
		if f := w.s.prog.Lookup(b.Callee.Name); f != nil {
			return []*simple.Function{f}
		}
		return nil
	case simple.AsgnCallInd:
		return w.s.addrTaken
	}
	return nil
}

func isVarKind(k ast.ObjKind) bool { return k == ast.Var || k == ast.Param }

// pointerStmt mirrors the engine's is_pointer_type test: the transfer of a
// statement assigning to a non-pointer location is the identity, so its
// references read no points-to facts.
func pointerStmt(b *simple.Basic) bool {
	if b.LHS == nil {
		return false
	}
	t := b.LHS.Type()
	if t == nil {
		return true // unknown type: the engine processes it, so be conservative
	}
	return t.Decay().Kind == types.Pointer
}
