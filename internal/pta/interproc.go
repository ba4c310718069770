package pta

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cc/ast"
	"repro/internal/cc/types"
	"repro/internal/obsv"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// MapInfo is the context-sensitive map information stored on an invocation
// graph node (paper §4.1): how caller locations are named inside the callee
// and, inversely, which invisible caller variables each symbolic name
// represents.
type MapInfo struct {
	Callee *simple.Function

	// fwd maps an invisible caller location to the callee symbolic
	// location that names it. Visible locations (globals, heap, NULL,
	// strings, functions) map to themselves and are not stored.
	fwd map[*loc.Location]*loc.Location

	// actual maps a caller actual-argument location to the corresponding
	// formal-parameter locations (one actual can be passed to several
	// formals). Used only in the caller-to-callee direction: parameters
	// are copies, so callee changes to a formal are never written back to
	// the actual.
	actual map[*loc.Location][]*loc.Location

	// inv maps a symbolic root to the invisible caller locations it
	// represents — the paper's (1_y, b) map information.
	inv map[*loc.Location][]*loc.Location

	// multi marks symbolic roots that represent more than one real
	// location; relationships involving them cannot stay definite.
	multi map[*loc.Location]bool
}

func newMapInfo(callee *simple.Function) *MapInfo {
	return &MapInfo{
		Callee: callee,
		fwd:    make(map[*loc.Location]*loc.Location),
		actual: make(map[*loc.Location][]*loc.Location),
		inv:    make(map[*loc.Location][]*loc.Location),
		multi:  make(map[*loc.Location]bool),
	}
}

// Translate maps a callee-side location back to the caller locations it
// stands for, using this invocation's map information — the public form of
// the unmap translation for follow-on interprocedural analyses (MOD/REF,
// constant propagation).
func (mi *MapInfo) Translate(res *Result, u *loc.Location) []*loc.Location {
	a := &analyzer{prog: res.Prog, tab: res.Table, opts: res.Opts}
	return mi.translate(a, u)
}

// CalleeNames maps a caller-side location to its callee-side names under
// this invocation's mapping: itself for globals, symbolic names for
// invisible variables. The formal-parameter copy name is excluded — a
// formal may be reassigned inside the callee and then no longer denotes the
// caller's cell. Used by the deep soundness oracle.
func (mi *MapInfo) CalleeNames(res *Result, l *loc.Location) []*loc.Location {
	a := &analyzer{prog: res.Prog, tab: res.Table, opts: res.Opts}
	return mi.calleeNamesOf(a, l, true)
}

// MultiSym reports whether the callee-side location is (an extension of) a
// symbolic name standing for several invisible caller locations; taint and
// other follow-on analyses must weaken relationships through it to possible.
func (mi *MapInfo) MultiSym(res *Result, l *loc.Location) bool {
	a := &analyzer{prog: res.Prog, tab: res.Table, opts: res.Opts}
	return mi.isMultiSym(a, l)
}

// Invisibles exposes the symbolic-name map information for reporting and
// follow-on analyses: symbolic root name -> caller location names.
func (mi *MapInfo) Invisibles() map[string][]string {
	out := make(map[string][]string, len(mi.inv))
	for sym, list := range mi.inv {
		names := make([]string, len(list))
		for i, l := range list {
			names[i] = l.Name()
		}
		sort.Strings(names)
		out[sym.Name()] = names
	}
	return out
}

// prefixLoc reconstructs the location consisting of l's first k path
// elements.
func (a *analyzer) prefixLoc(l *loc.Location, k int) *loc.Location {
	switch l.Kind {
	case loc.Var:
		return a.tab.VarLoc(l.Obj, l.Path[:k])
	case loc.Symbolic:
		return a.tab.SymLoc(l.Fn, l.Sym, l.Path[:k], nil)
	}
	return l
}

// extendBy extends l by the given path elements.
func (a *analyzer) extendBy(l *loc.Location, elems []loc.Elem) *loc.Location {
	for _, e := range elems {
		l = a.tab.Extend(l, e)
		if l == nil {
			return nil
		}
	}
	return l
}

// calleeNamesOf returns every callee-side name of the caller location l:
// itself when globally visible, the matching formal (copy) unless
// excludeActual, and symbolic names via exact or prefix mappings. Multiple
// names arise when an object is reachable both by value and by reference,
// or when overlapping aggregate prefixes were mapped separately.
func (mi *MapInfo) calleeNamesOf(a *analyzer, l *loc.Location, excludeActual bool) []*loc.Location {
	var out []*loc.Location
	if l.IsGlobalish() {
		out = append(out, l)
	}
	for k := len(l.Path); k >= 0; k-- {
		p := l
		if k < len(l.Path) {
			p = a.prefixLoc(l, k)
		}
		rest := l.Path[k:]
		if m, ok := mi.fwd[p]; ok {
			if e := a.extendBy(m, rest); e != nil {
				out = append(out, e)
			}
		}
		if !excludeActual {
			for _, m := range mi.actual[p] {
				if e := a.extendBy(m, rest); e != nil {
					out = append(out, e)
				}
			}
		}
	}
	return dedupeLocs(out)
}

// dedupeLocs sorts names by SortKey and drops duplicates: mapProcess
// anchors a symbolic name at the first name of its source.
func dedupeLocs(in []*loc.Location) []*loc.Location {
	return slices.Compact(loc.SortLocs(in))
}

// symRoot returns the path-less root of a symbolic location.
func (a *analyzer) symRoot(l *loc.Location) *loc.Location {
	if len(l.Path) == 0 {
		return l
	}
	return a.tab.SymLoc(l.Fn, l.Sym, nil, nil)
}

// isMultiSym reports whether l is (an extension of) a symbolic name marked
// as representing multiple invisible variables.
func (mi *MapInfo) isMultiSym(a *analyzer, l *loc.Location) bool {
	if l.Kind != loc.Symbolic {
		return false
	}
	return mi.multi[a.symRoot(l)]
}

// bumpSym derives the symbolic name for the pointees of the callee-side
// location l: 1_x for a variable x, (k+1)_x for the symbolic k_x, and
// 1_<name> for locations with selector paths (paper §4.1).
func bumpSym(l *loc.Location) string {
	if l.Kind == loc.Symbolic && len(l.Path) == 0 {
		if i := strings.IndexByte(l.Sym, '_'); i > 0 {
			if n, err := strconv.Atoi(l.Sym[:i]); err == nil {
				return fmt.Sprintf("%d_%s", n+1, l.Sym[i+1:])
			}
		}
	}
	return "1_" + l.Name()
}

// orderedTriples returns the triples of s whose target pass 1 of
// mapProcess can name, those not globally visible, with definite
// relationships first — the paper's observation that mapping invisibles
// involved in definite relationships first gives more accurate map
// information — and then by source and target SortKey, since the first
// triple to reach an invisible decides its symbolic name.
func orderedTriples(s ptset.Set) []ptset.Triple {
	var ts []ptset.Triple
	s.Range(func(t ptset.Triple) {
		if !t.Dst.IsGlobalish() {
			ts = append(ts, t)
		}
	})
	slices.SortFunc(ts, func(x, y ptset.Triple) int {
		if x.Def != y.Def {
			if x.Def == ptset.D {
				return -1
			}
			return 1
		}
		if c := loc.Compare(x.Src, y.Src); c != 0 {
			return c
		}
		return loc.Compare(x.Dst, y.Dst)
	})
	return ts
}

// mapProcess builds the callee's input points-to set from the caller's set
// at the call site (paper §4.1): formals inherit from actuals, globals keep
// their relationships, indirectly accessible invisible variables get
// symbolic names, recursively through all pointer levels.
func (a *analyzer) mapProcess(in ptset.Set, b *simple.Basic, callee *simple.Function) (ptset.Set, *MapInfo) {
	mi := newMapInfo(callee)

	// Seed: actual -> formal (by copy).
	for i, arg := range b.Args {
		if i >= len(callee.Params) {
			break
		}
		formal := callee.Params[i]
		if formal.Type == nil || !formal.Type.HasPointers() {
			continue
		}
		if ref, ok := arg.(*simple.Ref); ok && !ref.Deref && len(ref.Path) == 0 &&
			ref.Var.Kind != ast.FuncObj {
			key := a.tab.VarLoc(ref.Var, nil)
			mi.actual[key] = append(mi.actual[key], a.tab.VarLoc(formal, nil))
		}
	}

	// Pass 1: assign symbolic names to invisible locations reachable from
	// the callee, definite relationships first.
	//
	// The "already named" test must ignore the actual->formal copy naming:
	// a caller variable that is passed by value AND reachable through a
	// pointer argument still needs its own symbolic name — the formal is a
	// copy, not an alias, so naming the pointee after the formal would
	// route writes through the pointer to the wrong location (and the
	// pointer edge would otherwise be dropped entirely).
	triples := orderedTriples(in)
	for changed := true; changed; {
		changed = false
		for _, t := range triples {
			ns := mi.calleeNamesOf(a, t.Src, false)
			if len(ns) == 0 {
				continue
			}
			if len(mi.calleeNamesOf(a, t.Dst, true)) > 0 {
				continue // already named (excluding formal copies)
			}
			anchor := ns[0]
			sym := a.tab.SymLoc(callee, bumpSym(anchor), nil, pointeeType(anchor.Type()))
			mi.fwd[t.Dst] = sym
			mi.inv[sym] = append(mi.inv[sym], t.Dst)
			changed = true
		}
	}

	// A symbolic representing several invisibles — or any location that is
	// itself multiple — cannot carry definite relationships.
	for sym, list := range mi.inv {
		if len(list) > 1 {
			mi.multi[sym] = true
			continue
		}
		if len(list) == 1 && list[0].Multi() {
			mi.multi[sym] = true
		}
	}

	// Pass 2: emit the mapped relationships. Insertion is commutative, so
	// unordered iteration is safe and avoids sorting the whole set. Range
	// visits a source's triples together, so its names are computed once.
	funcInput := ptset.New()
	var src *loc.Location
	var srcs []*loc.Location
	in.Range(func(t ptset.Triple) {
		if t.Src != src {
			src, srcs = t.Src, mi.calleeNamesOf(a, t.Src, false)
		}
		if len(srcs) == 0 {
			return
		}
		var dsts []*loc.Location
		if t.Dst.IsGlobalish() {
			dsts = []*loc.Location{t.Dst}
		} else {
			dsts = mi.calleeNamesOf(a, t.Dst, true)
		}
		for _, ns := range srcs {
			for _, nt := range dsts {
				d := t.Def
				if mi.isMultiSym(a, ns) || mi.isMultiSym(a, nt) {
					d = ptset.P
				}
				funcInput.Insert(ns, nt, d)
			}
		}
	})

	// Constant arguments bind formals directly.
	for i, arg := range b.Args {
		if i >= len(callee.Params) {
			break
		}
		formal := callee.Params[i]
		if formal.Type == nil || formal.Type.Decay().Kind != types.Pointer {
			continue
		}
		fl := a.tab.VarLoc(formal, nil)
		switch arg.(type) {
		case *simple.ConstNull:
			funcInput.Insert(fl, a.tab.NullLoc(), ptset.D)
		case *simple.ConstString:
			funcInput.Insert(fl, a.tab.StrLoc(), ptset.P)
		}
	}
	return funcInput, mi
}

// translate maps a callee-side location back to the caller locations it
// stands for: globals map to themselves, symbolic names to the invisible
// variables they represent, and callee locals/formals to nothing (paper
// §4.1's unmap).
func (mi *MapInfo) translate(a *analyzer, u *loc.Location) []*loc.Location {
	if u.IsGlobalish() {
		return []*loc.Location{u}
	}
	if u.Kind == loc.Symbolic && u.Fn == mi.Callee {
		root := a.symRoot(u)
		var out []*loc.Location
		for _, c := range mi.inv[root] {
			if e := a.extendBy(c, u.Path); e != nil {
				out = append(out, e)
			}
		}
		return dedupeLocs(out)
	}
	return nil
}

// unmapProcess maps the callee's output points-to set back to the call site
// (paper §4.1): relationships of caller locations the callee could access
// are replaced by the translated callee output; everything else survives.
func (a *analyzer) unmapProcess(callerIn, funcOut ptset.Set, mi *MapInfo, b *simple.Basic, callee *simple.Function) ptset.Set {
	if funcOut.IsBottom() {
		return ptset.NewBottom()
	}
	out := callerIn.Clone()
	var src *loc.Location
	callerIn.Range(func(t ptset.Triple) {
		if t.Src == src {
			return // a source's triples come together: it is decided
		}
		src = t.Src
		if src.IsGlobalish() || len(mi.calleeNamesOf(a, src, true)) > 0 {
			out.Kill(src)
		}
	})
	funcOut.Range(func(t ptset.Triple) {
		cus := mi.translate(a, t.Src)
		if len(cus) == 0 {
			return
		}
		cvs := mi.translate(a, t.Dst)
		d := t.Def
		if len(cus) > 1 || len(cvs) > 1 ||
			mi.isMultiSym(a, t.Src) || mi.isMultiSym(a, t.Dst) {
			d = ptset.P
		}
		for _, cu := range cus {
			for _, cv := range cvs {
				dd := d
				if cu.Multi() {
					dd = ptset.P
				}
				out.Insert(cu, cv, dd)
			}
		}
	})
	return a.applyReturnValue(out, funcOut, mi, b, callee)
}

// applyReturnValue returns out after assigning the callee's __retval
// relationships to the call LHS, as the assignment lhs = retval.
func (a *analyzer) applyReturnValue(out, funcOut ptset.Set, mi *MapInfo, b *simple.Basic, callee *simple.Function) ptset.Set {
	if b.LHS == nil || callee.RetVal == nil {
		return out
	}
	rt := callee.RetVal.Type
	if rt == nil || !rt.HasPointers() {
		return out
	}
	for _, path := range loc.PointerPaths(rt) {
		rv := a.tab.VarLoc(callee.RetVal, path)
		var set locDSet
		funcOut.RangeTargets(rv, func(t ptset.Triple) {
			cvs := mi.translate(a, t.Dst)
			d := t.Def
			if len(cvs) > 1 || mi.isMultiSym(a, t.Dst) {
				d = ptset.P
			}
			for _, cv := range cvs {
				set.add(cv, d)
			}
		})
		lhsRef := refWithElems(b.LHS, path)
		out = a.applyAssign(out, a.llocs(lhsRef, out), set)
	}
	return out
}

// refWithElems extends a SIMPLE reference by location path elements
// (head/tail become index selectors).
func refWithElems(r *simple.Ref, elems []loc.Elem) *simple.Ref {
	nr := r
	for _, e := range elems {
		var sel simple.Sel
		if e.Arr {
			if e.Tail {
				sel = simple.IndexSel(simple.IdxPos)
			} else {
				sel = simple.IndexSel(simple.IdxZero)
			}
		} else {
			sel = simple.FieldSel(e.Field)
		}
		nr = extendSimpleRef(nr, sel)
	}
	return nr
}

func extendSimpleRef(r *simple.Ref, sel simple.Sel) *simple.Ref {
	nr := &simple.Ref{
		Var: r.Var, Deref: r.Deref, Pos: r.Pos,
		Path:  append([]simple.Sel{}, r.Path...),
		DPath: append([]simple.Sel{}, r.DPath...),
	}
	if r.Deref {
		nr.DPath = append(nr.DPath, sel)
	} else {
		nr.Path = append(nr.Path, sel)
	}
	return nr
}

// ---------------------------------------------------------------------------
// Call processing (paper Figures 4 and 5)

// processDirectCall handles f(...) statements.
func (a *analyzer) processDirectCall(b *simple.Basic, in ptset.Set, ign *invgraph.Node, tk obsv.Track) ptset.Set {
	callee := a.prog.Lookup(b.Callee.Name)
	if callee == nil {
		if out, ok := a.processPthreadCall(b, in, ign, tk); ok {
			return out
		}
		return a.processExternalCall(b, in)
	}
	child := a.g.ChildFor(ign, b)
	if child == nil {
		// Defensive: a call site missed by static construction (should
		// not happen) is expanded dynamically.
		child = a.g.AddIndirectChild(ign, b, callee)
	}
	return a.invoke(child, b, callee, in, tk)
}

// invoke maps the input, processes the invocation-graph node and unmaps the
// result (Figure 3's overall strategy).
func (a *analyzer) invoke(child *invgraph.Node, b *simple.Basic, callee *simple.Function, in ptset.Set, tk obsv.Track) ptset.Set {
	a.m.MapOps.Inc()
	sp := a.tracer.Begin(tk, obsv.CatMap, "map", callee.Name())
	funcInput, mi := a.mapProcess(in, b, callee)
	sp.End()
	child.MapInfo = mi
	funcOutput := a.processCallNode(child, funcInput, tk)
	if funcOutput.IsBottom() {
		return ptset.NewBottom()
	}
	a.m.UnmapOps.Inc()
	sp = a.tracer.Begin(tk, obsv.CatUnmap, "unmap", callee.Name())
	out := a.unmapProcess(in, funcOutput, mi, b, callee)
	sp.End()
	return out
}

// processCallNode implements process_call of Figure 4: memoized evaluation
// for ordinary nodes, stored-approximation lookup with pending-list
// registration for approximate nodes, and the input/output generalizing
// fixed point for recursive nodes.
func (a *analyzer) processCallNode(n *invgraph.Node, funcInput ptset.Set, tk obsv.Track) ptset.Set {
	if a.opts.ContextInsensitive && n.Parent != nil {
		// The context-insensitive ablation keeps one summary per
		// function regardless of the invocation path.
		return a.processCI(n.Fn, funcInput, tk)
	}
	if n.Kind == invgraph.Approximate {
		// The recursive partner is an ancestor whose fixed-point loop is
		// currently suspended (its goroutine chain is waiting on this
		// subtree), so its stored input/output are stable here; only the
		// pending-list append needs serializing, because sibling subtrees
		// evaluated in parallel can reach the same partner.
		rec := n.RecPartner
		if rec.HasInput && ptset.Subset(funcInput, rec.StoredInput) {
			a.tracer.Instant(tk, obsv.CatNode, "approx-hit", n.Fn.Name())
			return rec.StoredOutput
		}
		a.recMu.Lock()
		rec.Pending = append(rec.Pending, funcInput)
		a.recMu.Unlock()
		a.tracer.Instant(tk, obsv.CatNode, "approx-pending", n.Fn.Name())
		return ptset.NewBottom()
	}

	// Input-keyed memoization: the node keeps a summary for every mapped
	// input it has been evaluated under, generalizing Figure 4's single
	// stored IN/OUT pair, and a lookup compares inputs by structure. The
	// node is only ever processed by the goroutine that owns its subtree,
	// so its list needs no lock.
	if !a.opts.NoMemo {
		if out, ok := invgraph.FindSummary(n.Memo, funcInput); ok {
			a.m.MemoHits.Inc()
			a.m.Func(n.Fn.Name()).MemoHits.Inc()
			a.tracer.Instant(tk, obsv.CatNode, "memo-hit", n.Fn.Name())
			return out
		}
		a.m.MemoMisses.Inc()
	}

	// Global summary sharing (the paper's §6 future-work optimization): a
	// completed summary for the same abstract input, computed anywhere in
	// the graph, can be reused — the callee-side result depends only on
	// the mapped input, not on which caller produced it.
	if a.shared != nil {
		if out, ok := invgraph.FindSummary(a.shared[n.Fn], funcInput); ok {
			a.m.SharedHits.Inc()
			n.StoredInput = funcInput
			n.HasInput = true
			n.StoredOutput = out
			n.HasResult = true
			return out
		}
	}

	// A real body evaluation: record it on the metrics registry (count,
	// inclusive wall time, fixed-point effort) and open the node span.
	a.m.NodeEvals.Inc()
	fc := a.m.Func(n.Fn.Name())
	fc.Evals.Inc()
	evalStart := time.Now()
	nodeSpan := a.tracer.Begin(tk, obsv.CatNode, n.Fn.Name(), n.Kind.String())

	n.StoredInput = funcInput
	n.HasInput = true
	n.StoredOutput = ptset.NewBottom()
	n.HasResult = false
	n.Pending = nil

	const maxIter = 1000
	for iter := 0; ; iter++ {
		var iterSpan obsv.Span
		if a.tracer != nil && n.Kind == invgraph.Recursive {
			iterSpan = a.tracer.Begin(tk, obsv.CatFixpoint, n.Fn.Name(), "iter "+strconv.Itoa(iter))
		}
		out := a.analyzeBody(n, tk)
		iterSpan.End()
		if iter > 0 {
			// Extra passes beyond the first are fixed-point effort.
			a.m.FixpointIters.Inc()
			fc.FixpointIters.Inc()
		}
		if len(n.Pending) > 0 {
			// Unresolved recursive inputs: generalize and restart.
			a.m.PendingRestarts.Inc()
			a.tracer.Instant(tk, obsv.CatFixpoint, "pending-restart", n.Fn.Name())
			n.StoredInput = ptset.MergeAll(append(n.Pending, n.StoredInput)...)
			n.Pending = nil
			n.StoredOutput = ptset.NewBottom()
			continue
		}
		if ptset.Subset(out, n.StoredOutput) {
			break
		}
		n.StoredOutput = ptset.Merge(n.StoredOutput, out)
		// A node not (yet) involved in recursion converges in one pass.
		if n.Kind != invgraph.Recursive {
			break
		}
		if iter >= maxIter {
			a.diagf("recursion fixed point for %s did not converge", n.Fn.Name())
			break
		}
	}
	n.StoredInput = funcInput // reset to the initial input for memoization
	n.HasResult = true
	sum := invgraph.Summary{In: funcInput, Out: n.StoredOutput}
	if !a.opts.NoMemo {
		n.Memo = append(n.Memo, sum)
	}
	if a.shared != nil {
		a.shared[n.Fn] = append(a.shared[n.Fn], sum)
	}
	fc.AddWall(time.Since(evalStart))
	nodeSpan.End()
	return n.StoredOutput
}

// analyzeBody runs the intraprocedural rules over a function body with the
// node's stored input, initializing local pointers to NULL.
func (a *analyzer) analyzeBody(n *invgraph.Node, tk obsv.Track) ptset.Set {
	in := n.StoredInput.Clone()
	for _, l := range n.Fn.Locals {
		a.initNull(in, l)
	}
	if n.Fn.RetVal != nil {
		a.initNull(in, n.Fn.RetVal)
	}
	f := a.processStmt(n.Fn.Body, in, n, tk)
	return ptset.MergeAll(append(f.rets, f.out)...)
}

// processIndirectCall implements process_call_indirect of Figure 5: the
// indirect call is resolved to the functions the pointer can point to, the
// invocation graph is extended, and each target is analyzed with the
// pointer definitely bound to it.
func (a *analyzer) processIndirectCall(b *simple.Basic, in ptset.Set, ign *invgraph.Node, tk obsv.Track) ptset.Set {
	fpLoc := a.tab.VarLoc(b.FnPtr, nil)

	var targets []*simple.Function
	switch a.opts.FnPtr {
	case Precise:
		in.RangeTargets(fpLoc, func(t ptset.Triple) {
			if t.Dst.Kind == loc.Func {
				if fn := a.prog.Lookup(t.Dst.Obj.Name); fn != nil {
					targets = append(targets, fn)
				}
			}
		})
	case AddrTaken:
		for _, fn := range a.prog.Functions {
			if fn.Obj.AddrTaken {
				targets = append(targets, fn)
			}
		}
	case AllFuncs:
		targets = append(targets, a.prog.Functions...)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Name() < targets[j].Name() })

	if len(targets) == 0 {
		a.diagf("%s: indirect call through %s has no known targets", b.Pos, b.FnPtr.Name)
		return in
	}

	// Create the children serially in sorted target order, so the invocation
	// graph (and any recursion approximation it triggers) is identical to
	// the serial analysis, then evaluate the target subtrees in parallel.
	// Each target gets its own input, with the pointer bound to it, and the
	// outputs are merged in index order, so the result is bit-identical for
	// every worker count.
	children := make([]*invgraph.Node, len(targets))
	for i, fn := range targets {
		children[i] = a.g.AddIndirectChild(ign, b, fn)
	}
	outs := make([]ptset.Set, len(targets))
	a.runParallel(tk, len(targets), func(i int, tk obsv.Track) {
		fn := targets[i]
		// While analyzing target fn, the pointer definitely points to it.
		inF := in.Update([]*loc.Location{fpLoc}, nil, []ptset.Triple{{Src: fpLoc, Dst: a.tab.FuncLoc(fn.Obj), Def: ptset.D}})
		outs[i] = a.invoke(children[i], b, fn, inF, tk)
	})
	return ptset.MergeAll(outs...)
}
