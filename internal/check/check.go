// Package check is a flow- and context-sensitive memory-safety linter built
// on the D/P points-to results: it walks the SIMPLE IR with the
// per-program-point, per-invocation-graph-node annotations and reports NULL
// dereferences, dereferences of uninitialized pointers, use-after-free and
// double-free, and stack addresses escaping their frame.
//
// Severity follows the paper's definite/possible split, lifted to calling
// contexts: a diagnostic is an *error* when the misuse is certain in every
// analyzed invocation-graph context of the statement, and a *warning* when
// it is possible in at least one. Certainty rests on the coverage invariant
// (Definition 3.3): if every abstract target of a dereferenced pointer is
// NULL or freed storage, every concrete value the pointer can hold at that
// point is invalid, so execution of the statement must fault. Per-context
// annotations merge repeated visits of one node, and merging only weakens
// definiteness — so an all-bad merged set means all-bad on every real visit.
package check

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cc/token"
	"repro/internal/pta"
	"repro/internal/pta/ctxwalk"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/live"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// Severity grades a diagnostic.
type Severity int

// Severities: Warning for misuse possible in some context, Error for misuse
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

// Kind names the checker that produced a diagnostic.
type Kind string

// Diagnostic kinds.
const (
	NullDeref    Kind = "null-deref"
	UninitDeref  Kind = "uninit-deref"
	UseAfterFree Kind = "use-after-free"
	DoubleFree   Kind = "double-free"
	InvalidFree  Kind = "invalid-free"
	Dangling     Kind = "dangling-pointer"
)

// Diag is one positioned diagnostic.
type Diag struct {
	Pos  token.Pos
	Sev  Severity
	Kind Kind
	Msg  string
	// Ctx is the invocation-graph path that triggers the misuse, e.g.
	// "main -> f -> g" (for an error, any path works: all are bad).
	Ctx string
	// Fn is the enclosing function.
	Fn string
	// Stmt is the faulting basic statement; nil for dangling-pointer
	// diagnostics, which are properties of a whole invocation rather than
	// of one statement.
	Stmt *simple.Basic
}

func (d Diag) String() string {
	s := fmt.Sprintf("%s: %s: %s: %s", d.Pos, d.Sev, d.Kind, d.Msg)
	if d.Ctx != "" {
		s += fmt.Sprintf(" [context: %s]", d.Ctx)
	}
	return s
}

// Run checks the analyzed program and returns its diagnostics, sorted by
// position. The analysis must have been run with Options.RecordContexts (the
// per-node annotations drive the error/warning split) and without
// ShareContexts (a shared-summary cache hit skips the body re-analysis, so
// the reused context would record no annotations and an absent-but-clean
// context could be mistaken for "bad in every context").
func Run(res *pta.Result) ([]Diag, error) {
	if res.Opts.ShareContexts {
		return nil, fmt.Errorf("check: analysis ran with ShareContexts; re-run without it")
	}
	if !res.Annots.ContextsEnabled() {
		return nil, fmt.Errorf("check: analysis ran without Options.RecordContexts")
	}
	c := &checker{res: res}
	c.walk(res.Prog.GlobalInit, "<global init>")
	for _, fn := range res.Prog.Functions {
		c.walk(fn.Body, fn.Name())
	}
	c.dangling()
	slices.SortStableFunc(c.diags, func(a, b Diag) int {
		return cmp.Or(a.Pos.Compare(b.Pos), cmp.Compare(a.Kind, b.Kind))
	})
	return c.diags, nil
}

type checker struct {
	res   *pta.Result
	diags []Diag
	ctxs  ctxwalk.Order
}

func (c *checker) walk(body *simple.Seq, fnName string) {
	simple.WalkStmts(body, func(s simple.Stmt) {
		b, ok := s.(*simple.Basic)
		if !ok {
			return
		}
		refs := slices.DeleteFunc(derefRefs(b), func(r *simple.Ref) bool { return !pointerBase(r) })
		var arg *simple.Ref
		if b.Kind == simple.AsgnCall && b.Callee.Name == "free" &&
			c.res.Prog.Lookup("free") == nil && len(b.Args) == 1 {
			arg, _ = b.Args[0].(*simple.Ref)
		}
		if len(refs) == 0 && arg == nil {
			return
		}
		nodes, ins := c.sortedContexts(b)
		if len(nodes) == 0 {
			return
		}
		for _, r := range refs {
			c.checkDeref(b, r, fnName, nodes, ins)
		}
		if arg != nil {
			c.checkFree(b, arg, fnName, nodes, ins)
		}
	})
}

// derefRefs collects the references of b that actually load from or store to
// the pointed-to cell. Address computations (the operand of &ref) touch only
// the pointer itself and are excluded.
func derefRefs(b *simple.Basic) []*simple.Ref {
	var out []*simple.Ref
	add := func(op simple.Operand) {
		if r, ok := op.(*simple.Ref); ok && r.Deref {
			out = append(out, r)
		}
	}
	if b.LHS != nil && b.LHS.Deref {
		out = append(out, b.LHS)
	}
	switch b.Kind {
	case simple.AsgnCopy, simple.AsgnUnary, simple.AsgnMalloc:
		add(b.X)
	case simple.AsgnBinary:
		add(b.X)
		add(b.Y)
	case simple.AsgnCall, simple.AsgnCallInd:
		for _, a := range b.Args {
			add(a)
		}
	}
	return out
}

// sortedContexts returns the invocation-graph nodes that analyzed b, in
// context order, and their inputs.
func (c *checker) sortedContexts(b *simple.Basic) ([]*invgraph.Node, map[*invgraph.Node]ptset.Set) {
	ins := c.res.Annots.ContextsAt(b)
	nodes := make([]*invgraph.Node, 0, len(ins))
	for n := range ins {
		nodes = append(nodes, n)
	}
	slices.SortFunc(nodes, c.ctxs.Compare)
	return nodes, ins
}

// verdict is one context's judgement of a pointer use.
type verdict struct {
	checked  bool // the use was evaluable in this context
	empty    bool // the pointer has no targets at all
	bad      bool // some target is invalid for this use
	definite bool // every target is invalid: the use must fault
	freed    bool // an invalid target is freed storage
}

// derefVerdict judges a dereference of r under the context input in: the
// targets of r's base locations are the values the pointer can hold, and a
// NULL or freed target is invalid to dereference.
func (c *checker) derefVerdict(r *simple.Ref, in ptset.Set) verdict {
	base := &simple.Ref{Var: r.Var, Path: r.Path, Pos: r.Pos}
	var v verdict
	v.checked = true
	total, good := 0, 0
	for _, bl := range pta.EvalBaseLocs(c.res, base) {
		for _, t := range in.Targets(bl.Loc) {
			total++
			switch t.Dst.Kind {
			case loc.Null:
				v.bad = true
			case loc.Freed:
				v.bad, v.freed = true, true
			default:
				good++
			}
		}
	}
	if total == 0 {
		v.empty = true
		return v
	}
	v.definite = v.bad && good == 0
	return v
}

// freeVerdict judges free(arg) under the context input in: the R-locations
// of arg are the objects being deallocated. Heap is legal, NULL is a no-op,
// freed storage is a double free, and anything else (a named variable, a
// string literal, a function) is an invalid free. Every non-heap, non-NULL
// target faults at runtime, so a target set free of both makes the fault
// definite.
func (c *checker) freeVerdict(arg *simple.Ref, in ptset.Set) verdict {
	var v verdict
	v.checked = true
	total, ok := 0, 0
	for _, rl := range pta.EvalRLocsOfRef(c.res, arg, in) {
		total++
		switch rl.Loc.Kind {
		case loc.Heap, loc.Null: // heap is the legal case; free(NULL) is a no-op
			ok++
		case loc.Freed:
			v.bad, v.freed = true, true
		default:
			v.bad = true
		}
	}
	v.empty = total == 0
	v.definite = v.bad && ok == 0
	return v
}

// report aggregates per-context verdicts into at most one diagnostic:
// definite in every context is an error; bad (or target-less) in some
// context is a warning.
func (c *checker) report(b *simple.Basic, pos token.Pos, fnName string,
	nodes []*invgraph.Node, vs []verdict, msg func(v verdict, sev Severity) (Kind, string)) {
	checked := 0
	definite := 0
	var worst *verdict
	worstCtx := ""
	for i := range vs {
		if !vs[i].checked {
			continue
		}
		checked++
		if vs[i].definite {
			definite++
		}
		if vs[i].bad || vs[i].empty {
			if worst == nil || (!worst.bad && vs[i].bad) ||
				(!worst.definite && vs[i].definite) {
				worst = &vs[i]
				worstCtx = c.ctxs.Path(nodes[i])
			}
		}
	}
	if worst == nil || checked == 0 {
		return
	}
	sev := Warning
	if definite == checked && worst.definite {
		sev = Error
		worstCtx = c.ctxs.Path(nodes[0])
	}
	kind, text := msg(*worst, sev)
	if !pos.IsValid() {
		pos = b.Pos
	}
	c.diags = append(c.diags, Diag{
		Pos: pos, Sev: sev, Kind: kind, Msg: text,
		Ctx: worstCtx, Fn: fnName, Stmt: b,
	})
}

func (c *checker) checkDeref(b *simple.Basic, r *simple.Ref, fnName string, nodes []*invgraph.Node, ins map[*invgraph.Node]ptset.Set) {
	vs := make([]verdict, len(nodes))
	for i, n := range nodes {
		vs[i] = c.derefVerdict(r, ins[n])
	}
	c.report(b, r.Pos, fnName, nodes, vs, func(v verdict, sev Severity) (Kind, string) {
		verb := "dereferences"
		if sev == Warning {
			verb = "may dereference"
		}
		switch {
		case v.freed:
			return UseAfterFree, fmt.Sprintf("'%s' %s freed heap storage", r, verb)
		case v.bad:
			return NullDeref, fmt.Sprintf("'%s' %s a NULL pointer", r, verb)
		default:
			return UninitDeref, fmt.Sprintf("'%s' dereferences a pointer with no targets (uninitialized or dangling)", r)
		}
	})
}

func (c *checker) checkFree(b *simple.Basic, arg *simple.Ref, fnName string, nodes []*invgraph.Node, ins map[*invgraph.Node]ptset.Set) {
	vs := make([]verdict, len(nodes))
	for i, n := range nodes {
		vs[i] = c.freeVerdict(arg, ins[n])
	}
	// A free with no information at all is not worth reporting.
	anyBad := false
	for _, v := range vs {
		if v.bad {
			anyBad = true
		}
	}
	if !anyBad {
		return
	}
	c.report(b, b.Pos, fnName, nodes, vs, func(v verdict, sev Severity) (Kind, string) {
		verb := "frees"
		if sev == Warning {
			verb = "may free"
		}
		if v.freed {
			return DoubleFree, fmt.Sprintf("'%s' %s already-freed storage (double free)", arg, verb)
		}
		return InvalidFree, fmt.Sprintf("'%s' %s a non-heap object", arg, verb)
	})
}

// pointerBase reports whether r's base (the part before the dereference)
// denotes a pointer-valued cell. Unknown types are skipped: a misuse verdict
// needs the base to really be a pointer.
func pointerBase(r *simple.Ref) bool {
	base := &simple.Ref{Var: r.Var, Path: r.Path}
	t := base.Type()
	if t == nil {
		return false
	}
	return t.Decay().IsPointerLike()
}

// ---------------------------------------------------------------------------
// Dangling stack pointers

// escapeRoute classifies how the address of a callee local can outlive the
// invocation, looking at the source of the edge in the callee's exit set.
func escapeRoute(src *loc.Location, fn *simple.Function) string {
	switch {
	case fn.RetVal != nil && src.Kind == loc.Var && src.Obj == fn.RetVal:
		return "the return value"
	case src.Kind == loc.Var && src.Obj != nil && src.Obj.Global:
		return fmt.Sprintf("global '%s'", src.Name())
	case src.Kind == loc.Symbolic && src.Owner() == fn:
		return fmt.Sprintf("caller-visible cell '%s'", src.Name())
	case src.Kind == loc.Heap:
		return "heap storage"
	case src.Kind == loc.Str:
		return "string storage"
	}
	return ""
}

// dangling reports callee locals whose address survives in the exit
// points-to set of an invocation through an escaping source: the caller can
// observe a pointer into the dead frame. The severity lifts per-node edge
// definiteness across all invocations of the function: definite escape in
// every analyzed invocation is an error, anything else a warning.
func (c *checker) dangling() {
	type key struct {
		fn  *simple.Function
		src *loc.Location
		dst *loc.Location
	}
	type info struct {
		nodes    int // invocations where the escape occurs
		definite int // ... with a definite edge
		route    string
		ctx      string
	}
	found := make(map[key]*info)
	order := []key{}
	perFn := make(map[*simple.Function]int)

	c.res.Graph.Walk(func(n *invgraph.Node) {
		if n.Parent == nil || !n.HasResult || n.StoredOutput.IsBottom() {
			return
		}
		perFn[n.Fn]++
		for _, t := range n.StoredOutput.Triples() {
			d := t.Dst
			if d.Kind != loc.Var || d.Owner() != n.Fn || d.Obj == nil || d.Obj.Global {
				continue
			}
			if n.Fn.RetVal != nil && d.Obj == n.Fn.RetVal {
				continue // the retval pseudo-cell is not program storage
			}
			route := escapeRoute(t.Src, n.Fn)
			if route == "" {
				continue
			}
			k := key{n.Fn, t.Src, d}
			in := found[k]
			if in == nil {
				in = &info{route: route, ctx: n.Path()}
				found[k] = in
				order = append(order, k)
			}
			in.nodes++
			if t.Def == ptset.D {
				in.definite++
			}
		}
	})

	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.fn.Name() != b.fn.Name() {
			return a.fn.Name() < b.fn.Name()
		}
		if a.dst.Name() != b.dst.Name() {
			return a.dst.Name() < b.dst.Name()
		}
		return a.src.Name() < b.src.Name()
	})
	for _, k := range order {
		in := found[k]
		sev := Warning
		verb := "may escape"
		if in.definite == perFn[k.fn] && in.definite > 0 {
			sev = Error
			verb = "escapes"
		}
		pos := k.fn.Pos
		if k.dst.Obj != nil && k.dst.Obj.Pos.IsValid() {
			pos = k.dst.Obj.Pos
		}
		c.diags = append(c.diags, Diag{
			Pos: pos, Sev: sev, Kind: Dangling,
			Msg: fmt.Sprintf("address of local '%s' of %s %s via %s",
				k.dst.Name(), k.fn.Name(), verb, in.route),
			Ctx: in.ctx, Fn: k.fn.Name(),
		})
	}
}

// DemandSeeds returns the demand this checker places on a points-to
// analysis run in demand mode (pta.Options.Demand): exact facts at every
// statement that dereferences a pointer and at every free call, with all
// globals pinned — the dangling-pointer pass walks global-source triples
// in every call context's output set, so global facts must survive
// everywhere. An analysis seeded with this demand yields bit-identical
// checker diagnostics to an exhaustive run.
func DemandSeeds(prog *simple.Program) *live.Seeds {
	s := live.NewSeeds()
	s.PinGlobals = true
	prog.ForEachBasic(func(b *simple.Basic) {
		if len(derefRefs(b)) > 0 {
			s.AddStmtRefs(b)
			return
		}
		if b.Kind == simple.AsgnCall && b.Callee.Name == "free" {
			s.AddStmtRefs(b)
		}
	})
	return s
}
