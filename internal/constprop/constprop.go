// Package constprop implements a generalized constant propagation built on
// the points-to analysis, in the spirit of the framework client the paper
// describes in §6.1 (Hendren, Emami, Ghiya & Verbrugge: "a practical
// context-sensitive interprocedural analysis framework"): the points-to
// results let the propagator see through pointer loads and stores — a store
// through a definitely-known pointer updates exactly one location, a load
// through a pointer reads a constant only when all its possible targets
// hold it — and the invocation graph supplies the call structure. Each
// invocation's body is walked with ctxwalk's statement rules.
//
// The state holds, per abstract location, the integer constant it
// definitely holds; a location without one is not a constant.
package constprop

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/cc/ast"
	"repro/internal/cc/token"
	"repro/internal/modref"
	"repro/internal/pta"
	"repro/internal/pta/ctxwalk"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// env maps abstract locations to the integer constants they hold on every
// path to a program point; a location it lacks is not a constant. The nil
// env is the walk's dead state. Transfer functions copy an env before they
// change it.
type env map[*loc.Location]int64

func (e env) Dead() bool { return e == nil }

// Join keeps the constants both paths agree on.
func (e env) Join(o env) env {
	switch {
	case e == nil:
		return o
	case o == nil:
		return e
	}
	out := make(env, min(len(e), len(o)))
	for l, c := range e {
		if d, ok := o[l]; ok && d == c {
			out[l] = c
		}
	}
	return out
}

func (e env) Equal(o env) bool { return maps.Equal(e, o) }

// with returns e with l holding c (ok) or no constant (!ok), copying e only
// when that changes it.
func (e env) with(l *loc.Location, c int64, ok bool) env {
	if old, had := e[l]; had == ok && (!ok || old == c) {
		return e
	}
	out := maps.Clone(e)
	if ok {
		out[l] = c
	} else {
		delete(out, l)
	}
	return out
}

// Finding is one statement whose right-hand side evaluates to a constant.
type Finding struct {
	Stmt  *simple.Basic
	Value int64
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: `%s` = %d", f.Stmt.Pos, f.Stmt, f.Value)
}

// Result is the outcome of constant propagation.
type Result struct {
	// Constants lists statements whose computed value is a known
	// constant, in program order.
	Constants []Finding
}

// propagator runs the analysis over one program using a completed points-to
// result and its interprocedural MOD sets.
type propagator struct {
	res *pta.Result
	mod *modref.Result
	// found holds each visited copy, unary or binary statement's value;
	// varies marks those that are not the same constant on every visit.
	found  map[*simple.Basic]int64
	varies map[*simple.Basic]bool
}

// RunWithMod performs constant propagation per invocation-graph node, using
// interprocedural MOD sets at call sites: a call only invalidates the
// locations its resolved callees may actually write — the generalized,
// framework-backed variant §6.1 points at. Each node starts with no
// constants but, in main, those of the global initializers.
func RunWithMod(res *pta.Result, mod *modref.Result) *Result {
	p := &propagator{res: res, mod: mod,
		found: make(map[*simple.Basic]int64), varies: make(map[*simple.Basic]bool)}
	w := ctxwalk.Walker[env]{Basic: p.basic}
	res.Graph.Walk(func(n *invgraph.Node) {
		entry := env{}
		if n.Fn == res.Prog.Main() {
			entry = w.Body(n, res.Prog.GlobalInit, entry)
		}
		w.Node(n, entry)
	})
	out := &Result{}
	for b, c := range p.found {
		if !p.varies[b] {
			out.Constants = append(out.Constants, Finding{Stmt: b, Value: c})
		}
	}
	sort.Slice(out.Constants, func(i, j int) bool {
		return out.Constants[i].Stmt.ID < out.Constants[j].Stmt.ID
	})
	return out
}

// record notes that one visit of b computed c (ok) or no constant (!ok).
func (p *propagator) record(b *simple.Basic, c int64, ok bool) {
	if old, seen := p.found[b]; !ok || seen && old != c {
		p.varies[b] = true
	}
	p.found[b] = c
}

// locsOfRef returns the locations a reference denotes under the statement's
// points-to annotation, with definiteness.
func (p *propagator) locsOfRef(b *simple.Basic, r *simple.Ref) []pta.BaseLoc {
	if !r.Deref {
		return pta.EvalBaseLocs(p.res, r)
	}
	in, ok := p.res.Annots.At(b)
	if !ok {
		return nil
	}
	return pta.EvalLLocs(p.res, r, in)
}

// operand evaluates an operand in e: the integer constant it holds, or ok
// false.
func (p *propagator) operand(b *simple.Basic, op simple.Operand, e env) (c int64, ok bool) {
	switch op := op.(type) {
	case *simple.ConstInt:
		return op.Val, true
	case *simple.Ref:
		if op.Var.Kind == ast.FuncObj {
			return 0, false
		}
		lls := p.locsOfRef(b, op)
		if len(lls) == 0 {
			return 0, false
		}
		c, ok = e[lls[0].Loc]
		for _, l := range lls[1:] {
			d, had := e[l.Loc]
			ok = ok && had && d == c
		}
		return c, ok
	}
	return 0, false // only integer constants are tracked
}

// assign stores c (ok) or no constant (!ok) through b's left-hand side: a
// strong update when it denotes one definite, single location, otherwise a
// weak update that keeps a location's constant only when the store writes
// that same constant.
func (p *propagator) assign(b *simple.Basic, e env, c int64, ok bool) env {
	if b.LHS == nil {
		return e
	}
	lls := p.locsOfRef(b, b.LHS)
	if len(lls) == 1 && lls[0].Def == ptset.D && !lls[0].Loc.Multi() {
		return e.with(lls[0].Loc, c, ok) // strong update through a definite pointer
	}
	for _, l := range lls {
		old, had := e[l.Loc]
		e = e.with(l.Loc, old, had && ok && old == c) // weak update
	}
	return e
}

// binop folds a binary operation over two constants.
func binop(op token.Kind, a, c int64) (int64, bool) {
	b2i := func(b bool) (int64, bool) {
		if b {
			return 1, true
		}
		return 0, true
	}
	switch op {
	case token.ADD:
		return a + c, true
	case token.SUB:
		return a - c, true
	case token.MUL:
		return a * c, true
	case token.QUO:
		if c == 0 {
			return 0, false
		}
		return a / c, true
	case token.REM:
		if c == 0 {
			return 0, false
		}
		return a % c, true
	case token.SHL:
		return a << (uint64(c) & 63), true
	case token.SHR:
		return a >> (uint64(c) & 63), true
	case token.AND:
		return a & c, true
	case token.OR:
		return a | c, true
	case token.XOR:
		return a ^ c, true
	case token.EQL:
		return b2i(a == c)
	case token.NEQ:
		return b2i(a != c)
	case token.LSS:
		return b2i(a < c)
	case token.GTR:
		return b2i(a > c)
	case token.LEQ:
		return b2i(a <= c)
	case token.GEQ:
		return b2i(a >= c)
	}
	return 0, false
}

func unop(op token.Kind, x int64) (int64, bool) {
	switch op {
	case token.SUB:
		return -x, true
	case token.TILDE:
		return ^x, true
	case token.NOT:
		if x == 0 {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// basic is the walk's transfer function: the environment after b in
// invocation n. Copies, unary and binary statements record their value.
func (p *propagator) basic(n *invgraph.Node, b *simple.Basic, e env) env {
	var c int64
	ok := false
	switch b.Kind {
	case simple.AsgnCopy:
		c, ok = p.operand(b, b.X, e)
	case simple.AsgnUnary:
		if x, okx := p.operand(b, b.X, e); okx {
			c, ok = unop(b.Op, x)
		}
	case simple.AsgnBinary:
		x, okx := p.operand(b, b.X, e)
		y, oky := p.operand(b, b.Y, e)
		if okx && oky {
			c, ok = binop(b.Op, x, y)
		}
	case simple.AsgnAddr, simple.AsgnMalloc:
		return p.assign(b, e, 0, false)
	case simple.AsgnCall, simple.AsgnCallInd:
		return p.call(n, b, p.assign(b, e, 0, false))
	default:
		return e
	}
	p.record(b, c, ok)
	return p.assign(b, e, c, ok)
}

// call removes the constants call b may write: its resolved callees' MOD
// set translated to n, or, at a call with no callee in the graph (an
// external function or a thread spawn), every location reachable from its
// pointer arguments.
func (p *propagator) call(n *invgraph.Node, b *simple.Basic, e env) env {
	locs, ok := p.mod.ModOfCall(n, b)
	if !ok {
		locs = p.reachable(b)
	}
	for _, l := range locs {
		e = e.with(l, 0, false)
	}
	return e
}

// reachable returns the locations reachable from b's pointer arguments
// through the points-to relation before b.
func (p *propagator) reachable(b *simple.Basic) []*loc.Location {
	in, ok := p.res.Annots.At(b)
	if !ok {
		return nil
	}
	var out []*loc.Location
	seen := make(map[*loc.Location]bool)
	from := func(l *loc.Location) {
		for _, t := range in.Targets(l) {
			if !seen[t.Dst] {
				seen[t.Dst] = true
				out = append(out, t.Dst)
			}
		}
	}
	for _, a := range b.Args {
		if r, ok := a.(*simple.Ref); ok {
			for _, bl := range pta.EvalBaseLocs(p.res, r) {
				from(bl.Loc)
			}
		}
	}
	for i := 0; i < len(out); i++ {
		from(out[i])
	}
	return out
}
