// Package ctxwalk is the structured walk that every forward client runs
// over a function body: race and taint per invocation context, constant
// propagation per invocation and over main's global initializers, and the
// heap connection analysis once per function. It replays the paper's
// compositional statement rules (Figure 1's process_stmt, extended with
// break, continue and return) over a client's own state lattice, and it
// leaves each basic statement, calls included, to the client's transfer
// function. It also holds the D/P cell map the race and taint states carry
// and the order in which clients report calling contexts.
//
// The engine's own statement walk (package pta) differs on purpose: it takes
// a loop's exit from the head fixed point, runs if-branches in parallel and
// uses BOTTOM as its dead state.
package ctxwalk

import (
	"maps"
	"slices"
	"strings"

	"repro/internal/cc/token"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// State is a walk's abstract state. The zero S is the dead state: the state
// after a break, continue or return, which no statement reaches.
//
// A loop runs until its head state stops changing, with no pass limit. That
// ends because each client's head state climbs a finite lattice, where the
// head is the join of itself and the back edge: constant propagation's
// environment only loses constants, the connection relation only gains
// pairs over the function's heap pointers, a Defs cell only climbs the
// chain absent, D, P, and race's live-thread count saturates at 2.
type State[S any] interface {
	// Dead reports whether the state is the dead state.
	Dead() bool
	// Join joins two control-flow paths. Joining with a dead state returns
	// the other state or a copy of it.
	Join(S) S
	// Equal reports whether two states are the same. The walker compares
	// two live states or two dead ones only.
	Equal(S) bool
}

// Walker walks invocation bodies with a client's transfer function.
type Walker[S State[S]] struct {
	// Basic returns the state after b in invocation n (nil for a walk by
	// function), given the live state before it. It must not modify st in
	// place.
	Basic func(n *invgraph.Node, b *simple.Basic, st S) S
}

// flow is the outcome of a statement: the fall-through state plus the
// states escaping through break, continue and return.
type flow[S any] struct {
	out               S
	brks, conts, rets []S
}

func (f *flow[S]) absorb(g flow[S]) {
	f.brks = append(f.brks, g.brks...)
	f.conts = append(f.conts, g.conts...)
	f.rets = append(f.rets, g.rets...)
}

// join folds states together, starting from the dead state.
func join[S State[S]](states []S) S {
	var out S
	for _, s := range states {
		out = out.Join(s)
	}
	return out
}

// Node walks invocation n's body from st and returns its exit state. An
// approximate node has no body walk of its own, so it passes st through
// unchanged (a recursion that changes the state is beyond the clients'
// model).
func (w *Walker[S]) Node(n *invgraph.Node, st S) S {
	if n.Kind == invgraph.Approximate {
		return st
	}
	return w.Body(n, n.Fn.Body, st)
}

// Body walks seq from st, as code of invocation n, and returns its exit
// state: the join of the fall-through and every return. A client that
// walks functions rather than invocations passes a nil n.
func (w *Walker[S]) Body(n *invgraph.Node, seq *simple.Seq, st S) S {
	f := w.stmt(n, seq, st)
	return join(append(f.rets, f.out))
}

func (w *Walker[S]) stmt(n *invgraph.Node, s simple.Stmt, st S) flow[S] {
	if st.Dead() {
		return flow[S]{out: st}
	}
	switch s := s.(type) {
	case *simple.Basic:
		return flow[S]{out: w.Basic(n, s, st)}

	case *simple.Seq:
		f := flow[S]{out: st}
		if s == nil {
			return f
		}
		for _, c := range s.List {
			g := w.stmt(n, c, f.out)
			f.out = g.out
			f.absorb(g)
			if f.out.Dead() {
				break
			}
		}
		return f

	case *simple.If:
		thenF := w.stmt(n, s.Then, st)
		elseF := flow[S]{out: st}
		if s.Else != nil {
			elseF = w.stmt(n, s.Else, st)
		}
		f := flow[S]{out: thenF.out.Join(elseF.out)}
		f.absorb(thenF)
		f.absorb(elseF)
		return f

	case *simple.While:
		return w.loop(n, nil, s.CondEval, s.Body, nil, false, st)

	case *simple.DoWhile:
		return w.loop(n, nil, s.CondEval, s.Body, nil, true, st)

	case *simple.For:
		return w.loop(n, s.Init, s.CondEval, s.Body, s.Post, false, st)

	case *simple.Switch:
		return w.swtch(n, s, st)

	// An escape's fall-through is the zero, dead state.
	case *simple.Break:
		return flow[S]{brks: []S{st}}

	case *simple.Continue:
		return flow[S]{conts: []S{st}}

	case *simple.Return:
		return flow[S]{rets: []S{st}}
	}
	return flow[S]{out: st}
}

// loop runs a loop body until its head state is a fixed point. doFirst is
// the do-while shape: the body runs before the first test, so there is no
// zero-iteration exit. Returns escape the loop; breaks and the state after
// each pass's test join into its exit; continues join the back edge.
func (w *Walker[S]) loop(n *invgraph.Node, init, condEval, body, post *simple.Seq, doFirst bool, in S) flow[S] {
	result := flow[S]{}
	if init != nil {
		f := w.stmt(n, init, in)
		in = f.out
		result.rets = append(result.rets, f.rets...)
		if in.Dead() {
			result.out = in
			return result
		}
	}
	evalCond := func(s S) S {
		if condEval == nil || s.Dead() {
			return s
		}
		f := w.stmt(n, condEval, s)
		result.rets = append(result.rets, f.rets...)
		return f.out
	}
	var exits []S
	cur := in
	if !doFirst {
		cur = evalCond(in)
		exits = append(exits, cur) // zero-iteration exit
	}
	for {
		f := w.stmt(n, body, cur)
		result.rets = append(result.rets, f.rets...)
		exits = append(exits, f.brks...)
		backIn := join(append(f.conts, f.out))
		if post != nil && !backIn.Dead() {
			pf := w.stmt(n, post, backIn)
			result.rets = append(result.rets, pf.rets...)
			backIn = pf.out
		}
		backIn = evalCond(backIn)
		exits = append(exits, backIn) // exit after this pass's test
		// next is dead exactly when cur is, so Equal sees two live states
		// or two dead ones.
		next := cur.Join(backIn)
		if next.Equal(cur) {
			break
		}
		cur = next
	}
	result.out = join(exits)
	return result
}

// swtch walks a switch's arms in order, each entered from the switch's input
// joined with the previous arm's fall-through. Breaks, the last arm's
// fall-through and, without a default arm, the input itself (no arm taken)
// join into the exit; continues and returns escape.
func (w *Walker[S]) swtch(n *invgraph.Node, s *simple.Switch, in S) flow[S] {
	result := flow[S]{}
	var exits []S
	hasDefault := false
	var fall S
	for _, c := range s.Cases {
		if c.IsDefault {
			hasDefault = true
		}
		f := w.stmt(n, c.Body, in.Join(fall))
		result.rets = append(result.rets, f.rets...)
		result.conts = append(result.conts, f.conts...)
		exits = append(exits, f.brks...)
		fall = f.out
	}
	exits = append(exits, fall)
	if !hasDefault {
		exits = append(exits, in) // no arm taken
	}
	result.out = join(exits)
	return result
}

// Callees joins the exit states of the invocations that call site b creates
// under n, each entered from st by call. Thread roots are skipped: they run
// as roots of their own, not as callees. A site with no callee in the graph
// (an external or unresolved call) keeps st.
func Callees[S State[S]](n *invgraph.Node, b *simple.Basic, st S, call func(c *invgraph.Node, st S) S) S {
	var out S
	called := false
	for _, c := range n.Children {
		if c.Site != b || c.IsThread {
			continue
		}
		out = out.Join(call(c, st))
		called = true
	}
	if !called {
		return st
	}
	return out
}

// Defs maps abstract locations to D (definitely) or P (possibly): the cells
// a client state tracks, such as the locks held or the cells tainted. A nil
// Defs is the dead path.
type Defs map[*loc.Location]ptset.Def

// JoinDefs joins two paths' cells: a cell stays definite only when it is
// definite on both paths, and a cell on one path only is possible. A nil
// side is the dead path, and the result is a copy of the other side. The
// result is always a map the caller owns.
func JoinDefs(a, b Defs) Defs {
	switch {
	case a == nil:
		return maps.Clone(b)
	case b == nil:
		return maps.Clone(a)
	}
	out := make(Defs, max(len(a), len(b)))
	for l, da := range a {
		out[l] = da && b[l] // absent from b: possible
	}
	for l := range b {
		if _, ok := a[l]; !ok {
			out[l] = ptset.P
		}
	}
	return out
}

// Order sorts calling contexts, the invocation-graph nodes a client reports
// under: by call path, then by the positions of the call sites on it from
// the root down, so two calls of one function from one caller keep their
// textual order. It computes each node's key once; the zero Order is ready
// to use.
type Order struct {
	keys map[*invgraph.Node]*ctxKey
}

// ctxKey is a node's call path and the positions of the call sites on it,
// from the root down.
type ctxKey struct {
	path  string
	sites []token.Pos
}

func (o *Order) key(n *invgraph.Node) *ctxKey {
	k := o.keys[n]
	if k == nil {
		k = &ctxKey{path: n.Path()}
		for cur := n; cur.Parent != nil; cur = cur.Parent {
			k.sites = append(k.sites, cur.Site.Pos)
		}
		slices.Reverse(k.sites)
		if o.keys == nil {
			o.keys = make(map[*invgraph.Node]*ctxKey)
		}
		o.keys[n] = k
	}
	return k
}

// Path returns n's call path, such as "main -> f -> g".
func (o *Order) Path(n *invgraph.Node) string { return o.key(n).path }

// Compare orders two contexts and returns -1, 0 or +1 as x sorts before,
// with or after y.
func (o *Order) Compare(x, y *invgraph.Node) int {
	kx, ky := o.key(x), o.key(y)
	if c := strings.Compare(kx.path, ky.path); c != 0 {
		return c
	}
	return slices.CompareFunc(kx.sites, ky.sites, token.Pos.Compare)
}
