// Package modref computes interprocedural MOD/REF side-effect sets on top
// of the points-to analysis — the read/write-set client that §6.1 of the
// paper describes for ALPHA IR construction, in the tradition of
// Landi/Ryder/Zhang's "interprocedural modification side effect analysis
// with pointer aliasing" (the paper's reference [31]).
//
// For every invocation-graph node the analysis computes the set of abstract
// locations the invocation may write (MOD) and read (REF), in the callee's
// own naming; at each call site the callee's sets translate back through
// the invocation's map information, so the caller sees effects on its own
// variables, on globals, and on locations reachable through arguments —
// while purely local effects of the callee disappear.
package modref

import (
	"fmt"
	"sort"

	"repro/internal/cc/token"
	"repro/internal/pta"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// locSet is a set of abstract locations.
type locSet map[*loc.Location]bool

func (s locSet) add(l *loc.Location) bool {
	if l == nil || s[l] {
		return false
	}
	s[l] = true
	return true
}

func (s locSet) addAll(o locSet) bool {
	changed := false
	for l := range o {
		if s.add(l) {
			changed = true
		}
	}
	return changed
}

func (s locSet) sorted() []*loc.Location {
	out := make([]*loc.Location, 0, len(s))
	for l := range s {
		out = append(out, l)
	}
	return loc.SortLocs(out)
}

// Access is one recorded read or write of an abstract location at a
// statement, in the accessing node's own naming: the statement position
// makes MOD/REF reports clickable, and the D/P certainty of the L-location
// derivation feeds the race detector's severity split.
type Access struct {
	Loc   *loc.Location
	Def   ptset.Def // certainty that the statement touches exactly Loc
	Write bool
	Pos   token.Pos
	Stmt  *simple.Basic
}

func (a Access) String() string {
	op := "ref"
	if a.Write {
		op = "mod"
	}
	return fmt.Sprintf("%s %s (%s) @ %s", op, a.Loc.Name(), a.Def, a.Pos)
}

// Result holds per-node MOD/REF sets (in the node's own naming).
type Result struct {
	res *pta.Result
	mod map[*invgraph.Node]locSet
	ref map[*invgraph.Node]locSet
}

// Compute runs the bottom-up MOD/REF propagation over the invocation graph
// until the sets stabilize (recursion makes the graph cyclic through the
// approximate/recursive back-edges). Every statement is judged under its
// merged input, whether or not the analysis recorded calling contexts.
func Compute(res *pta.Result) *Result {
	r := &Result{
		res: res,
		mod: make(map[*invgraph.Node]locSet),
		ref: make(map[*invgraph.Node]locSet),
	}
	// Collect nodes in post-order so callees are computed before callers
	// on the first pass; iterate to a fixed point for recursion.
	var nodes []*invgraph.Node
	res.Graph.Walk(func(n *invgraph.Node) { nodes = append(nodes, n) })
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for _, n := range nodes {
		r.mod[n] = make(locSet)
		r.ref[n] = make(locSet)
	}
	const maxRounds = 100
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, n := range nodes {
			if r.update(n) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return r
}

// Accesses returns the node's positioned access records in lexical order
// (the order the body walk visits them), in the node's own naming, judged
// under each statement's merged input: writes through the L-locations of
// assignment targets, reads through every other reference — including the
// base pointer of each dereference, which is itself loaded. Pure address
// computations (&x) touch nothing. Callee effects are NOT included:
// accesses are per-node, and interprocedural clients walk the invocation
// graph themselves.
func (r *Result) Accesses(n *invgraph.Node) []Access {
	return r.accesses(n, r.res.Annots.At)
}

// ContextAccesses is Accesses judged under the node's own per-context
// input, so each invocation's accesses follow its calling context: the race
// detector's view. The analysis must have recorded calling contexts.
func (r *Result) ContextAccesses(n *invgraph.Node) []Access {
	return r.accesses(n, func(b *simple.Basic) (ptset.Set, bool) {
		in, ok := r.res.Annots.ContextsAt(b)[n]
		return in, ok
	})
}

// accesses collects n's access records, reading each statement's input
// from input.
func (r *Result) accesses(n *invgraph.Node, input func(*simple.Basic) (ptset.Set, bool)) []Access {
	if n.Kind == invgraph.Approximate {
		return nil // the body is analyzed under the recursive partner
	}
	var accs []Access
	add := func(l *loc.Location, d ptset.Def, write bool, pos token.Pos, b *simple.Basic) {
		if l == nil || l.Kind == loc.Null || l.Kind == loc.Func || l.Kind == loc.Str {
			return
		}
		if !pos.IsValid() {
			pos = b.Pos
		}
		accs = append(accs, Access{Loc: l, Def: d, Write: write, Pos: pos, Stmt: b})
	}
	simple.WalkStmts(n.Fn.Body, func(s simple.Stmt) {
		b, ok := s.(*simple.Basic)
		if !ok || b.Kind == simple.StmtNop {
			return
		}
		in, haveAnn := input(b)
		if !haveAnn {
			return
		}
		for _, rf := range b.Refs() {
			if rf.Deref {
				// Loading through a pointer first reads the pointer cell.
				base := &simple.Ref{Var: rf.Var, Path: rf.Path, Pos: rf.Pos}
				for _, bl := range pta.EvalBaseLocs(r.res, base) {
					add(bl.Loc, bl.Def, false, rf.Pos, b)
				}
			}
			if rf == b.LHS {
				for _, ld := range pta.EvalLLocs(r.res, rf, in) {
					add(ld.Loc, ld.Def, true, rf.Pos, b)
				}
				continue
			}
			if rf == b.Addr && !rf.Deref {
				continue // &x computes an address, accessing nothing
			}
			for _, ld := range pta.EvalLLocs(r.res, rf, in) {
				add(ld.Loc, ld.Def, false, rf.Pos, b)
			}
		}
	})
	return accs
}

// update recomputes one node's sets; returns whether they grew.
func (r *Result) update(n *invgraph.Node) bool {
	if n.Kind == invgraph.Approximate {
		// The approximate node's effect is its recursive partner's.
		changed := r.mod[n].addAll(r.mod[n.RecPartner])
		if r.ref[n].addAll(r.ref[n.RecPartner]) {
			changed = true
		}
		return changed
	}
	mod, ref := r.mod[n], r.ref[n]
	changed := false
	simple.WalkStmts(n.Fn.Body, func(s simple.Stmt) {
		b, ok := s.(*simple.Basic)
		if !ok {
			return
		}
		in, haveAnn := r.res.Annots.At(b)
		switch b.Kind {
		case simple.AsgnCall, simple.AsgnCallInd:
			// Union the translated effects of every child for this site.
			// Thread children are pseudo-roots running concurrently, not
			// callees: their effects are not the spawner's.
			for _, c := range n.Children {
				if c.Site != b || c.IsThread {
					continue
				}
				mi, ok := c.MapInfo.(*pta.MapInfo)
				if !ok {
					continue
				}
				for l := range r.mod[c] {
					for _, cl := range mi.Translate(r.res, l) {
						if mod.add(cl) {
							changed = true
						}
					}
				}
				for l := range r.ref[c] {
					for _, cl := range mi.Translate(r.res, l) {
						if ref.add(cl) {
							changed = true
						}
					}
				}
			}
			// The call's own LHS is written.
			if b.LHS != nil && haveAnn {
				for _, ld := range pta.EvalLLocs(r.res, b.LHS, in) {
					if mod.add(ld.Loc) {
						changed = true
					}
				}
			}
		case simple.StmtNop:
		default:
			if !haveAnn {
				return
			}
			if b.LHS != nil {
				for _, ld := range pta.EvalLLocs(r.res, b.LHS, in) {
					if mod.add(ld.Loc) {
						changed = true
					}
				}
			}
			for _, rf := range b.Refs() {
				if rf == b.LHS {
					continue
				}
				for _, ld := range pta.EvalLLocs(r.res, rf, in) {
					if ref.add(ld.Loc) {
						changed = true
					}
				}
			}
		}
	})
	return changed
}

// ModOfCall returns the caller-visible locations the call at site (from
// within parent's context) may modify, merged over the site's resolved
// targets. The second result is false when the site has no analyzed callee
// (external function) — callers should then assume no stack effects beyond
// the LHS, matching the analysis's external model.
func (r *Result) ModOfCall(parent *invgraph.Node, site *simple.Basic) ([]*loc.Location, bool) {
	out := make(locSet)
	found := false
	for _, c := range parent.Children {
		if c.Site != site || c.IsThread {
			continue
		}
		mi, ok := c.MapInfo.(*pta.MapInfo)
		if !ok {
			continue
		}
		found = true
		for l := range r.mod[c] {
			for _, cl := range mi.Translate(r.res, l) {
				out.add(cl)
			}
		}
	}
	return out.sorted(), found
}

// ModOf returns the node's MOD set in its own naming.
func (r *Result) ModOf(n *invgraph.Node) []*loc.Location { return r.mod[n].sorted() }

// RefOf returns the node's REF set in its own naming.
func (r *Result) RefOf(n *invgraph.Node) []*loc.Location { return r.ref[n].sorted() }

// Summary renders per-function MOD counts deterministically (first node per
// function).
func (r *Result) Summary() []string {
	seen := make(map[string]bool)
	var lines []string
	r.res.Graph.Walk(func(n *invgraph.Node) {
		name := n.Fn.Name()
		if seen[name] {
			return
		}
		seen[name] = true
		lines = append(lines, name)
	})
	sort.Strings(lines)
	return lines
}
