// Package pta implements the context-sensitive interprocedural points-to
// analysis of Emami, Ghiya & Hendren (PLDI 1994): the intraprocedural rules
// of Figure 1 over the points-to abstraction of §3, the invocation-graph
// driven interprocedural strategy of §4 (map/unmap with invisible variables
// and symbolic names, memoization, recursion fixed points), and the
// integrated handling of function pointers of §5.
package pta

import (
	"repro/internal/cc/ast"
	"repro/internal/cc/token"
	"repro/internal/cc/types"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// locD is an abstract location together with the definiteness of the
// reference reaching it — the elements of the L-location and R-location sets
// of Table 1.
type locD struct {
	l *loc.Location
	d ptset.Def
}

// locDSet accumulates locD pairs with duplicate elimination. A location
// derived definitely by any derivation stays definite: a definite
// derivation independently establishes that the reference denotes that
// single location on all paths, so a later D derivation upgrades an entry.
// The sets are small, so a linear scan finds duplicates. The pairs stay in
// the order they were added: their consumers, the kill/change/gen rules
// and further L- and R-location steps, commute, and the exported Eval
// functions sort by SortKey.
type locDSet []locD

func (s *locDSet) add(l *loc.Location, d ptset.Def) {
	if l == nil {
		return
	}
	for i := range *s {
		if (*s)[i].l == l {
			if d == ptset.D {
				(*s)[i].d = ptset.D
			}
			return
		}
	}
	*s = append(*s, locD{l, d})
}

// evalBase computes the named locations denoted by (v, path) — the
// non-indirect part of a reference. Unknown array indices expand to both
// array parts with possible definiteness, per Table 1.
func (a *analyzer) evalBase(v *ast.Object, path []simple.Sel) []locD {
	var base *loc.Location
	if v.Kind == ast.FuncObj {
		base = a.tab.FuncLoc(v)
	} else {
		base = a.tab.VarLoc(v, nil)
	}
	cur := []locD{{base, ptset.D}}
	for _, sel := range path {
		cur = a.applySel(cur, sel, false)
	}
	return cur
}

// applySel applies one selector to a set of locations. onTarget selects the
// pointed-to semantics used for selectors after a dereference (where an
// index re-aligns within the pointed-to array).
func (a *analyzer) applySel(in []locD, sel simple.Sel, onTarget bool) []locD {
	var out locDSet
	for _, ld := range in {
		switch sel.Kind {
		case simple.SelField:
			out.add(a.tab.Extend(ld.l, loc.FieldElem(sel.Name)), ld.d)
		case simple.SelIndex:
			if onTarget {
				a.indexTarget(&out, ld, sel.Index)
			} else {
				a.indexNamed(&out, ld, sel.Index)
			}
		}
	}
	return out
}

// indexNamed applies an index to an array-typed named location: a[0] is the
// head, a[k>0] the tail, a[i] both (possibly).
func (a *analyzer) indexNamed(out *locDSet, ld locD, c simple.IdxClass) {
	if a.opts.SingleArrayLoc {
		out.add(a.tab.Extend(ld.l, loc.TailElem), ld.d)
		return
	}
	switch c {
	case simple.IdxZero:
		out.add(a.tab.Extend(ld.l, loc.HeadElem), ld.d)
	case simple.IdxPos:
		out.add(a.tab.Extend(ld.l, loc.TailElem), ld.d)
	default: // IdxAny
		out.add(a.tab.Extend(ld.l, loc.HeadElem), ptset.P)
		out.add(a.tab.Extend(ld.l, loc.TailElem), ptset.P)
	}
}

// indexTarget applies an index to a pointed-to location: if a pointer p
// points to a_head, p[0] is still a_head, p[k>0] lands in a_tail, and p[i]
// may be either. A pointer into the tail stays in the tail. Indexing a
// non-array target stays within the pointed-to object (the paper's pointer
// arithmetic assumption, §6).
func (a *analyzer) indexTarget(out *locDSet, ld locD, c simple.IdxClass) {
	l := ld.l
	switch l.Kind {
	case loc.Heap, loc.Str, loc.Freed:
		out.add(l, ld.d)
		return
	case loc.Null, loc.Func:
		return
	}
	// A pointed-to location of array type (e.g. a matrix row reached
	// through a pointer-to-array) is *descended into* by an index.
	if t := l.Type(); t != nil && t.Kind == types.Array {
		a.indexNamed(out, ld, c)
		return
	}
	n := len(l.Path)
	if n > 0 && l.Path[n-1].Arr {
		if l.Path[n-1].Tail {
			out.add(l, ld.d) // anywhere in the tail stays in the tail
			return
		}
		// Pointer to the head element.
		if a.opts.SingleArrayLoc {
			out.add(a.siblingTail(l), ld.d)
			return
		}
		switch c {
		case simple.IdxZero:
			out.add(l, ld.d)
		case simple.IdxPos:
			out.add(a.siblingTail(l), ld.d)
		default:
			out.add(l, ptset.P)
			out.add(a.siblingTail(l), ptset.P)
		}
		return
	}
	// Scalar target: p[0] is *p; other indices stay within the object
	// under the pointer-arithmetic assumption, but only possibly.
	if c == simple.IdxZero {
		out.add(l, ld.d)
	} else {
		out.add(l, ptset.P)
	}
}

// siblingTail converts a location whose path ends in an array head into the
// matching tail location.
func (a *analyzer) siblingTail(l *loc.Location) *loc.Location {
	n := len(l.Path)
	if n == 0 || !l.Path[n-1].Arr {
		return l
	}
	root := a.tab.Root(l)
	cur := root
	for i, e := range l.Path {
		if i == n-1 {
			cur = a.tab.Extend(cur, loc.TailElem)
		} else {
			cur = a.tab.Extend(cur, e)
		}
	}
	return cur
}

// pointees returns the pointed-to pairs of the given locations under s:
// {(t, d0 ∧ d1) | (b, d0) ∈ in, (b, t, d1) ∈ s}. When forWrite is set, NULL,
// function, and freed targets are dropped (they are not writable stack
// locations; a store through a freed pointer has no location the program can
// legally observe again, and the checker reports it separately).
func (a *analyzer) pointees(in []locD, s ptset.Set, forWrite bool) []locD {
	var out locDSet
	for _, ld := range in {
		s.RangeTargets(ld.l, func(t ptset.Triple) {
			if forWrite && (t.Dst.Kind == loc.Null || t.Dst.Kind == loc.Func || t.Dst.Kind == loc.Freed) {
				return
			}
			out.add(t.Dst, ld.d.And(t.Def))
		})
	}
	return out
}

// llocs computes the L-location set of a reference (Table 1).
func (a *analyzer) llocs(r *simple.Ref, s ptset.Set) []locD {
	base := a.evalBase(r.Var, r.Path)
	if !r.Deref {
		return base
	}
	cur := a.pointees(base, s, true)
	for _, sel := range r.DPath {
		cur = a.applySel(cur, sel, true)
	}
	return cur
}

// rlocsOfRef computes the R-location set of a reference used as an rvalue:
// the pointed-to pairs of its L-locations.
func (a *analyzer) rlocsOfRef(r *simple.Ref, s ptset.Set) []locD {
	return a.pointees(a.llocs(r, s), s, false)
}

// rlocsOfOperand computes R-locations of a simple operand.
func (a *analyzer) rlocsOfOperand(op simple.Operand, s ptset.Set) []locD {
	switch op := op.(type) {
	case *simple.ConstNull:
		return []locD{{a.tab.NullLoc(), ptset.D}}
	case *simple.ConstString:
		return []locD{{a.tab.StrLoc(), ptset.P}}
	case *simple.Ref:
		return a.rlocsOfRef(op, s)
	}
	return nil
}

// arithClass classifies the integer operand of pointer arithmetic.
func arithClass(op simple.Operand, isSub bool) simple.IdxClass {
	if c, ok := op.(*simple.ConstInt); ok {
		switch {
		case c.Val == 0:
			return simple.IdxZero
		case c.Val > 0 && !isSub:
			return simple.IdxPos
		}
	}
	return simple.IdxAny
}

// rlocs computes the R-location set of a basic statement's right-hand side.
func (a *analyzer) rlocs(b *simple.Basic, s ptset.Set) []locD {
	switch b.Kind {
	case simple.AsgnCopy:
		return a.rlocsOfOperand(b.X, s)

	case simple.AsgnAddr:
		// &ref: the R-locations are the L-locations of ref; a function
		// name denotes the function location itself.
		if b.Addr.Var.Kind == ast.FuncObj && !b.Addr.Deref && len(b.Addr.Path) == 0 {
			return []locD{{a.tab.FuncLoc(b.Addr.Var), ptset.D}}
		}
		return a.llocs(b.Addr, s)

	case simple.AsgnMalloc:
		return []locD{{a.tab.HeapLoc(), ptset.P}}

	case simple.AsgnBinary:
		// Pointer arithmetic: the result points where the pointer operand
		// points, adjusted across the head/tail array abstraction.
		xr, xIsRef := b.X.(*simple.Ref)
		yr, yIsRef := b.Y.(*simple.Ref)
		xPtr := xIsRef && isPointerRef(xr)
		yPtr := yIsRef && isPointerRef(yr)
		switch {
		case xPtr && yPtr:
			return nil // p - q: integer result
		case xPtr:
			var out locDSet
			class := arithClass(b.Y, b.Op == token.SUB)
			for _, ld := range a.rlocsOfRef(xr, s) {
				a.indexTarget(&out, ld, class)
			}
			return out
		case yPtr:
			var out locDSet
			for _, ld := range a.rlocsOfRef(yr, s) {
				a.indexTarget(&out, ld, arithClass(b.X, false))
			}
			return out
		}
		return nil

	case simple.AsgnUnary:
		return nil
	}
	return nil
}

// isPointerRef reports whether the reference denotes a pointer-valued
// expression (whose points-to pairs are meaningful).
func isPointerRef(r *simple.Ref) bool {
	t := r.Type()
	if t == nil {
		return true // unknown (e.g. through heap): be conservative
	}
	return t.Decay().Kind == types.Pointer
}

// isPointerStmt reports whether the basic statement assigns to a
// pointer-carrying location (Figure 1's is_pointer_type test).
func isPointerStmt(b *simple.Basic) bool {
	if b.LHS == nil {
		return false
	}
	t := b.LHS.Type()
	if t == nil {
		return true // unknown type: process conservatively
	}
	return t.Decay().Kind == types.Pointer
}
