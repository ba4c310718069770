// Package heapconn implements a connection analysis for heap-directed
// pointers — the simplest member of the family of companion heap
// abstractions the paper's conclusions describe (Ghiya's "practical
// techniques for heap analysis", reference [16]): since the points-to
// analysis collapses all heap objects into the single `heap` location, a
// separate abstraction tracks which heap-directed pointers may point into
// the *same* heap data structure. Two pointers in different connection
// groups are guaranteed to access disjoint structures, which is the
// property dependence testing needs.
//
// The abstraction is a symmetric, reflexive relation ("connection matrix")
// over the pointer variables of a function that the points-to analysis
// found to be heap-directed. It is computed flow-sensitively over SIMPLE,
// walking each function's body once with ctxwalk's statement rules:
//
//	p = malloc()   kill p's connections; p starts a fresh structure
//	p = q          p joins q's structure
//	p = q->f, *q   p joins q's structure (fields stay within a structure)
//	p->f = q       p's and q's structures become connected (linked)
//	p = &x, NULL   p leaves the heap: kill its connections
//	calls          conservative: heap-directed globals and arguments all
//	               become connected to each other
package heapconn

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/cc/ast"
	"repro/internal/pta"
	"repro/internal/pta/ctxwalk"
	"repro/internal/pta/invgraph"
	"repro/internal/simple"
)

// pairKey is an unordered pair of variables.
type pairKey struct{ a, b *ast.Object }

func mkPair(a, b *ast.Object) pairKey {
	if a.Name > b.Name {
		a, b = b, a
	}
	return pairKey{a, b}
}

// Matrix is a connection relation at one program point. The nil *Matrix is
// the walk's dead state, at a point no path reaches.
type Matrix struct {
	pairs map[pairKey]bool
}

// NewMatrix returns an empty relation.
func NewMatrix() *Matrix { return &Matrix{pairs: make(map[pairKey]bool)} }

// Connected reports whether a and b may point into the same structure.
func (m *Matrix) Connected(a, b *ast.Object) bool {
	if a == nil || b == nil {
		return false
	}
	return m.pairs[mkPair(a, b)]
}

func (m *Matrix) connect(a, b *ast.Object) { m.pairs[mkPair(a, b)] = true }

// kill removes every connection of v (it no longer points into the heap or
// points somewhere fresh).
func (m *Matrix) kill(v *ast.Object) {
	for k := range m.pairs {
		if k.a == v || k.b == v {
			delete(m.pairs, k)
		}
	}
}

// group returns the variables connected to v, including v itself if live.
func (m *Matrix) group(v *ast.Object) []*ast.Object {
	var out []*ast.Object
	for k := range m.pairs {
		if k.a == v {
			out = append(out, k.b)
		} else if k.b == v {
			out = append(out, k.a)
		}
	}
	return out
}

// joinInto makes dst a member of src's structure: dst connects to src and
// to everything src connects to.
func (m *Matrix) joinInto(dst, src *ast.Object) {
	grp := m.group(src)
	m.kill(dst)
	if !m.pairs[mkPair(src, src)] && len(grp) == 0 {
		return // src is not heap-directed here
	}
	m.connect(dst, dst)
	m.connect(dst, src)
	for _, g := range grp {
		m.connect(dst, g)
	}
}

// link connects a's and b's structures (a->f = b).
func (m *Matrix) link(a, b *ast.Object) {
	ga := append(m.group(a), a)
	gb := append(m.group(b), b)
	for _, x := range ga {
		for _, y := range gb {
			m.connect(x, y)
		}
	}
}

// Dead reports whether m is the dead state.
func (m *Matrix) Dead() bool { return m == nil }

// Join unions two paths' relations.
func (m *Matrix) Join(o *Matrix) *Matrix {
	switch {
	case m == nil:
		return o
	case o == nil:
		return m
	}
	out := &Matrix{pairs: maps.Clone(m.pairs)}
	maps.Copy(out.pairs, o.pairs)
	return out
}

// Equal reports whether m and o hold the same pairs.
func (m *Matrix) Equal(o *Matrix) bool {
	if m == nil || o == nil {
		return m == o
	}
	return maps.Equal(m.pairs, o.pairs)
}

// Len returns the number of connected (unordered) pairs.
func (m *Matrix) Len() int { return len(m.pairs) }

// String renders the relation deterministically.
func (m *Matrix) String() string {
	var parts []string
	for k := range m.pairs {
		parts = append(parts, fmt.Sprintf("(%s,%s)", k.a.Name, k.b.Name))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// FuncResult is the analysis outcome for one function.
type FuncResult struct {
	Fn *simple.Function
	// HeapPtrs are the pointer variables the points-to analysis found to
	// be (possibly) heap-directed anywhere in the function.
	HeapPtrs []*ast.Object
	// Exit is the connection matrix at function exit.
	Exit *Matrix
	// NaivePairs is the size of the all-connected relation over HeapPtrs
	// (the baseline without connection analysis).
	NaivePairs int
}

// DisjointPairs counts pairs of distinct heap pointers proven to address
// disjoint structures at exit.
func (r *FuncResult) DisjointPairs() int {
	n := 0
	for i := 0; i < len(r.HeapPtrs); i++ {
		for j := i + 1; j < len(r.HeapPtrs); j++ {
			if !r.Exit.Connected(r.HeapPtrs[i], r.HeapPtrs[j]) {
				n++
			}
		}
	}
	return n
}

// Result holds per-function connection results.
type Result struct {
	Funcs map[string]*FuncResult
}

// analyzer carries the points-to result used to classify references.
type analyzer struct {
	res *pta.Result
	// heapSet is the current function's heap-directed variable set; the
	// connection matrix is restricted to it.
	heapSet map[*ast.Object]bool
}

// member returns v when it is in the tracked heap set, else nil.
func (a *analyzer) member(v *ast.Object) *ast.Object {
	if v != nil && a.heapSet[v] {
		return v
	}
	return nil
}

// Run computes connection matrices for every function of the analyzed
// program.
func Run(res *pta.Result) *Result {
	a := &analyzer{res: res}
	out := &Result{Funcs: make(map[string]*FuncResult)}
	for _, fn := range res.Prog.Functions {
		out.Funcs[fn.Name()] = a.analyzeFunc(fn)
	}
	return out
}

// heapDirected reports whether the variable may point into the heap
// anywhere: in any statement's merged annotation, in the stored outputs of
// the function's invocation-graph nodes, or at main's exit (the statement
// annotations are inputs, so the effect of a function's last statement only
// shows in the outputs).
func (a *analyzer) heapDirected(v *ast.Object, fn *simple.Function) bool {
	l := a.res.Table.VarLoc(v, nil)
	heap := a.res.Table.HeapLoc()
	if _, has := a.res.MainOut.Lookup(l, heap); has {
		return true
	}
	found := false
	a.res.Prog.ForEachBasic(func(b *simple.Basic) {
		if found {
			return
		}
		if in, ok := a.res.Annots.At(b); ok {
			if _, has := in.Lookup(l, heap); has {
				found = true
			}
		}
	})
	if found {
		return true
	}
	a.res.Graph.Walk(func(n *invgraph.Node) {
		if found || n.Fn != fn || !n.HasResult {
			return
		}
		if _, has := n.StoredOutput.Lookup(l, heap); has {
			found = true
		}
	})
	return found
}

func (a *analyzer) analyzeFunc(fn *simple.Function) *FuncResult {
	fr := &FuncResult{Fn: fn}
	seen := make(map[*ast.Object]bool)
	consider := func(v *ast.Object) {
		if v == nil || seen[v] || v.Type == nil || !v.Type.HasPointers() {
			return
		}
		seen[v] = true
		if a.heapDirected(v, fn) {
			fr.HeapPtrs = append(fr.HeapPtrs, v)
		}
	}
	for _, p := range fn.Params {
		consider(p)
	}
	for _, l := range fn.Locals {
		consider(l)
	}
	for _, g := range a.res.Prog.Globals {
		consider(g)
	}
	sort.Slice(fr.HeapPtrs, func(i, j int) bool {
		return fr.HeapPtrs[i].Name < fr.HeapPtrs[j].Name
	})
	n := len(fr.HeapPtrs)
	fr.NaivePairs = n * (n + 1) / 2
	a.heapSet = make(map[*ast.Object]bool, n)
	for _, v := range fr.HeapPtrs {
		a.heapSet[v] = true
	}

	m := NewMatrix()
	// Entry assumption: heap-directed parameters and globals may already
	// be interconnected (the caller could have linked them).
	var entry []*ast.Object
	for _, v := range fr.HeapPtrs {
		if v.Global || v.Kind == ast.Param {
			entry = append(entry, v)
		}
	}
	for i := 0; i < len(entry); i++ {
		for j := i; j < len(entry); j++ {
			m.connect(entry[i], entry[j])
		}
	}
	w := ctxwalk.Walker[*Matrix]{Basic: a.basic}
	fr.Exit = w.Body(nil, fn.Body, m)
	return fr
}

// refVar extracts the scalar pointer variable a reference manipulates when
// the reference is heap-relevant, plus whether it goes through the heap
// (p->f style).
func refVar(r *simple.Ref) (v *ast.Object, throughHeap bool) {
	if r == nil {
		return nil, false
	}
	return r.Var, r.Deref
}

// basic is the walk's transfer function: the relation after b. It writes a
// copy of m.
func (a *analyzer) basic(_ *invgraph.Node, b *simple.Basic, m *Matrix) *Matrix {
	m = &Matrix{pairs: maps.Clone(m.pairs)}
	switch b.Kind {
	case simple.AsgnMalloc:
		if v, th := refVar(b.LHS); a.member(v) != nil && !th {
			m.kill(v)
			m.connect(v, v)
		} else if a.member(v) != nil && th {
			// p->f = malloc(): the fresh object joins p's structure.
			m.link(v, v)
		}

	case simple.AsgnCopy:
		lv, lth := refVar(b.LHS)
		lv = a.member(lv)
		rv := (*ast.Object)(nil)
		rth := false
		if r, ok := b.X.(*simple.Ref); ok {
			rv, rth = refVar(r)
			rv = a.member(rv)
		}
		switch {
		case lv == nil:
			return m
		case rv == nil:
			// p = NULL / constant: leaves the heap.
			if !lth {
				m.kill(lv)
			}
			return m
		case !lth && !rth:
			// p = q.
			m.joinInto(lv, rv)
		case !lth && rth:
			// p = q->f / *q: stays within q's structure.
			m.joinInto(lv, rv)
		case lth && !rth:
			// p->f = q: link the structures.
			m.link(lv, rv)
		default:
			// p->f = q->g.
			m.link(lv, rv)
		}

	case simple.AsgnAddr:
		// p = &x: p now points at the stack, not the heap...
		if v, th := refVar(b.LHS); a.member(v) != nil && !th {
			m.kill(v)
		}

	case simple.AsgnBinary:
		// Pointer arithmetic keeps the structure: p = q + i.
		lv, lth := refVar(b.LHS)
		lv = a.member(lv)
		if lv == nil || lth {
			return m
		}
		if r, ok := b.X.(*simple.Ref); ok {
			if rv, rth := refVar(r); a.member(rv) != nil && !rth {
				m.joinInto(lv, rv)
				return m
			}
		}
		if r, ok := b.Y.(*simple.Ref); ok {
			if rv, rth := refVar(r); a.member(rv) != nil && !rth {
				m.joinInto(lv, rv)
			}
		}

	case simple.AsgnCall, simple.AsgnCallInd:
		// Conservative: the callee may link anything reachable from its
		// arguments and the globals.
		var involved []*ast.Object
		for _, arg := range b.Args {
			if r, ok := arg.(*simple.Ref); ok && a.member(r.Var) != nil {
				involved = append(involved, r.Var)
			}
		}
		for _, g := range a.res.Prog.Globals {
			if a.member(g) != nil {
				involved = append(involved, g)
			}
		}
		for i := 0; i < len(involved); i++ {
			for j := i + 1; j < len(involved); j++ {
				m.link(involved[i], involved[j])
			}
		}
		if lv, lth := refVar(b.LHS); a.member(lv) != nil && !lth {
			// The result may point into any structure the callee saw.
			m.kill(lv)
			for _, v := range involved {
				m.link(lv, v)
			}
			m.connect(lv, lv)
		}
	}
	return m
}
