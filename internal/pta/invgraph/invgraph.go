// Package invgraph implements the invocation graph of the paper (§4): an
// explicit tree of procedure invocations rooted at main, where every calling
// context is a unique path. Recursion is approximated by matched pairs of
// *recursive* and *approximate* nodes connected by a back-edge, and function
// pointer call sites grow children dynamically as the points-to analysis
// discovers their targets (§5).
package invgraph

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// NodeKind classifies invocation graph nodes.
type NodeKind int

// Node kinds.
const (
	Ordinary NodeKind = iota
	Recursive
	Approximate
)

func (k NodeKind) String() string {
	switch k {
	case Ordinary:
		return "ordinary"
	case Recursive:
		return "recursive"
	case Approximate:
		return "approximate"
	}
	return "?"
}

// Node is one invocation of a function along a specific call chain.
type Node struct {
	Fn     *simple.Function
	Kind   NodeKind
	Parent *Node
	// Site is the call statement in the parent's body that creates this
	// invocation (nil for the root).
	Site     *simple.Basic
	Children []*Node

	// RecPartner links an Approximate node to its matching Recursive
	// ancestor (the special back-edge of Figure 2).
	RecPartner *Node

	// IsThread marks a child spawned by a pthread_create site rather than
	// called: the subtree is a pseudo-root that runs concurrently with the
	// spawner's continuation. Thread subtrees are analyzed with the
	// ordinary map/unmap machinery, but interprocedural clients (MOD/REF,
	// the race detector) treat them as separate roots, not as callees.
	IsThread bool

	// Analysis memoization (paper Figure 4). HasInput marks StoredInput
	// as valid (it is set while the node is being processed); HasResult
	// marks StoredOutput as a completed summary for StoredInput.
	HasInput     bool
	HasResult    bool
	StoredInput  ptset.Set
	StoredOutput ptset.Set
	Pending      []ptset.Set

	// Memo is the input-keyed summary cache: one Summary per completed
	// evaluation of this node, each with a distinct mapped input,
	// generalizing the paper's single stored IN/OUT pair to all inputs
	// ever seen, so repeated invocations under equal contexts reuse the
	// stored output without re-walking the body. It is owned by the
	// analysis goroutine processing this node (invocation subtrees are
	// disjoint), so no locking is needed.
	Memo []Summary

	// MapInfo records the context-sensitive association between symbolic
	// names and the invisible variables they represent for this
	// invocation. It is owned by the analysis (package pta).
	MapInfo any
}

// Summary is one completed evaluation of a function: the mapped input In
// produced the output Out. A stored set is never mutated: the analysis
// only reads the output it hands back to a caller and clones an input
// before walking a body, so a summary can share the very sets the node
// holds.
type Summary struct {
	In, Out ptset.Set
}

// FindSummary returns the output of the summary whose input equals in by
// structure.
func FindSummary(sums []Summary, in ptset.Set) (ptset.Set, bool) {
	for _, s := range sums {
		if ptset.Equal(s.In, in) {
			return s.Out, true
		}
	}
	return ptset.Set{}, false
}

// Graph is the invocation graph of a program. Dynamic growth during the
// analysis (AddIndirectChild, including the recursion check's Kind writes on
// ancestors) is serialized by an internal mutex so parallel evaluation of
// sibling subtrees stays race-free.
type Graph struct {
	Root *Node
	Prog *simple.Program

	mu sync.Mutex
}

// Build constructs the initial invocation graph by a depth-first traversal
// of direct calls starting at main. Indirect (function pointer) call sites
// are left incomplete; the analysis adds their children via AddIndirectChild.
func Build(prog *simple.Program) (*Graph, error) {
	mainFn := prog.Main()
	if mainFn == nil {
		return nil, fmt.Errorf("invgraph: program has no main function")
	}
	g := &Graph{Prog: prog}
	g.Root = &Node{Fn: mainFn}
	g.expand(g.Root)
	return g, nil
}

// expand adds static children for every direct call in n.Fn's body.
func (g *Graph) expand(n *Node) {
	for _, site := range CallSites(n.Fn) {
		if site.Kind != simple.AsgnCall {
			continue // indirect sites expand during analysis
		}
		callee := g.Prog.Lookup(site.Callee.Name)
		if callee == nil {
			continue // external function: no body, no node
		}
		g.addChild(n, site, callee)
	}
}

// addChild creates a child node of parent for a call to fn at site,
// performing the recursion check against the ancestor chain.
func (g *Graph) addChild(parent *Node, site *simple.Basic, fn *simple.Function) *Node {
	for a := parent; a != nil; a = a.Parent {
		if a.Fn == fn {
			// Repeated function name on the chain from main: terminate
			// with an approximate node paired to the ancestor.
			a.Kind = Recursive
			child := &Node{Fn: fn, Kind: Approximate, Parent: parent, Site: site, RecPartner: a}
			parent.Children = append(parent.Children, child)
			return child
		}
	}
	child := &Node{Fn: fn, Parent: parent, Site: site}
	parent.Children = append(parent.Children, child)
	g.expand(child)
	return child
}

// ChildFor returns the child of n for the given direct call site.
func (n *Node) ChildFor(site *simple.Basic) *Node {
	for _, c := range n.Children {
		if c.Site == site {
			return c
		}
	}
	return nil
}

// ChildFor returns the child of n for the given direct call site, holding
// the graph lock: parallel analysis workers evaluating sibling branches of
// n's body may be appending indirect children to n concurrently.
func (g *Graph) ChildFor(n *Node, site *simple.Basic) *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	return n.ChildFor(site)
}

// IndirectChild returns the child of n for (site, fn) if it exists.
func (n *Node) IndirectChild(site *simple.Basic, fn *simple.Function) *Node {
	for _, c := range n.Children {
		if c.Site == site && c.Fn == fn {
			return c
		}
	}
	return nil
}

// AddIndirectChild records that the indirect call at site can invoke fn,
// updating the invocation graph (paper Figure 5's updateInvocGraph). The
// child subtree for fn's own direct calls is built immediately. Safe for
// concurrent use by parallel analysis workers.
func (g *Graph) AddIndirectChild(parent *Node, site *simple.Basic, fn *simple.Function) *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := parent.IndirectChild(site, fn); c != nil {
		return c
	}
	return g.addChild(parent, site, fn)
}

// AddThreadChild records that the pthread_create call at site can spawn a
// thread running fn, adding a child node marked IsThread. Like indirect
// children, thread children are discovered during the analysis (the entry is
// a function pointer) and deduplicated by (site, fn). Safe for concurrent
// use by parallel analysis workers.
func (g *Graph) AddThreadChild(parent *Node, site *simple.Basic, fn *simple.Function) *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := parent.IndirectChild(site, fn); c != nil {
		return c
	}
	c := g.addChild(parent, site, fn)
	c.IsThread = true
	return c
}

// ThreadNodes returns every IsThread node of the graph in depth-first
// preorder — the spawned pseudo-roots of the program.
func (g *Graph) ThreadNodes() []*Node {
	var out []*Node
	g.Walk(func(n *Node) {
		if n.IsThread {
			out = append(out, n)
		}
	})
	return out
}

// CallSites returns the call statements (direct and indirect) of fn's body
// in textual order.
func CallSites(fn *simple.Function) []*simple.Basic {
	var out []*simple.Basic
	simple.WalkStmts(fn.Body, func(s simple.Stmt) {
		if b, ok := s.(*simple.Basic); ok && (b.Kind == simple.AsgnCall || b.Kind == simple.AsgnCallInd) {
			out = append(out, b)
		}
	})
	return out
}

// Stats summarizes a graph for Table 6.
type Stats struct {
	Nodes       int
	CallSites   int // call statements in the program (to defined functions)
	Functions   int // distinct functions appearing in the graph
	Recursive   int
	Approximate int
	Threads     int // pseudo-roots spawned by pthread_create sites
}

// AvgPerCallSite returns nodes per call site.
func (s Stats) AvgPerCallSite() float64 {
	if s.CallSites == 0 {
		return 0
	}
	return float64(s.Nodes) / float64(s.CallSites)
}

// AvgPerFunction returns nodes per called function.
func (s Stats) AvgPerFunction() float64 {
	if s.Functions == 0 {
		return 0
	}
	return float64(s.Nodes) / float64(s.Functions)
}

// ComputeStats gathers Table 6 statistics.
func (g *Graph) ComputeStats() Stats {
	var st Stats
	fns := make(map[*simple.Function]bool)
	g.Walk(func(n *Node) {
		st.Nodes++
		fns[n.Fn] = true
		switch n.Kind {
		case Recursive:
			st.Recursive++
		case Approximate:
			st.Approximate++
		}
		if n.IsThread {
			st.Threads++
		}
	})
	st.Functions = len(fns)
	for _, f := range g.Prog.Functions {
		for _, site := range CallSites(f) {
			if site.Kind == simple.AsgnCall && g.Prog.Lookup(site.Callee.Name) == nil {
				continue
			}
			st.CallSites++
		}
	}
	return st
}

// Canonicalize sorts every node's children into (call-site textual order,
// callee name) order. During parallel analysis, indirect children discovered
// by concurrently evaluated branches of the same body can be appended in
// scheduling order; canonicalizing afterwards makes the graph — and every
// rendering derived from it — independent of the worker count.
func (g *Graph) Canonicalize() {
	g.Walk(func(n *Node) {
		if len(n.Children) < 2 {
			return
		}
		rank := make(map[*simple.Basic]int)
		for i, s := range CallSites(n.Fn) {
			rank[s] = i
		}
		sort.SliceStable(n.Children, func(i, j int) bool {
			ci, cj := n.Children[i], n.Children[j]
			if rank[ci.Site] != rank[cj.Site] {
				return rank[ci.Site] < rank[cj.Site]
			}
			return ci.Fn.Name() < cj.Fn.Name()
		})
	})
}

// Walk visits every node of the graph in depth-first preorder.
func (g *Graph) Walk(f func(*Node)) {
	var rec func(n *Node)
	rec = func(n *Node) {
		f(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(g.Root)
}

// Path renders the call chain from main to n.
func (n *Node) Path() string {
	var names []string
	for cur := n; cur != nil; cur = cur.Parent {
		names = append(names, cur.Fn.Name())
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}

// WriteDot emits the graph in Graphviz DOT form (Figure 2/7 style):
// approximate nodes are dashed, recursive nodes doubled, and the
// approximate->recursive back-edges dotted.
func (g *Graph) WriteDot(w io.Writer) {
	fmt.Fprintln(w, "digraph invocation {")
	fmt.Fprintln(w, "  node [shape=ellipse];")
	ids := make(map[*Node]int)
	g.Walk(func(n *Node) { ids[n] = len(ids) })
	// Deterministic order.
	nodes := make([]*Node, len(ids))
	for n, id := range ids {
		nodes[id] = n
	}
	for id, n := range nodes {
		attrs := ""
		switch n.Kind {
		case Recursive:
			attrs = ", peripheries=2"
		case Approximate:
			attrs = ", style=dashed"
		}
		fmt.Fprintf(w, "  n%d [label=%q%s];\n", id, n.Fn.Name(), attrs)
	}
	for id, n := range nodes {
		children := append([]*Node{}, n.Children...)
		sort.Slice(children, func(i, j int) bool { return ids[children[i]] < ids[children[j]] })
		for _, c := range children {
			if c.IsThread {
				fmt.Fprintf(w, "  n%d -> n%d [style=bold, label=\"spawn\"];\n", id, ids[c])
				continue
			}
			fmt.Fprintf(w, "  n%d -> n%d;\n", id, ids[c])
		}
		if n.RecPartner != nil {
			fmt.Fprintf(w, "  n%d -> n%d [style=dotted, constraint=false];\n", id, ids[n.RecPartner])
		}
	}
	fmt.Fprintln(w, "}")
}
