package pta

import (
	"sync"

	"repro/internal/pta/invgraph"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// Annotations accumulates the program-point-specific points-to information:
// for every basic statement, the merge of the input points-to sets over all
// analyzed calling contexts. Tables 3–5 of the paper are computed from it.
//
// With per-context recording enabled (Options.RecordContexts) it also keeps
// the merged input per invocation-graph node, so clients such as the
// memory-safety checker can distinguish "bad in every calling context"
// (definite error) from "bad in some context" (possible warning).
type Annotations struct {
	mu sync.Mutex
	in map[*simple.Basic]ptset.Set

	// perNode, when non-nil, holds for each statement the merged input per
	// invocation-graph node that reached it. A node can reach a statement
	// several times (recursion iterations, memoized re-analysis); merging
	// only weakens definiteness, so a relationship definite in the merged
	// set was definite on every real visit. While it is on, visits join
	// only into their node's set, and finish folds those sets into in.
	perNode map[*simple.Basic]map[*invgraph.Node]ptset.Set
}

// NewAnnotations returns an empty annotation store.
func NewAnnotations() *Annotations {
	return &Annotations{in: make(map[*simple.Basic]ptset.Set)}
}

// EnableContexts turns on per-invocation-graph-node recording.
func (a *Annotations) EnableContexts() {
	if a.perNode == nil {
		a.perNode = make(map[*simple.Basic]map[*invgraph.Node]ptset.Set)
	}
}

// ContextsEnabled reports whether per-node recording is on.
func (a *Annotations) ContextsEnabled() bool { return a.perNode != nil }

// Record joins the input set flowing into b into its accumulator: the one
// for the invocation-graph node ign when contexts are enabled, the
// statement's merge otherwise (or when ign is nil, for synthetic contexts).
// The first visit keeps in's key array rather than copying it, and later
// visits join into a new one only when the join changes the accumulator.
// That relies on the engine's invariant: a set is never written in place
// once a transfer function has returned it, so a caller must not change in
// after recording it. Safe for concurrent use; the join is commutative
// and associative, so the accumulated annotation is independent of
// recording order.
func (a *Annotations) Record(b *simple.Basic, in ptset.Set, ign *invgraph.Node) {
	if in.IsBottom() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.perNode == nil || ign == nil {
		joinInto(a.in, b, in)
		return
	}
	m := a.perNode[b]
	if m == nil {
		m = make(map[*invgraph.Node]ptset.Set)
		a.perNode[b] = m
	}
	joinInto(m, ign, in)
}

// joinInto joins in into m[k], sharing in's keys on the first visit.
func joinInto[K comparable](m map[K]ptset.Set, k K, in ptset.Set) {
	if acc, ok := m[k]; ok {
		acc.Join(in)
	} else {
		m[k] = in.Share()
	}
}

// finish builds each statement's merge from its per-node sets once the run
// is over. A statement reached in one context only shares that context's
// set: annotations are read-only from here on.
func (a *Annotations) finish() {
	for b, m := range a.perNode {
		for _, s := range m {
			if _, ok := a.in[b]; !ok && len(m) == 1 {
				a.in[b] = s
				continue
			}
			joinInto(a.in, b, s)
		}
	}
}

// At returns the merged points-to set flowing into b and whether the
// statement was ever reached.
func (a *Annotations) At(b *simple.Basic) (ptset.Set, bool) {
	s, ok := a.in[b]
	return s, ok
}

// ContextsAt returns the per-invocation-graph-node inputs recorded for b.
// Empty unless EnableContexts was called before the analysis ran.
func (a *Annotations) ContextsAt(b *simple.Basic) map[*invgraph.Node]ptset.Set {
	if a.perNode == nil {
		return nil
	}
	return a.perNode[b]
}

// Len returns the number of annotated statements.
func (a *Annotations) Len() int { return len(a.in) }

// TotalFacts returns the total number of triples recorded across all
// merged per-statement annotations — the memory the demand mode's pruning
// saves. Not safe to call concurrently with Record.
func (a *Annotations) TotalFacts() int {
	n := 0
	for _, s := range a.in {
		n += s.Len()
	}
	return n
}
