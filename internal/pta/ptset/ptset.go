// Package ptset implements points-to sets: sets of triples (x, y, D|P)
// between abstract stack locations, with the lattice operations the analysis
// needs (merge, subset, kill, definite-to-possible weakening) — paper §3.
package ptset

import (
	"sort"
	"strings"

	"repro/internal/pta/loc"
)

// Def is the definiteness of a relationship: true for definite (D), false
// for possible (P).
type Def bool

// Definiteness constants.
const (
	D Def = true
	P Def = false
)

func (d Def) String() string {
	if d {
		return "D"
	}
	return "P"
}

// And conjoins definiteness (D ∧ D = D, anything else P).
func (d Def) And(o Def) Def { return d && o }

// Edge is a (source, target) pair of locations.
type Edge struct {
	Src, Dst *loc.Location
}

// Triple is one points-to relationship.
type Triple struct {
	Src, Dst *loc.Location
	Def      Def
}

func (t Triple) String() string {
	return "(" + t.Src.Name() + "," + t.Dst.Name() + "," + t.Def.String() + ")"
}

// Set is a points-to set. The zero value is an empty set; use NewBottom for
// the BOTTOM element that represents "no information / unreachable" in the
// recursion fixed-point (paper Figure 4).
//
// Invariant: a set holds at most one triple per (src, dst) edge; inserting
// both D and P for the same edge weakens it to P.
type Set struct {
	m      map[Edge]Def
	bottom bool
}

// New returns an empty set.
func New() Set { return Set{m: make(map[Edge]Def)} }

// NewBottom returns the BOTTOM element.
func NewBottom() Set { return Set{bottom: true} }

// IsBottom reports whether the set is BOTTOM.
func (s Set) IsBottom() bool { return s.bottom }

// Len returns the number of triples (0 for BOTTOM).
func (s Set) Len() int { return len(s.m) }

// Insert adds (src, dst, d), weakening to P when the edge already exists
// with a different definiteness. Inserting into BOTTOM panics: BOTTOM must
// be replaced by Merge before use.
func (s Set) Insert(src, dst *loc.Location, d Def) {
	if s.bottom {
		panic("ptset: insert into BOTTOM")
	}
	e := Edge{src, dst}
	if old, ok := s.m[e]; ok {
		if old != d {
			s.m[e] = P
		}
		return
	}
	s.m[e] = d
}

// Lookup returns the definiteness of edge (src, dst) and whether it exists.
func (s Set) Lookup(src, dst *loc.Location) (Def, bool) {
	if s.bottom {
		return P, false
	}
	d, ok := s.m[Edge{src, dst}]
	return d, ok
}

// Targets returns the triples with the given source, sorted.
func (s Set) Targets(src *loc.Location) []Triple {
	if s.bottom {
		return nil
	}
	var out []Triple
	for e, d := range s.m {
		if e.Src == src {
			out = append(out, Triple{e.Src, e.Dst, d})
		}
	}
	sortTriples(out)
	return out
}

// Sources returns the triples with the given target, sorted.
func (s Set) Sources(dst *loc.Location) []Triple {
	if s.bottom {
		return nil
	}
	var out []Triple
	for e, d := range s.m {
		if e.Dst == dst {
			out = append(out, Triple{e.Src, e.Dst, d})
		}
	}
	sortTriples(out)
	return out
}

// Remove deletes the single edge (src, dst) if present.
func (s Set) Remove(src, dst *loc.Location) {
	if s.bottom {
		return
	}
	delete(s.m, Edge{src, dst})
}

// Kill removes every relationship whose source is src.
func (s Set) Kill(src *loc.Location) {
	if s.bottom {
		return
	}
	for e := range s.m {
		if e.Src == src {
			delete(s.m, e)
		}
	}
}

// Weaken turns every definite relationship from src into a possible one.
func (s Set) Weaken(src *loc.Location) {
	if s.bottom {
		return
	}
	for e, d := range s.m {
		if e.Src == src && d == D {
			s.m[e] = P
		}
	}
}

// Clone returns a deep, mutable copy.
func (s Set) Clone() Set {
	if s.bottom {
		return NewBottom()
	}
	n := Set{m: make(map[Edge]Def, len(s.m))}
	for e, d := range s.m {
		n.m[e] = d
	}
	return n
}

// Merge returns the join of a and b (paper's Merge): the union of edges,
// where an edge definite in both stays definite and anything else becomes
// possible. BOTTOM is the identity.
func Merge(a, b Set) Set {
	switch {
	case a.bottom && b.bottom:
		return NewBottom()
	case a.bottom:
		return b.Clone()
	case b.bottom:
		return a.Clone()
	}
	out := a.Clone()
	for e, db := range b.m {
		if da, ok := out.m[e]; ok {
			if da != db || db == P {
				out.m[e] = P
			}
			continue
		}
		// Present only in b: on the other path the relationship does not
		// hold, so it cannot be definite after the merge.
		out.m[e] = P
	}
	// Edges present only in a likewise lose definiteness.
	for e, da := range out.m {
		if da == D {
			if _, ok := b.m[e]; !ok {
				out.m[e] = P
			}
		}
	}
	return out
}

// Join merges o into s in place, leaving s equal to Merge(s, o) without
// copying s. BOTTOM o is the identity; joining into a BOTTOM s panics,
// because BOTTOM cannot change in place.
func (s Set) Join(o Set) {
	if s.bottom {
		panic("ptset: join into BOTTOM")
	}
	if o.bottom {
		return
	}
	n, shared := len(s.m), 0
	for e, do := range o.m {
		ds, ok := s.m[e]
		if !ok {
			s.m[e] = P // absent on the other path
			continue
		}
		shared++
		if ds == D && do == P {
			s.m[e] = P
		}
	}
	if shared == n {
		return // every edge of s is in o: none lost definiteness
	}
	for e, ds := range s.m {
		if ds == D {
			if _, ok := o.m[e]; !ok {
				s.m[e] = P
			}
		}
	}
}

// MergeAll joins any number of sets.
func MergeAll(sets ...Set) Set {
	out := NewBottom()
	for _, s := range sets {
		out = Merge(out, s)
	}
	return out
}

// Subset reports whether every relationship in a is covered by b: each edge
// of a exists in b, and an edge definite in b is definite in a. (A possible
// edge in a covered by a definite edge in b would claim more than b knows,
// so D-in-b/P-in-a is NOT a subset.)
//
// BOTTOM is a subset of everything.
func Subset(a, b Set) bool {
	if a.bottom {
		return true
	}
	if b.bottom {
		return false
	}
	for e, da := range a.m {
		db, ok := b.m[e]
		if !ok {
			return false
		}
		if db == D && da == P {
			return false
		}
	}
	return true
}

// Equal reports structural equality.
func Equal(a, b Set) bool {
	if a.bottom || b.bottom {
		return a.bottom == b.bottom
	}
	if len(a.m) != len(b.m) {
		return false
	}
	for e, da := range a.m {
		if db, ok := b.m[e]; !ok || da != db {
			return false
		}
	}
	return true
}

// Range calls f for every triple in unspecified order. Use it in hot paths
// whose effects are order-independent (Insert and Kill are commutative);
// use Triples when deterministic iteration matters.
func (s Set) Range(f func(Triple)) {
	if s.bottom {
		return
	}
	for e, d := range s.m {
		f(Triple{e.Src, e.Dst, d})
	}
}

// Triples returns all relationships, sorted deterministically.
func (s Set) Triples() []Triple {
	if s.bottom {
		return nil
	}
	out := make([]Triple, 0, len(s.m))
	for e, d := range s.m {
		out = append(out, Triple{e.Src, e.Dst, d})
	}
	sortTriples(out)
	return out
}

func sortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		if a, b := ts[i].Src.SortKey(), ts[j].Src.SortKey(); a != b {
			return a < b
		}
		return ts[i].Dst.SortKey() < ts[j].Dst.SortKey()
	})
}

// String renders the set like the paper: (x,y,D) (y,z,P) …
func (s Set) String() string {
	if s.bottom {
		return "BOTTOM"
	}
	ts := s.Triples()
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// StringNoNull renders the set without NULL and init-only relationships
// (the paper excludes NULL-initialization pairs from reported results).
func (s Set) StringNoNull() string {
	if s.bottom {
		return "BOTTOM"
	}
	var parts []string
	for _, t := range s.Triples() {
		if t.Dst.Kind == loc.Null {
			continue
		}
		parts = append(parts, t.String())
	}
	return strings.Join(parts, " ")
}
