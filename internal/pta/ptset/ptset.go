// Package ptset implements points-to sets: sets of triples (x, y, D|P)
// between abstract stack locations, with the lattice operations the analysis
// needs (merge, subset, kill, definite-to-possible weakening) — paper §3.
//
// A set is a sorted slice of keys src<<33 | dst<<1 | def over the dense
// location IDs of one loc.Table, with def 1 for D. The slice holds no
// pointers, so a clone is one copy the garbage collector need not scan, the
// lattice operations are linear merges, and the triples of one source are
// one binary-searched run. IDs follow creation order, which under parallel
// fan-out depends on the schedule. So ID order reaches only code whose
// effect commutes, through Range and RangeTargets (the engine's set algebra,
// target lookups it sorts itself); everything that names or prints sorts by
// SortKey, as Triples and Targets do.
//
// Sets are copied on change. No set is written in place once any other
// caller holds it, so sets share key arrays freely: Update returns its
// input when a transfer function changes nothing, and rebuilds only the
// runs it changes otherwise; Merge and MergeAll return an operand that
// equals the join; Share and Join let an accumulator keep the array it
// was given until a join changes it. Insert and Kill write in place and
// act only on a set their caller has just built.
package ptset

import (
	"cmp"
	"slices"
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
// recursion fixed-point (paper Figure 4). A copied Set shares its contents:
// use Clone for an independent copy.
//
// Invariant: a set holds at most one triple per (src, dst) edge; inserting
// both D and P for the same edge weakens it to P.
type Set struct {
	b *body
}

type body struct {
	keys   []uint64   // sorted; one key per edge
	tab    *loc.Table // the table the IDs index; nil until the first insert
	bottom bool
}

// defBit is the definiteness bit of a key: set for D. Clearing it gives the
// edge's smallest key, and k|defBit its largest, so comparing keys with the
// bit cleared compares edges.
const defBit = 1

func key(src, dst *loc.Location, d Def) uint64 {
	k := uint64(src.ID())<<33 | uint64(dst.ID())<<1
	if d {
		k |= defBit
	}
	return k
}

// New returns an empty set.
func New() Set { return Set{&body{}} }

// NewBottom returns the BOTTOM element.
func NewBottom() Set { return Set{&body{bottom: true}} }

// IsBottom reports whether the set is BOTTOM.
func (s Set) IsBottom() bool { return s.b != nil && s.b.bottom }

func (s Set) keys() []uint64 {
	if s.b == nil {
		return nil
	}
	return s.b.keys
}

// Len returns the number of triples (0 for BOTTOM).
func (s Set) Len() int { return len(s.keys()) }

// find returns the index of edge (src, dst) in keys, or where it would go.
func find(keys []uint64, src, dst *loc.Location) (int, bool) {
	k := key(src, dst, P)
	i, _ := slices.BinarySearch(keys, k)
	return i, i < len(keys) && keys[i]&^defBit == k
}

// run returns the index range of src's triples in keys.
func run(keys []uint64, src *loc.Location) (lo, hi int) {
	id := uint64(src.ID())
	lo, _ = slices.BinarySearch(keys, id<<33)
	hi = lo
	for hi < len(keys) && keys[hi]>>33 == id {
		hi++
	}
	return lo, hi
}

// Insert adds (src, dst, d) in place, weakening to P when the edge already
// exists with a different definiteness. It is only for a set its caller
// has just built (a New set or a Clone); Update changes a set that others
// may hold. Inserting into BOTTOM panics: BOTTOM must be replaced by Merge
// before use.
func (s Set) Insert(src, dst *loc.Location, d Def) {
	b := s.b
	if b.bottom {
		panic("ptset: insert into BOTTOM")
	}
	if b.tab == nil {
		b.tab = src.Table()
	}
	k := key(src, dst, d)
	i, ok := find(b.keys, src, dst)
	if ok {
		b.keys[i] &= k // the edges agree, so this conjoins the def bits
		return
	}
	b.keys = slices.Insert(b.keys, i, k)
}

// Lookup returns the definiteness of edge (src, dst) and whether it exists.
func (s Set) Lookup(src, dst *loc.Location) (Def, bool) {
	keys := s.keys()
	i, ok := find(keys, src, dst)
	if !ok {
		return P, false
	}
	return keys[i]&defBit != 0, true
}

// Targets returns the triples with the given source, sorted by target.
func (s Set) Targets(src *loc.Location) []Triple {
	keys := s.keys()
	lo, hi := run(keys, src)
	if lo == hi {
		return nil
	}
	out := make([]Triple, hi-lo)
	for i, k := range keys[lo:hi] {
		out[i] = s.b.triple(k)
	}
	if len(out) > 1 {
		slices.SortFunc(out, func(x, y Triple) int { return loc.Compare(x.Dst, y.Dst) })
	}
	return out
}

// RangeTargets calls f for every triple with source src, in ID order,
// without allocating: the engine's hot paths use it where the effect
// commutes, and Targets where the order shows. f must not change s.
func (s Set) RangeTargets(src *loc.Location, f func(Triple)) {
	keys := s.keys()
	lo, hi := run(keys, src)
	for _, k := range keys[lo:hi] {
		f(s.b.triple(k))
	}
}

// triple decodes key k.
func (b *body) triple(k uint64) Triple {
	return Triple{b.tab.At(uint32(k >> 33)), b.tab.At(uint32(k >> 1)), k&defBit != 0}
}

// Kill removes every relationship whose source is src, in place, so like
// Insert it is only for a set its caller has just built.
func (s Set) Kill(src *loc.Location) {
	if s.b == nil {
		return
	}
	if lo, hi := run(s.b.keys, src); lo < hi {
		s.b.keys = slices.Delete(s.b.keys, lo, hi)
	}
}

// Update returns s after one transfer function (paper Figure 1): every
// relationship from a kill source goes, every definite one from a weaken
// source becomes possible, and then each gen triple is inserted as Insert
// would. A kill wins over a weaken of the same source. s is not changed:
// Update rebuilds only the runs of the sources it touches, and when none
// of them changes it returns s itself, so callers may share its result
// with its input.
func (s Set) Update(kill, weaken []*loc.Location, gen []Triple) Set {
	if s.IsBottom() {
		panic("ptset: update of BOTTOM")
	}
	// The sources touched, in ID order, each with its rule.
	var srcBuf [8]source
	srcs := srcBuf[:0]
	touch := func(l *loc.Location, rule uint8) {
		for i := range srcs {
			if srcs[i].l == l {
				srcs[i].rule = max(srcs[i].rule, rule)
				return
			}
		}
		srcs = append(srcs, source{l, rule})
	}
	for _, l := range kill {
		touch(l, ruleKill)
	}
	for _, l := range weaken {
		touch(l, ruleWeaken)
	}
	var genBuf [16]uint64
	gens := genBuf[:0]
	for _, t := range gen {
		touch(t.Src, ruleGen)
		gens = append(gens, key(t.Src, t.Dst, t.Def))
	}
	slices.SortFunc(srcs, func(x, y source) int { return cmp.Compare(x.l.ID(), y.l.ID()) })
	// Sorted, the gens of one edge are adjacent with P first, so keeping
	// the first of each edge conjoins their def bits.
	slices.Sort(gens)
	gens = slices.CompactFunc(gens, func(x, y uint64) bool { return x|defBit == y|defBit })

	// Build each touched source's new run into runs, and keep the spans of
	// the runs that change.
	keys := s.keys()
	var runBuf [32]uint64
	runs := runBuf[:0]
	var spanBuf [8]span
	spans := spanBuf[:0]
	size := len(keys)
	for _, src := range srcs {
		lo, hi := run(keys, src.l)
		glo, ghi := run(gens, src.l)
		start := len(runs)
		runs = src.rebuild(runs, keys[lo:hi], gens[glo:ghi])
		if slices.Equal(runs[start:], keys[lo:hi]) {
			runs = runs[:start]
			continue
		}
		spans = append(spans, span{lo, hi, start, len(runs)})
		size += len(runs) - start - (hi - lo)
	}
	if len(spans) == 0 {
		return s
	}
	out := make([]uint64, 0, size)
	prev := 0
	for _, sp := range spans {
		out = append(append(out, keys[prev:sp.lo]...), runs[sp.start:sp.end]...)
		prev = sp.hi
	}
	out = append(out, keys[prev:]...)
	tab := table(s, Set{})
	if tab == nil {
		tab = gen[0].Src.Table() // s was empty, so only gens changed it
	}
	return Set{&body{keys: out, tab: tab}}
}

// Rules of a source touched by Update, in the order a stronger one wins.
const (
	ruleGen    uint8 = iota // only gens
	ruleWeaken              // its definite relationships become possible
	ruleKill                // its relationships go
)

// source is a source location touched by Update.
type source struct {
	l    *loc.Location
	rule uint8
}

// span records that Update replaces the run keys[lo:hi] with runs[start:end].
type span struct{ lo, hi, start, end int }

// rebuild appends to out the source's new run: old after its kill or
// weaken rule, joined with the sorted, edge-unique gen keys g as Insert
// would join them.
func (src source) rebuild(out, old, g []uint64) []uint64 {
	if src.rule == ruleKill {
		old = nil
	}
	var weaken uint64
	if src.rule == ruleWeaken {
		weaken = defBit
	}
	i, j := 0, 0
	for i < len(old) && j < len(g) {
		eo, eg := old[i]|defBit, g[j]|defBit
		switch {
		case eo < eg:
			out = append(out, old[i]&^weaken)
			i++
		case eg < eo:
			out = append(out, g[j])
			j++
		default:
			out = append(out, old[i]&^weaken&g[j])
			i++
			j++
		}
	}
	for _, k := range old[i:] {
		out = append(out, k&^weaken)
	}
	return append(out, g[j:]...)
}

// Clone returns a deep copy its caller may change in place.
func (s Set) Clone() Set {
	if s.b == nil {
		return New()
	}
	if s.b.bottom {
		return NewBottom()
	}
	return Set{&body{keys: slices.Clone(s.b.keys), tab: s.b.tab}}
}

// Share returns a set with the contents of s that shares its key array
// where Clone would copy it. A Join into either set replaces that set's
// array and never writes the shared one, so the two stay independent as
// long as nobody changes s in place (Insert, Kill) after sharing it.
func (s Set) Share() Set {
	if s.b == nil {
		return New()
	}
	b := *s.b
	return Set{&b}
}

// Merge returns the join of a and b (paper's Merge): the union of edges,
// where an edge definite in both stays definite and anything else becomes
// possible. BOTTOM is the identity. When the join equals an operand, Merge
// returns that operand itself rather than a copy.
func Merge(a, b Set) Set {
	switch {
	case a.IsBottom():
		return b
	case b.IsBottom():
		return a
	}
	x, y := a.keys(), b.keys()
	i, j, same := agree(x, y)
	if same {
		return a
	}
	if _, _, same := agree(y, x); same {
		return b
	}
	return Set{&body{keys: joinKeys(x, y, i, j), tab: table(a, b)}}
}

// table returns the location table of whichever of a and b has one.
func table(a, b Set) *loc.Table {
	if a.b != nil && a.b.tab != nil {
		return a.b.tab
	}
	if b.b != nil {
		return b.b.tab
	}
	return nil
}

// joinKeys returns the keys of the join of x and y in a new array, given
// agree's prefix: x[:i] is copied as it is and the rest merged.
func joinKeys(x, y []uint64, i, j int) []uint64 {
	out := append(make([]uint64, 0, i+max(len(x)-i, len(y)-j)), x[:i]...)
	return mergeInto(out, x[i:], y[j:])
}

// mergeInto appends the keys of the join of x and y to out: an edge in both
// keeps the conjunction of its def bits, and an edge in one only becomes P,
// since it does not hold on the other path.
func mergeInto(out, x, y []uint64) []uint64 {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		ex, ey := x[i]|defBit, y[j]|defBit
		switch {
		case ex < ey:
			out = append(out, x[i]&^defBit)
			i++
		case ey < ex:
			out = append(out, y[j]&^defBit)
			j++
		default:
			out = append(out, x[i]&y[j])
			i++
			j++
		}
	}
	for _, k := range x[i:] {
		out = append(out, k&^defBit)
	}
	for _, k := range y[j:] {
		out = append(out, k&^defBit)
	}
	return out
}

// Join merges o into s, leaving s (and every copy of it) equal to
// Merge(s, o). BOTTOM o is the identity; joining into a BOTTOM s panics,
// because BOTTOM cannot change in place. Join never writes s's key array:
// when the join equals s it keeps the array, and otherwise it copies the
// keys before the first difference into a new one and merges from there.
func (s Set) Join(o Set) {
	if s.b.bottom {
		panic("ptset: join into BOTTOM")
	}
	if o.IsBottom() {
		return
	}
	x, y := s.b.keys, o.keys()
	i, j, same := agree(x, y)
	if same {
		return
	}
	s.b.keys = joinKeys(x, y, i, j)
	s.b.tab = table(s, o)
}

// agree returns how far merge(x, y) reproduces x: the merge equals x[:i]
// from x[:i] and y[:j] alone, and same reports whether it equals x.
func agree(x, y []uint64) (i, j int, same bool) {
	for ; i < len(x); i++ {
		ex := x[i] | defBit
		switch {
		case j < len(y) && y[j]|defBit < ex:
			return i, j, false // an edge only y has
		case j < len(y) && y[j]|defBit == ex:
			if x[i]&y[j] != x[i] {
				return i, j, false // D in x, P in y
			}
			j++
		case x[i]&defBit != 0:
			return i, j, false // a D edge only x has becomes P
		}
	}
	return i, j, j == len(y)
}

// MergeAll joins any number of sets, BOTTOM for none. Like Merge, it
// returns an operand that equals the join.
func MergeAll(sets ...Set) Set {
	if len(sets) == 0 {
		return NewBottom()
	}
	out := sets[0]
	for _, s := range sets[1:] {
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
	if a.IsBottom() {
		return true
	}
	if b.IsBottom() {
		return false
	}
	y := b.keys()
	j := 0
	for _, k := range a.keys() {
		for j < len(y) && y[j]|defBit < k|defBit {
			j++
		}
		if j == len(y) || y[j]|defBit != k|defBit || y[j] > k {
			return false
		}
		j++
	}
	return true
}

// Equal reports structural equality.
func Equal(a, b Set) bool {
	if a.IsBottom() || b.IsBottom() {
		return a.IsBottom() == b.IsBottom()
	}
	return slices.Equal(a.keys(), b.keys())
}

// Range calls f for every triple in ID order, which depends on the
// schedule, but visits the triples of one source together. Use it in hot
// paths whose effects are order-independent (Insert and Kill are
// commutative); use Triples when deterministic iteration matters. f must
// not change s.
func (s Set) Range(f func(Triple)) {
	for _, k := range s.keys() {
		f(s.b.triple(k))
	}
}

// Triples returns all relationships, sorted deterministically.
func (s Set) Triples() []Triple {
	if s.IsBottom() {
		return nil
	}
	keys := s.keys()
	out := make([]Triple, len(keys))
	for i, k := range keys {
		out[i] = s.b.triple(k)
	}
	slices.SortFunc(out, func(x, y Triple) int {
		if c := loc.Compare(x.Src, y.Src); c != 0 {
			return c
		}
		return loc.Compare(x.Dst, y.Dst)
	})
	return out
}

// String renders the set like the paper: (x,y,D) (y,z,P) …
func (s Set) String() string { return s.render(false) }

// StringNoNull renders the set without NULL and init-only relationships
// (the paper excludes NULL-initialization pairs from reported results).
func (s Set) StringNoNull() string { return s.render(true) }

// render writes the triples, in Triples order, into one builder sized up
// front: fingerprints render every recorded set, so this is a hot path.
func (s Set) render(noNull bool) string {
	if s.IsBottom() {
		return "BOTTOM"
	}
	ts := s.Triples()
	n := 0
	for _, t := range ts {
		n += len(t.Src.Name()) + len(t.Dst.Name()) + len("(,,D) ")
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, t := range ts {
		if noNull && t.Dst.Kind == loc.Null {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteByte('(')
		sb.WriteString(t.Src.Name())
		sb.WriteByte(',')
		sb.WriteString(t.Dst.Name())
		sb.WriteByte(',')
		sb.WriteString(t.Def.String())
		sb.WriteByte(')')
	}
	return sb.String()
}
