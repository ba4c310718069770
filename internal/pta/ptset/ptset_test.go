package ptset

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cc/ast"
	"repro/internal/pta/loc"
)

// testLocs builds a pool of distinct locations v0..v(n-1) for property
// tests. It creates them in reverse name order, so ID order and SortKey
// order disagree: a test that sees ID order leak out of the package fails.
func testLocs(n int) []*loc.Location {
	tab := loc.NewTable(nil)
	out := make([]*loc.Location, n)
	for i := n - 1; i >= 0; i-- {
		obj := &ast.Object{Name: fmt.Sprintf("v%d", i), Kind: ast.Var, Global: true}
		out[i] = tab.VarLoc(obj, nil)
	}
	return out
}

// randomSet is a generatable points-to set over a fixed location pool.
type randomSet struct {
	edges []edgeSpec
}

type edgeSpec struct {
	src, dst uint8
	def      bool
}

func (randomSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(12)
	rs := randomSet{}
	for i := 0; i < n; i++ {
		rs.edges = append(rs.edges, edgeSpec{
			src: uint8(r.Intn(8)),
			dst: uint8(r.Intn(8)),
			def: r.Intn(2) == 0,
		})
	}
	return reflect.ValueOf(rs)
}

var pool = testLocs(8)

func (rs randomSet) build() Set {
	s := New()
	for _, e := range rs.edges {
		d := P
		if e.def {
			d = D
		}
		s.Insert(pool[e.src], pool[e.dst], d)
	}
	return s
}

func TestInsertWeakens(t *testing.T) {
	s := New()
	s.Insert(pool[0], pool[1], D)
	if d, ok := s.Lookup(pool[0], pool[1]); !ok || d != D {
		t.Fatal("expected definite edge")
	}
	s.Insert(pool[0], pool[1], P)
	if d, _ := s.Lookup(pool[0], pool[1]); d != P {
		t.Fatal("D+P insert must weaken to P")
	}
	if s.Len() != 1 {
		t.Fatalf("one edge expected, got %d", s.Len())
	}
}

func TestKillAndWeaken(t *testing.T) {
	s := New()
	s.Insert(pool[0], pool[1], D)
	s.Insert(pool[0], pool[2], P)
	s.Insert(pool[3], pool[1], D)
	s.Kill(pool[0])
	if s.Len() != 1 {
		t.Fatalf("kill should leave 1 edge, got %d", s.Len())
	}
	w := s.Update(nil, []*loc.Location{pool[3]}, nil)
	if d, _ := w.Lookup(pool[3], pool[1]); d != P {
		t.Fatal("weaken should turn D into P")
	}
	if d, _ := s.Lookup(pool[3], pool[1]); d != D {
		t.Fatal("Update changed its input")
	}
}

func TestMergeBasics(t *testing.T) {
	a := New()
	a.Insert(pool[0], pool[1], D)
	b := New()
	b.Insert(pool[0], pool[1], D)
	b.Insert(pool[2], pool[3], D)
	m := Merge(a, b)
	// Edge in both and definite in both stays definite.
	if d, _ := m.Lookup(pool[0], pool[1]); d != D {
		t.Error("common definite edge should stay definite")
	}
	// Edge only in one side becomes possible.
	if d, ok := m.Lookup(pool[2], pool[3]); !ok || d != P {
		t.Error("one-sided edge should become possible")
	}
}

func TestBottomIdentity(t *testing.T) {
	a := New()
	a.Insert(pool[0], pool[1], D)
	if got := Merge(NewBottom(), a); !Equal(got, a) {
		t.Error("Merge(BOTTOM, a) should equal a")
	}
	if got := Merge(a, NewBottom()); !Equal(got, a) {
		t.Error("Merge(a, BOTTOM) should equal a")
	}
	if !Subset(NewBottom(), a) {
		t.Error("BOTTOM is a subset of everything")
	}
	if Subset(a, NewBottom()) {
		t.Error("a non-empty set is not a subset of BOTTOM")
	}
}

func TestSubsetDefiniteness(t *testing.T) {
	a := New()
	a.Insert(pool[0], pool[1], P)
	b := New()
	b.Insert(pool[0], pool[1], D)
	// a claims the edge is possible; b claims definite. a is NOT covered
	// by b (b says the relationship holds on all paths; a does not).
	if Subset(a, b) {
		t.Error("P edge is not a subset of D edge")
	}
	if !Subset(b, a) {
		t.Error("D edge should be covered by P edge")
	}
}

// --- quick properties ---

func TestQuickMergeCommutative(t *testing.T) {
	f := func(x, y randomSet) bool {
		a, b := x.build(), y.build()
		return Equal(Merge(a, b), Merge(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeAssociative(t *testing.T) {
	f := func(x, y, z randomSet) bool {
		a, b, c := x.build(), y.build(), z.build()
		l := Merge(Merge(a, b), c)
		r := Merge(a, Merge(b, c))
		return Equal(l, r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeIdempotent(t *testing.T) {
	f := func(x randomSet) bool {
		a := x.build()
		return Equal(Merge(a, a), a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetOfMerge(t *testing.T) {
	f := func(x, y randomSet) bool {
		a, b := x.build(), y.build()
		m := Merge(a, b)
		return Subset(a, m) && Subset(b, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetReflexiveTransitive(t *testing.T) {
	f := func(x, y, z randomSet) bool {
		a, b, c := x.build(), y.build(), z.build()
		if !Subset(a, a) {
			return false
		}
		ab := Merge(a, b)
		abc := Merge(ab, c)
		return Subset(a, ab) && Subset(ab, abc) && Subset(a, abc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCloneIndependent(t *testing.T) {
	f := func(x randomSet) bool {
		a := x.build()
		snapshot := fmt.Sprint(a.Triples())
		c := a.Clone()
		if !Equal(a, c) {
			return false
		}
		// Mutating the clone must leave the original untouched.
		c.Insert(pool[7], pool[7], P)
		c.Kill(pool[0])
		return fmt.Sprint(a.Triples()) == snapshot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNoDualEdges(t *testing.T) {
	// Invariant: a set never holds both a D and a P triple for one edge
	// (Insert collapses them).
	f := func(x randomSet) bool {
		a := x.build()
		seen := make(map[[2]*loc.Location]bool)
		for _, tr := range a.Triples() {
			e := [2]*loc.Location{tr.Src, tr.Dst}
			if seen[e] {
				return false
			}
			seen[e] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeDefiniteOnlyWhenBoth(t *testing.T) {
	f := func(x, y randomSet) bool {
		a, b := x.build(), y.build()
		m := Merge(a, b)
		for _, tr := range m.Triples() {
			if tr.Def == D {
				da, inA := a.Lookup(tr.Src, tr.Dst)
				db, inB := b.Lookup(tr.Src, tr.Dst)
				if !(inA && inB && da == D && db == D) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriplesDeterministic(t *testing.T) {
	a := New()
	a.Insert(pool[3], pool[1], P)
	a.Insert(pool[0], pool[2], D)
	a.Insert(pool[0], pool[1], P)
	got := fmt.Sprint(a.Triples())
	for i := 0; i < 10; i++ {
		b := New()
		b.Insert(pool[0], pool[1], P)
		b.Insert(pool[3], pool[1], P)
		b.Insert(pool[0], pool[2], D)
		if fmt.Sprint(b.Triples()) != got {
			t.Fatal("Triples() must be deterministic regardless of insert order")
		}
	}
}

func TestStringFormat(t *testing.T) {
	a := New()
	a.Insert(pool[0], pool[1], D)
	want := "(v0,v1,D)"
	if got := a.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if NewBottom().String() != "BOTTOM" {
		t.Error("BOTTOM should print as BOTTOM")
	}
	a.Insert(pool[1], pool[0].Table().NullLoc(), P)
	if got, want := a.String(), "(v0,v1,D) (v1,NULL,P)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := a.StringNoNull(), "(v0,v1,D)"; got != want {
		t.Errorf("StringNoNull() = %q, want %q", got, want)
	}
}

func TestTargets(t *testing.T) {
	a := New()
	a.Insert(pool[0], pool[1], D)
	a.Insert(pool[0], pool[2], P)
	a.Insert(pool[3], pool[2], P)
	want := []Triple{{pool[0], pool[1], D}, {pool[0], pool[2], P}}
	if got := a.Targets(pool[0]); !slices.Equal(got, want) {
		t.Errorf("Targets(v0) = %v, want %v", got, want)
	}
	if got := a.Targets(pool[2]); got != nil {
		t.Errorf("Targets(v2) = %v, want none", got)
	}
}

// TestJoinEqualsMerge checks the in-place Join against Merge on seeded
// random sets: definite/possible mixes over overlapping and disjoint edge
// pools, plus the empty and BOTTOM sources. Join must leave its source
// untouched.
func TestJoinEqualsMerge(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	// randSet draws up to max edges with sources in [lo, hi) of the pool.
	randSet := func(lo, hi, max int) Set {
		s := New()
		for i := r.Intn(max + 1); i > 0; i-- {
			d := P
			if r.Intn(3) > 0 {
				d = D
			}
			s.Insert(pool[lo+r.Intn(hi-lo)], pool[r.Intn(len(pool))], d)
		}
		return s
	}
	check := func(name string, dst, src Set) {
		t.Helper()
		want := Merge(dst, src)
		srcBefore := src.String()
		got := dst.Clone()
		shared := got.Share()
		got.Join(src)
		if !Equal(got, want) {
			t.Fatalf("%s: Join(%s, %s) = %s, Merge = %s", name, dst, src, got, want)
		}
		if src.String() != srcBefore {
			t.Fatalf("%s: Join changed its source from %s to %s", name, srcBefore, src)
		}
		if !Equal(shared, dst) {
			t.Fatalf("%s: Join wrote the key array it shared: %s, was %s", name, shared, dst)
		}
	}
	for i := 0; i < 500; i++ {
		a := randSet(0, len(pool), 12)
		check("overlapping", a, randSet(0, len(pool), 12))
		check("dense overlap", randSet(0, 2, 16), randSet(0, 2, 16))
		check("disjoint", randSet(0, 4, 10), randSet(4, 8, 10))
		check("subset source", a, a.Clone())
		check("empty source", a, New())
		check("empty destination", New(), a)
		check("BOTTOM source", a, NewBottom())
	}

	// A join that changes nothing keeps the receiver's keys.
	s := New()
	s.Insert(pool[0], pool[1], D)
	s.Insert(pool[2], pool[3], P)
	sub := New()
	sub.Insert(pool[2], pool[3], D)
	if n := testing.AllocsPerRun(100, func() { s.Join(sub) }); n != 0 {
		t.Errorf("Join of a covered set allocated %v times", n)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Join into BOTTOM did not panic")
		}
	}()
	NewBottom().Join(s)
}

func TestRangeTargetsAllocationFree(t *testing.T) {
	s := New()
	s.Insert(pool[0], pool[1], D)
	s.Insert(pool[0], pool[2], P)
	n := 0
	if a := testing.AllocsPerRun(100, func() { s.RangeTargets(pool[0], func(Triple) { n++ }) }); a != 0 {
		t.Errorf("RangeTargets allocated %v times", a)
	}
	if n != 2*101 {
		t.Errorf("RangeTargets visited %d triples in 101 runs, want %d", n, 2*101)
	}
}

// model is the map-keyed set this package used before dense location IDs,
// kept as the reference TestAgainstModel checks every operation against.
// Like Set, a copied *model shares its contents.
type model struct {
	m      map[[2]*loc.Location]Def
	bottom bool
}

func newModel() *model { return &model{m: make(map[[2]*loc.Location]Def)} }

func (s *model) insert(src, dst *loc.Location, d Def) {
	e := [2]*loc.Location{src, dst}
	if old, ok := s.m[e]; ok && old != d {
		d = P
	}
	s.m[e] = d
}

func (s *model) kill(src *loc.Location) {
	for e := range s.m {
		if e[0] == src {
			delete(s.m, e)
		}
	}
}

func (s *model) weaken(src *loc.Location) {
	for e := range s.m {
		if e[0] == src {
			s.m[e] = P
		}
	}
}

func (s *model) clone() *model {
	if s.bottom {
		return &model{bottom: true}
	}
	n := newModel()
	for e, d := range s.m {
		n.m[e] = d
	}
	return n
}

func modelMerge(a, b *model) *model {
	switch {
	case a.bottom:
		return b.clone()
	case b.bottom:
		return a.clone()
	}
	out := newModel()
	for e, da := range a.m {
		db, ok := b.m[e]
		out.m[e] = da.And(db).And(Def(ok))
	}
	for e := range b.m {
		if _, ok := a.m[e]; !ok {
			out.m[e] = P
		}
	}
	return out
}

func modelSubset(a, b *model) bool {
	if a.bottom || b.bottom {
		return a.bottom || !b.bottom
	}
	for e, da := range a.m {
		if db, ok := b.m[e]; !ok || db == D && da == P {
			return false
		}
	}
	return true
}

func modelEqual(a, b *model) bool {
	if a.bottom || b.bottom {
		return a.bottom == b.bottom
	}
	return modelSubset(a, b) && modelSubset(b, a)
}

func (s *model) lookup(src, dst *loc.Location) (Def, bool) {
	d, ok := s.m[[2]*loc.Location{src, dst}]
	return d, ok
}

// triples returns the model's triples with source src, or all of them when
// src is nil, in SortKey order.
func (s *model) triples(src *loc.Location) []Triple {
	var out []Triple
	for e, d := range s.m {
		if src == nil || e[0] == src {
			out = append(out, Triple{e[0], e[1], d})
		}
	}
	slices.SortFunc(out, func(x, y Triple) int {
		if c := strings.Compare(x.Src.SortKey(), y.Src.SortKey()); c != 0 {
			return c
		}
		return strings.Compare(x.Dst.SortKey(), y.Dst.SortKey())
	})
	return out
}

// TestAgainstModel runs seeded random sequences of Insert, Kill, Update,
// Join, Merge, MergeAll, Clone and plain copies over a few set slots, each
// paired with the map model, and after every operation compares Triples,
// Len, Lookup and Targets of every slot and Subset and Equal of every pair
// of slots. Following the package contract, Insert, Kill and Join act only
// on a set built in the same step, so sets that share contents never
// change under each other. Update is checked against the model's
// sequential kill, weaken and insert over duplicate gens, gens of both D
// and P for one edge, weakens and gens of one source and kills of absent
// sources; it and Merge must return an input whose contents they keep. The
// location pool's ID order is the reverse of its SortKey order, so any ID
// order that leaks into a result shows.
func TestAgainstModel(t *testing.T) {
	locs := testLocs(6)
	const slots = 4
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		sets := make([]Set, slots)
		models := make([]*model, slots)
		for i := range sets {
			sets[i], models[i] = New(), newModel()
		}
		pick := func() *loc.Location { return locs[r.Intn(len(locs))] }
		var trace []string
		for step := 0; step < 150; step++ {
			i, j, o := r.Intn(slots), r.Intn(slots), r.Intn(slots)
			src, dst := pick(), pick()
			s, m := sets[i], models[i]
			var op string
			switch k := r.Intn(20); {
			case k < 5:
				d := Def(r.Intn(3) > 0)
				op = fmt.Sprintf("s%d = s%d.Clone(); s%d.Insert(%s,%s,%s)", i, i, i, src, dst, d)
				if m.bottom {
					s, m = New(), newModel()
				} else {
					s, m = s.Clone(), m.clone()
				}
				s.Insert(src, dst, d)
				m.insert(src, dst, d)
				sets[i], models[i] = s, m
			case k < 7:
				op = fmt.Sprintf("s%d = s%d.Clone(); s%d.Kill(%s)", i, i, i, src)
				s, m = s.Clone(), m.clone()
				s.Kill(src)
				if !m.bottom {
					m.kill(src)
				}
				sets[i], models[i] = s, m
			case k < 11:
				if m.bottom {
					continue
				}
				kill, weaken, gen := randomUpdate(r, pick)
				op = fmt.Sprintf("s%d = s%d.Update(%v, %v, %v)", o, i, kill, weaken, gen)
				want := m.clone()
				for _, l := range kill {
					want.kill(l)
				}
				for _, l := range weaken {
					want.weaken(l)
				}
				for _, g := range gen {
					want.insert(g.Src, g.Dst, g.Def)
				}
				got := s.Update(kill, weaken, gen)
				if same := got.b == s.b; same != modelEqual(want, m) {
					t.Fatalf("seed %d: %s returned its input: %v, want %v", seed, op, same, !same)
				}
				sets[o], models[o] = got, want
			case k < 13:
				op = fmt.Sprintf("s%d = s%d.Share(); s%d.Join(s%d)", i, i, i, j)
				if m.bottom {
					continue
				}
				s = s.Share()
				s.Join(sets[j])
				sets[i], models[i] = s, modelMerge(m, models[j])
			case k < 15:
				op = fmt.Sprintf("s%d = Merge(s%d, s%d)", o, i, j)
				got, want := Merge(s, sets[j]), modelMerge(m, models[j])
				if modelEqual(want, m) && got.b != s.b && got.b != sets[j].b ||
					modelEqual(want, models[j]) && got.b != sets[j].b && got.b != s.b {
					t.Fatalf("seed %d: %s copied an operand equal to the join", seed, op)
				}
				sets[o], models[o] = got, want
			case k < 16:
				n := r.Intn(4)
				op = fmt.Sprintf("s%d = MergeAll(s%d, s%d, s%d)[:%d]", o, i, j, o, n)
				ins := []Set{s, sets[j], sets[o]}[:n]
				want := &model{bottom: true}
				for _, x := range []*model{m, models[j], models[o]}[:n] {
					want = modelMerge(want, x)
				}
				sets[o], models[o] = MergeAll(ins...), want
			case k < 17:
				op = fmt.Sprintf("s%d = s%d.Clone()", j, i)
				sets[j], models[j] = s.Clone(), m.clone()
			case k < 19:
				op = fmt.Sprintf("s%d = s%d", j, i) // shares contents
				sets[j], models[j] = s, m
			default:
				op = fmt.Sprintf("s%d = BOTTOM", i)
				sets[i], models[i] = NewBottom(), &model{bottom: true}
			}
			trace = append(trace, op)
			if err := compareWithModel(sets, models, locs); err != nil {
				t.Fatalf("seed %d after %s: %v", seed, strings.Join(trace, "; "), err)
			}
		}
	}
}

// randomUpdate draws the kill, weaken and gen sets of one Update over the
// locations pick returns. Kill sources are often absent from the set, a
// gen is often repeated with either definiteness, and a gen's source is
// often weakened as well.
func randomUpdate(r *rand.Rand, pick func() *loc.Location) (kill, weaken []*loc.Location, gen []Triple) {
	for n := r.Intn(3); n > 0; n-- {
		kill = append(kill, pick())
	}
	for n := r.Intn(3); n > 0; n-- {
		weaken = append(weaken, pick())
	}
	for n := r.Intn(5); n > 0; n-- {
		g := Triple{pick(), pick(), Def(r.Intn(3) > 0)}
		gen = append(gen, g)
		switch r.Intn(4) {
		case 0:
			gen = append(gen, Triple{g.Src, g.Dst, !g.Def})
		case 1:
			gen = append(gen, g)
		case 2:
			weaken = append(weaken, g.Src)
		}
	}
	r.Shuffle(len(gen), func(a, b int) { gen[a], gen[b] = gen[b], gen[a] })
	return kill, weaken, gen
}

// TestUpdateSharesUnchanged checks the copy-on-change contract: an Update
// that changes nothing, and a Merge whose join equals an operand, return
// that input itself without allocating.
func TestUpdateSharesUnchanged(t *testing.T) {
	s := New()
	s.Insert(pool[0], pool[1], D)
	s.Insert(pool[0], pool[2], P)
	s.Insert(pool[3], pool[1], P)
	// Kill an absent source, weaken one with P edges only, and generate
	// edges that are there at least as weak.
	kill := []*loc.Location{pool[5]}
	weaken := []*loc.Location{pool[3]}
	gen := []Triple{{pool[0], pool[1], D}, {pool[3], pool[1], D}, {pool[3], pool[1], P}}
	var got Set
	if n := testing.AllocsPerRun(100, func() { got = s.Update(kill, weaken, gen) }); n != 0 {
		t.Errorf("an Update that changes nothing allocated %v times", n)
	}
	if &got.keys()[0] != &s.keys()[0] {
		t.Error("an Update that changes nothing copied the key array")
	}

	// One changed def bit is a change.
	if got := s.Update(nil, []*loc.Location{pool[0]}, nil); got.b == s.b || Equal(got, s) {
		t.Errorf("weakening a D edge returned %s for %s", got, s)
	}
	if got := s.Update(nil, nil, []Triple{{pool[0], pool[1], P}}); got.b == s.b || Equal(got, s) {
		t.Errorf("a P gen of a D edge returned %s for %s", got, s)
	}

	same := s.Clone()
	sub := New() // s without its P edge (v0,v2), so their join is s
	sub.Insert(pool[0], pool[1], D)
	sub.Insert(pool[3], pool[1], P)
	bottom := NewBottom()
	for _, c := range []struct {
		name       string
		a, b, want Set
	}{
		{"BOTTOM, s", bottom, s, s},
		{"s, BOTTOM", s, bottom, s},
		{"s, equal", s, same, s},
		{"covered, s", sub, s, s},
		{"s, covered", s, sub, s},
	} {
		var got Set
		if n := testing.AllocsPerRun(100, func() { got = Merge(c.a, c.b) }); n != 0 {
			t.Errorf("Merge(%s) allocated %v times", c.name, n)
		}
		if got.b != c.want.b {
			t.Errorf("Merge(%s) did not return its operand", c.name)
		}
	}
	// A P edge only the other operand has is a change.
	extra := s.Clone()
	extra.Insert(pool[4], pool[1], P)
	if got := Merge(s, extra); got.b != extra.b || Equal(got, s) {
		t.Errorf("Merge(s, s+P edge) = %s", got)
	}
}

func compareWithModel(sets []Set, models []*model, locs []*loc.Location) error {
	for i, s := range sets {
		m := models[i]
		if s.IsBottom() != m.bottom {
			return fmt.Errorf("s%d: IsBottom = %v, model %v", i, s.IsBottom(), m.bottom)
		}
		if want := m.triples(nil); !slices.Equal(s.Triples(), want) {
			return fmt.Errorf("s%d: Triples = %v, model %v", i, s.Triples(), want)
		}
		if s.Len() != len(m.m) {
			return fmt.Errorf("s%d: Len = %d, model %d", i, s.Len(), len(m.m))
		}
		for _, src := range locs {
			want := m.triples(src)
			if got := s.Targets(src); !slices.Equal(got, want) {
				return fmt.Errorf("s%d: Targets(%s) = %v, model %v", i, src, got, want)
			}
			var ranged []Triple
			s.RangeTargets(src, func(t Triple) { ranged = append(ranged, t) })
			slices.SortFunc(ranged, func(x, y Triple) int { return loc.Compare(x.Dst, y.Dst) })
			if !slices.Equal(ranged, want) {
				return fmt.Errorf("s%d: RangeTargets(%s) = %v, model %v", i, src, ranged, want)
			}
			for _, dst := range locs {
				d, ok := s.Lookup(src, dst)
				md, mok := m.lookup(src, dst)
				if ok != mok || ok && d != md {
					return fmt.Errorf("s%d: Lookup(%s,%s) = %v %v, model %v %v", i, src, dst, d, ok, md, mok)
				}
			}
		}
		for j, o := range sets {
			if got, want := Subset(s, o), modelSubset(m, models[j]); got != want {
				return fmt.Errorf("Subset(s%d, s%d) = %v, model %v", i, j, got, want)
			}
			if got, want := Equal(s, o), modelEqual(m, models[j]); got != want {
				return fmt.Errorf("Equal(s%d, s%d) = %v, model %v", i, j, got, want)
			}
		}
	}
	return nil
}
