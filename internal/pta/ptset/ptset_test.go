package ptset

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cc/ast"
	"repro/internal/pta/loc"
)

// testLocs builds a pool of distinct locations for property tests.
func testLocs(n int) []*loc.Location {
	tab := loc.NewTable(nil)
	out := make([]*loc.Location, n)
	for i := range out {
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
	s.Weaken(pool[3])
	if d, _ := s.Lookup(pool[3], pool[1]); d != P {
		t.Fatal("weaken should turn D into P")
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
		c.Weaken(pool[1])
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
		seen := make(map[Edge]bool)
		for _, tr := range a.Triples() {
			e := Edge{tr.Src, tr.Dst}
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
}

func TestTargetsSources(t *testing.T) {
	a := New()
	a.Insert(pool[0], pool[1], D)
	a.Insert(pool[0], pool[2], P)
	a.Insert(pool[3], pool[2], P)
	if n := len(a.Targets(pool[0])); n != 2 {
		t.Errorf("Targets(v0) = %d, want 2", n)
	}
	if n := len(a.Sources(pool[2])); n != 2 {
		t.Errorf("Sources(v2) = %d, want 2", n)
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
		got.Join(src)
		if !Equal(got, want) {
			t.Fatalf("%s: Join(%s, %s) = %s, Merge = %s", name, dst, src, got, want)
		}
		if src.String() != srcBefore {
			t.Fatalf("%s: Join changed its source from %s to %s", name, srcBefore, src)
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

	s := New()
	s.Insert(pool[0], pool[1], D)
	defer func() {
		if recover() == nil {
			t.Fatal("Join into BOTTOM did not panic")
		}
	}()
	NewBottom().Join(s)
}
