package loc

import (
	"testing"

	"repro/internal/cc/ast"
	"repro/internal/cc/types"
)

func TestInterning(t *testing.T) {
	tab := NewTable(nil)
	obj := &ast.Object{Name: "x", Kind: ast.Var, Type: types.IntType}
	a := tab.VarLoc(obj, nil)
	b := tab.VarLoc(obj, nil)
	if a != b {
		t.Error("same variable must intern to the same location")
	}
	f1 := tab.VarLoc(obj, []Elem{FieldElem("f")})
	f2 := tab.VarLoc(obj, []Elem{FieldElem("f")})
	if f1 != f2 {
		t.Error("same path must intern to the same location")
	}
	if f1 == a {
		t.Error("different paths must be different locations")
	}
}

func TestNames(t *testing.T) {
	tab := NewTable(nil)
	obj := &ast.Object{Name: "arr", Kind: ast.Var}
	head := tab.VarLoc(obj, []Elem{HeadElem})
	tail := tab.VarLoc(obj, []Elem{TailElem})
	if head.Name() != "arr[0]" {
		t.Errorf("head name = %q, want arr[0]", head.Name())
	}
	if tail.Name() != "arr[*]" {
		t.Errorf("tail name = %q, want arr[*]", tail.Name())
	}
	s := &ast.Object{Name: "s", Kind: ast.Var}
	sf := tab.VarLoc(s, []Elem{FieldElem("f"), FieldElem("g")})
	if sf.Name() != "s.f.g" {
		t.Errorf("field path name = %q, want s.f.g", sf.Name())
	}
}

func TestMulti(t *testing.T) {
	tab := NewTable(nil)
	obj := &ast.Object{Name: "arr", Kind: ast.Var}
	if tab.VarLoc(obj, []Elem{HeadElem}).Multi() {
		t.Error("array head represents exactly one location")
	}
	if !tab.VarLoc(obj, []Elem{TailElem}).Multi() {
		t.Error("array tail represents multiple locations")
	}
	if !tab.HeapLoc().Multi() {
		t.Error("heap is a multi location")
	}
	if tab.NullLoc().Multi() {
		t.Error("NULL is not a multi location")
	}
	if !tab.StrLoc().Multi() {
		t.Error("string storage is a multi location")
	}
}

func TestExtendCollapsesHeap(t *testing.T) {
	tab := NewTable(nil)
	h := tab.HeapLoc()
	if tab.Extend(h, FieldElem("next")) != h {
		t.Error("heap absorbs field selectors")
	}
	if tab.Extend(h, TailElem) != h {
		t.Error("heap absorbs index selectors")
	}
	if tab.Extend(tab.NullLoc(), FieldElem("f")) != nil {
		t.Error("NULL cannot be extended")
	}
}

// TestFixedKeysUnique checks that a global named like a fixed location
// (int *heap;) gets a different sort key, and that the fixed location sorts
// right after it, ahead of every longer name.
func TestFixedKeysUnique(t *testing.T) {
	tab := NewTable(nil)
	for _, fixed := range []*Location{tab.HeapLoc(), tab.NullLoc(), tab.StrLoc(), tab.FreedLoc()} {
		g := tab.VarLoc(&ast.Object{Name: fixed.Name(), Kind: ast.Var, Global: true}, nil)
		longer := tab.VarLoc(&ast.Object{Name: fixed.Name() + "0", Kind: ast.Var, Global: true}, nil)
		if g.Name() != fixed.Name() {
			t.Fatalf("global %q renders as %q", fixed.Name(), g.Name())
		}
		if Compare(g, fixed) >= 0 || Compare(fixed, longer) >= 0 {
			t.Errorf("%s: keys %q, %q, %q are not in order global < fixed < longer name",
				fixed.Name(), g.SortKey(), fixed.SortKey(), longer.SortKey())
		}
	}
}

func TestGlobalish(t *testing.T) {
	tab := NewTable(nil)
	g := &ast.Object{Name: "g", Kind: ast.Var, Global: true}
	l := &ast.Object{Name: "l", Kind: ast.Var}
	if !tab.VarLoc(g, nil).IsGlobalish() {
		t.Error("global variable is globalish")
	}
	if tab.VarLoc(l, nil).IsGlobalish() {
		t.Error("local variable is not globalish")
	}
	if !tab.HeapLoc().IsGlobalish() || !tab.NullLoc().IsGlobalish() {
		t.Error("heap and NULL are globalish")
	}
	fo := &ast.Object{Name: "f", Kind: ast.FuncObj, Global: true}
	if !tab.FuncLoc(fo).IsGlobalish() {
		t.Error("function locations are globalish")
	}
}

func TestSymbolicLocations(t *testing.T) {
	tab := NewTable(nil)
	s1 := tab.SymLoc(nil, "1_x", nil, types.IntType)
	s2 := tab.SymLoc(nil, "1_x", nil, nil)
	if s1 != s2 {
		t.Error("symbolic names intern by (fn, name, path)")
	}
	ext := tab.Extend(s1, FieldElem("f"))
	if ext.Name() != "1_x.f" {
		t.Errorf("extension name = %q, want 1_x.f", ext.Name())
	}
	if tab.Root(ext) != s1 {
		t.Error("Root should strip the path")
	}
}

func TestPointerPaths(t *testing.T) {
	// struct { int *p; int n; int *a[4]; struct { char *q; } in; }
	inner := &types.Type{Kind: types.Struct, Tag: "in", Fields: []*types.Field{
		{Name: "q", Type: types.PointerTo(types.CharType)},
	}}
	st := &types.Type{Kind: types.Struct, Tag: "s", Fields: []*types.Field{
		{Name: "p", Type: types.PointerTo(types.IntType)},
		{Name: "n", Type: types.IntType},
		{Name: "a", Type: types.ArrayOf(types.PointerTo(types.IntType), 4)},
		{Name: "in", Type: inner},
	}}
	paths := PointerPaths(st)
	// Expected: .p, .a[0], .a[*], .in.q  => 4 paths.
	if len(paths) != 4 {
		t.Fatalf("PointerPaths found %d paths, want 4", len(paths))
	}
	names := make(map[string]bool)
	tab := NewTable(nil)
	obj := &ast.Object{Name: "s", Kind: ast.Var, Type: st}
	for _, p := range paths {
		names[tab.VarLoc(obj, p).Name()] = true
	}
	for _, want := range []string{"s.p", "s.a[0]", "s.a[*]", "s.in.q"} {
		if !names[want] {
			t.Errorf("missing pointer path %s (have %v)", want, names)
		}
	}
}

func TestAllPathsCountsScalars(t *testing.T) {
	st := &types.Type{Kind: types.Struct, Tag: "t", Fields: []*types.Field{
		{Name: "x", Type: types.IntType},
		{Name: "y", Type: types.DoubleType},
	}}
	if n := len(AllPaths(st)); n != 2 {
		t.Errorf("AllPaths(struct{int;double}) = %d, want 2", n)
	}
	arr := types.ArrayOf(types.IntType, 10)
	if n := len(AllPaths(arr)); n != 2 {
		t.Errorf("AllPaths(int[10]) = %d (head+tail), want 2", n)
	}
	if n := len(AllPaths(types.IntType)); n != 1 {
		t.Errorf("AllPaths(int) = %d, want 1", n)
	}
}

func TestNoPointerPathsWithoutPointers(t *testing.T) {
	st := &types.Type{Kind: types.Struct, Fields: []*types.Field{
		{Name: "x", Type: types.IntType},
	}}
	if n := len(PointerPaths(st)); n != 0 {
		t.Errorf("pointer-free struct has %d pointer paths, want 0", n)
	}
}

func TestRecursiveTypeTermination(t *testing.T) {
	// struct node { struct node *next; } — PointerPaths must terminate.
	node := &types.Type{Kind: types.Struct, Tag: "node"}
	node.Fields = []*types.Field{{Name: "next", Type: types.PointerTo(node)}}
	node.Done = true
	paths := PointerPaths(node)
	if len(paths) != 1 {
		t.Errorf("recursive struct: %d paths, want 1 (.next)", len(paths))
	}
}

func TestSortLocsDeterministic(t *testing.T) {
	tab := NewTable(nil)
	a := tab.VarLoc(&ast.Object{Name: "a", Kind: ast.Var, Global: true}, nil)
	b := tab.VarLoc(&ast.Object{Name: "b", Kind: ast.Var, Global: true}, nil)
	c := tab.VarLoc(&ast.Object{Name: "c", Kind: ast.Var, Global: true}, nil)
	got := SortLocs([]*Location{c, a, b})
	if got[0] != a || got[1] != b || got[2] != c {
		t.Errorf("SortLocs order wrong: %v", Fmt(got))
	}
}

func TestFreedLoc(t *testing.T) {
	tab := NewTable(nil)
	f := tab.FreedLoc()
	if f == nil || f.Kind != Freed {
		t.Fatalf("FreedLoc: %v", f)
	}
	if f == tab.HeapLoc() {
		t.Error("FreedLoc must be distinct from HeapLoc")
	}
	if !f.Multi() {
		t.Error("freed stands for many dead objects: must be multi")
	}
	if !f.IsGlobalish() {
		t.Error("freed is visible in every scope: must be globalish")
	}
	// Like the heap, freed absorbs selectors: a field of a freed object is
	// still freed storage.
	if got := tab.Extend(f, FieldElem("next")); got != f {
		t.Errorf("Extend(freed, .next) = %v, want freed itself", got)
	}
	if got := tab.Extend(f, TailElem); got != f {
		t.Errorf("Extend(freed, tail) = %v, want freed itself", got)
	}
}
