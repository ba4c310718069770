package ctxwalk

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/cc/ast"
	"repro/internal/cc/parser"
	"repro/internal/cc/token"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
	"repro/internal/simplify"
)

// marks is a toy walk state: the functions called so far, D when every path
// to the point called them and P when some path did.
type marks struct{ d Defs }

func (s marks) Dead() bool         { return s.d == nil }
func (s marks) Join(o marks) marks { return marks{JoinDefs(s.d, o.d)} }
func (s marks) Equal(o marks) bool { return maps.Equal(s.d, o.d) }
func (s marks) String() string     { return render(s.d) }

// start is the live state before any call.
func start() marks { return marks{Defs{}} }

// with returns a copy of s that also marks l as definitely called.
func (s marks) with(l *loc.Location) marks {
	d := maps.Clone(s.d)
	d[l] = ptset.D
	return marks{d}
}

// render prints cells as "a:D b:P" in name order, or "dead" for nil.
func render(d Defs) string {
	if d == nil {
		return "dead"
	}
	var out []string
	for l, def := range d {
		out = append(out, l.Name()+":"+def.String())
	}
	slices.Sort(out)
	return strings.Join(out, " ")
}

// toyWalker simplifies src and returns it with a walker whose transfer
// function marks the callee of every direct call.
func toyWalker(t *testing.T, src string) (*simple.Program, *Walker[marks], *loc.Table) {
	t.Helper()
	tu, err := parser.Parse("walk.c", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simplify.Simplify(tu)
	if err != nil {
		t.Fatal(err)
	}
	tab := loc.NewTable(prog)
	w := &Walker[marks]{Basic: func(_ *invgraph.Node, b *simple.Basic, st marks) marks {
		if b.Kind != simple.AsgnCall {
			return st
		}
		return st.with(tab.FuncLoc(b.Callee))
	}}
	return prog, w, tab
}

const externs = "void a(void); void b(void); void d(void); void e(void);\n"

func TestStatementRules(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"sequence stops at return", `a(); return; b();`, "a:D"},
		{"if joins branches", `if (c) a(); else b(); d();`, "a:P b:P d:D"},
		{"if without else", `if (c) a();`, "a:P"},
		// The continue state reaches the back edge and the next pass's
		// test; the break state reaches the exit.
		{"while with break and continue",
			`while (c) { if (c) { a(); continue; } b(); break; }`, "a:P b:P"},
		{"continue only", `while (c) { a(); continue; }`, "a:P"},
		{"return inside a loop",
			`while (c) { a(); if (c) return; } b();`, "a:P b:P"},
		{"do-while has no zero-iteration exit", `do { a(); } while (c);`, "a:D"},
		{"do-while break", `do { if (c) break; a(); } while (c);`, "a:P"},
		// Init runs once before the first test; post runs after the body
		// and after each continue.
		{"for with init and post",
			`for (a(); c; b()) { if (c) continue; d(); }`, "a:D b:P d:P"},
		{"for post after continue", `for (; c; b()) { a(); continue; }`, "a:P b:P"},
		{"switch falls through with default",
			`switch (c) { case 1: a(); case 2: b(); break; default: d(); }`, "a:P b:P d:P"},
		{"switch falls through without default",
			`switch (c) { case 1: a(); case 2: b(); }`, "a:P b:P"},
		{"switch with default takes an arm", `switch (c) { case 1: a(); break; default: a(); }`, "a:D"},
		{"switch without default may take none", `switch (c) { case 1: a(); break; }`, "a:P"},
		{"return inside a switch",
			`switch (c) { case 1: a(); return; case 2: b(); break; } d();`, "a:P b:P d:P"},
		{"continue inside a switch in a loop",
			`while (c) { switch (c) { case 1: a(); continue; default: break; } b(); }`, "a:P b:P"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, w, _ := toyWalker(t, externs+"void f(int c) { "+tc.body+" }")
			if got := w.Node(&invgraph.Node{Fn: prog.Lookup("f")}, start()).String(); got != tc.want {
				t.Errorf("exit of { %s } = %q, want %q", tc.body, got, tc.want)
			}
		})
	}
}

// height is a toy state whose loops need many passes: each call climbs one
// step, up to 100, and a join takes the higher path. 0 is the dead state.
type height int

func (h height) Dead() bool           { return h == 0 }
func (h height) Join(o height) height { return max(h, o) }
func (h height) Equal(o height) bool  { return h == o }

// A loop runs until its head settles, however many passes that takes. Body
// walks a function's code without an invocation node.
func TestLoopReachesFixedPoint(t *testing.T) {
	prog, _, _ := toyWalker(t, externs+"void f(int c) { while (c) a(); }")
	w := Walker[height]{Basic: func(n *invgraph.Node, b *simple.Basic, h height) height {
		if n != nil || b.Kind != simple.AsgnCall {
			return h
		}
		return min(h+1, 100)
	}}
	if got := w.Body(nil, prog.Lookup("f").Body, 1); got != 100 {
		t.Errorf("loop exit height %d, want 100", got)
	}
}

func TestApproximateNodePassesThrough(t *testing.T) {
	prog, w, tab := toyWalker(t, externs+"void f(void) { a(); }")
	f := prog.Lookup("f")
	basic := w.Basic
	calls := 0
	w.Basic = func(n *invgraph.Node, b *simple.Basic, st marks) marks {
		calls++
		return basic(n, b, st)
	}
	in := start().with(tab.FuncLoc(f.Obj))
	out := w.Node(&invgraph.Node{Fn: f, Kind: invgraph.Approximate}, in)
	if calls != 0 || out.String() != "f:D" {
		t.Errorf("approximate node: %d transfer calls, exit %q; want 0 and %q", calls, out, "f:D")
	}
	if got := w.Node(&invgraph.Node{Fn: f}, in).String(); got != "a:D f:D" {
		t.Errorf("ordinary node exit %q, want %q", got, "a:D f:D")
	}
}

func TestCallees(t *testing.T) {
	prog, _, tab := toyWalker(t, externs+"void g(void) {} void h(void) {} void k(void) {}\nvoid f(void) { a(); b(); }")
	f := prog.Lookup("f")
	sites := f.Body.List
	parent := &invgraph.Node{Fn: f}
	for _, c := range []struct {
		fn     string
		site   int
		thread bool
	}{{"g", 0, false}, {"h", 0, true}, {"k", 0, false}, {"e", 1, false}} {
		parent.Children = append(parent.Children, &invgraph.Node{
			Fn: prog.Lookup(c.fn), Parent: parent, Site: sites[c.site].(*simple.Basic), IsThread: c.thread,
		})
	}
	var walked []string
	call := func(c *invgraph.Node, st marks) marks {
		walked = append(walked, c.Fn.Name())
		return st.with(tab.FuncLoc(c.Fn.Obj))
	}
	in := start().with(tab.FuncLoc(f.Obj))
	if got := Callees(parent, sites[0].(*simple.Basic), in, call).String(); got != "f:D g:P k:P" {
		t.Errorf("callees of a() exit %q, want %q", got, "f:D g:P k:P")
	}
	if got := strings.Join(walked, ","); got != "g,k" {
		t.Errorf("walked %s, want g,k: a thread root is not a callee", got)
	}
	// A site with no callee in the graph keeps its state.
	if got := Callees(&invgraph.Node{Fn: f}, sites[1].(*simple.Basic), in, call).String(); got != "f:D" {
		t.Errorf("site without callees exit %q, want %q", got, "f:D")
	}
}

func TestJoinDefs(t *testing.T) {
	tab := loc.NewTable(&simple.Program{})
	x, y, z, v := tab.HeapLoc(), tab.NullLoc(), tab.StrLoc(), tab.FreedLoc()
	a := Defs{x: ptset.D, y: ptset.D, z: ptset.P}
	b := Defs{x: ptset.D, y: ptset.P, v: ptset.D}
	want := Defs{x: ptset.D, y: ptset.P, z: ptset.P, v: ptset.P}
	for _, got := range []Defs{JoinDefs(a, b), JoinDefs(b, a)} {
		if !maps.Equal(got, want) {
			t.Errorf("JoinDefs = %s, want %s", render(got), render(want))
		}
	}
	if got := JoinDefs(nil, nil); got != nil {
		t.Errorf("JoinDefs(nil, nil) = %s, want the dead path", render(got))
	}
	// Joining with the dead path copies the other side: the caller owns
	// the result, so writing it leaves the input alone.
	for _, got := range []Defs{JoinDefs(nil, a), JoinDefs(a, nil)} {
		if !maps.Equal(got, a) {
			t.Errorf("JoinDefs with nil = %s, want %s", render(got), render(a))
		}
		got[v] = ptset.D
		if _, ok := a[v]; ok {
			t.Fatalf("JoinDefs with nil returned its input")
		}
	}
}

func TestOrder(t *testing.T) {
	fn := func(name string) *simple.Function { return &simple.Function{Obj: &ast.Object{Name: name}} }
	pos := func(line int) token.Pos { return token.Pos{File: "o.c", Line: line, Col: 3} }
	main := &invgraph.Node{Fn: fn("main")}
	f, g := fn("f"), fn("g")
	node := func(parent *invgraph.Node, f *simple.Function, line int) *invgraph.Node {
		return &invgraph.Node{Fn: f, Parent: parent, Site: &simple.Basic{Pos: pos(line)}}
	}
	f9 := node(main, f, 9)
	g4, g2 := node(f9, g, 4), node(f9, g, 2) // two calls of g from f
	f1 := node(main, f, 1)
	g7 := node(f1, g, 7)
	m := node(main, fn("a"), 20)
	nodes := []*invgraph.Node{g4, main, g7, f9, g2, m, f1}
	var o Order
	slices.SortFunc(nodes, o.Compare)
	want := []*invgraph.Node{main, m, f1, f9, g7, g2, g4}
	if !slices.Equal(nodes, want) {
		var got []string
		for _, n := range nodes {
			got = append(got, n.Path()+"@"+n.Site.Pos.String())
		}
		t.Errorf("order %v", got)
	}
	if got := o.Path(g2); got != "main -> f -> g" {
		t.Errorf("Path = %q", got)
	}
}
