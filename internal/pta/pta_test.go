package pta

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cc/ast"
	"repro/internal/cc/parser"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
	"repro/internal/simplify"
)

func analyzeSrc(t *testing.T, src string) *Result {
	t.Helper()
	return analyzeSrcOpts(t, src, Options{})
}

func analyzeSrcOpts(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	tu, err := parser.Parse("test.c", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	prog, err := simplify.Simplify(tu)
	if err != nil {
		t.Fatalf("Simplify: %v", err)
	}
	res, err := Analyze(prog, opts)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

// findObj locates a variable object by name: a global, or a local/param of
// the named function.
func findObj(res *Result, fnName, varName string) *ast.Object {
	if fnName != "" {
		f := res.Prog.Lookup(fnName)
		if f == nil {
			return nil
		}
		for _, p := range f.Params {
			if p.Name == varName {
				return p
			}
		}
		for _, l := range f.Locals {
			if l.Name == varName {
				return l
			}
		}
	}
	for _, g := range res.Prog.Globals {
		if g.Name == varName {
			return g
		}
	}
	return nil
}

// targetsIn formats the targets of varName in the given set as
// "name:D name:P ..." sorted, excluding NULL.
func targetsIn(t *testing.T, res *Result, s ptset.Set, fnName, varName string) string {
	t.Helper()
	obj := findObj(res, fnName, varName)
	if obj == nil {
		t.Fatalf("variable %s not found (fn %q)", varName, fnName)
	}
	l := res.Table.VarLoc(obj, nil)
	var parts []string
	for _, tr := range s.Targets(l) {
		if tr.Dst.Kind == loc.Null {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s:%s", tr.Dst.Name(), tr.Def))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// mainTargets formats varName's targets at the exit of main.
func mainTargets(t *testing.T, res *Result, varName string) string {
	t.Helper()
	return targetsIn(t, res, res.MainOut, "main", varName)
}

// annotatedInput finds the merged input annotation of the first basic
// statement in fn satisfying match.
func annotatedInput(t *testing.T, res *Result, fnName string, match func(*simple.Basic) bool) ptset.Set {
	t.Helper()
	f := res.Prog.Lookup(fnName)
	if f == nil {
		t.Fatalf("function %s not found", fnName)
	}
	var found ptset.Set
	ok := false
	var walk func(s simple.Stmt)
	walk = func(s simple.Stmt) {
		switch s := s.(type) {
		case *simple.Basic:
			if !ok && match(s) {
				if in, has := res.Annots.At(s); has {
					found, ok = in, true
				}
			}
		case *simple.Seq:
			if s == nil {
				return
			}
			for _, c := range s.List {
				walk(c)
			}
		case *simple.If:
			walk(s.Then)
			if s.Else != nil {
				walk(s.Else)
			}
		case *simple.While:
			walk(s.CondEval)
			walk(s.Body)
		case *simple.DoWhile:
			walk(s.Body)
			walk(s.CondEval)
		case *simple.For:
			walk(s.Init)
			walk(s.CondEval)
			walk(s.Body)
			walk(s.Post)
		case *simple.Switch:
			for _, c := range s.Cases {
				walk(c.Body)
			}
		}
	}
	walk(f.Body)
	if !ok {
		t.Fatalf("no annotated statement matched in %s", fnName)
	}
	return found
}

// ---------------------------------------------------------------------------

// A location derived both possibly and definitely is definite in an L- or
// R-location set whichever derivation arrives first, so the set does not
// depend on the order the engine walks its inputs in.
func TestLocDSetDefiniteWins(t *testing.T) {
	tab := loc.NewTable(nil)
	x := tab.VarLoc(&ast.Object{Name: "x", Kind: ast.Var, Global: true}, nil)
	y := tab.VarLoc(&ast.Object{Name: "y", Kind: ast.Var, Global: true}, nil)
	for _, adds := range [][]locD{
		{{x, ptset.P}, {y, ptset.P}, {x, ptset.D}},
		{{x, ptset.D}, {y, ptset.P}, {x, ptset.P}},
	} {
		var s locDSet
		for _, ld := range adds {
			s.add(ld.l, ld.d)
		}
		if want := (locDSet{{x, ptset.D}, {y, ptset.P}}); !slices.Equal(s, want) {
			t.Errorf("adding %v gives %v, want %v", adds, s, want)
		}
	}
}

func TestBasicAddressOf(t *testing.T) {
	res := analyzeSrc(t, `
int main() {
	int x;
	int *p;
	p = &x;
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "x:D" {
		t.Errorf("p points to %q, want x:D", got)
	}
}

func TestStrongUpdate(t *testing.T) {
	res := analyzeSrc(t, `
int main() {
	int x, y;
	int *p;
	p = &x;
	p = &y;
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "y:D" {
		t.Errorf("p points to %q, want y:D (old target killed)", got)
	}
}

func TestIfMergeMakesPossible(t *testing.T) {
	res := analyzeSrc(t, `
int main() {
	int x, y, c;
	int *p;
	c = 1;
	if (c)
		p = &x;
	else
		p = &y;
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "x:P y:P" {
		t.Errorf("p points to %q, want x:P y:P", got)
	}
}

func TestDefiniteKillThroughPointer(t *testing.T) {
	// The paper's motivating example: *p = x with p definitely pointing
	// to y kills y's old relationships.
	res := analyzeSrc(t, `
int main() {
	int a, b;
	int *y;
	int **p;
	int *x;
	x = &b;
	y = &a;
	p = &y;
	*p = x;   /* y now definitely points to b, a killed */
	return 0;
}
`)
	if got := mainTargets(t, res, "y"); got != "b:D" {
		t.Errorf("y points to %q, want b:D", got)
	}
}

func TestPossibleTargetWeakUpdate(t *testing.T) {
	res := analyzeSrc(t, `
int main() {
	int a, b, c;
	int *y, *z;
	int **p;
	y = &a;
	z = &b;
	if (c)
		p = &y;
	else
		p = &z;
	*p = &c;  /* weak update: y,z may point to c, old targets kept as P */
	return 0;
}
`)
	if got := mainTargets(t, res, "y"); got != "a:P c:P" {
		t.Errorf("y points to %q, want a:P c:P", got)
	}
	if got := mainTargets(t, res, "z"); got != "b:P c:P" {
		t.Errorf("z points to %q, want b:P c:P", got)
	}
}

func TestMultiLevel(t *testing.T) {
	res := analyzeSrc(t, `
int main() {
	int x;
	int *p;
	int **pp;
	int *q;
	p = &x;
	pp = &p;
	q = *pp;
	return 0;
}
`)
	if got := mainTargets(t, res, "pp"); got != "p:D" {
		t.Errorf("pp points to %q, want p:D", got)
	}
	if got := mainTargets(t, res, "q"); got != "x:D" {
		t.Errorf("q points to %q, want x:D", got)
	}
}

func TestMalloc(t *testing.T) {
	res := analyzeSrc(t, `
int main() {
	int *p;
	p = (int *) malloc(4);
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "heap:P" {
		t.Errorf("p points to %q, want heap:P", got)
	}
}

func TestArrayHeadTail(t *testing.T) {
	res := analyzeSrc(t, `
int main() {
	int arr[10];
	int x;
	int *p, *q, *r;
	p = &arr[0];
	q = &arr[5];
	r = &arr[x];
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "arr[0]:D" {
		t.Errorf("p points to %q, want arr[0]:D", got)
	}
	if got := mainTargets(t, res, "q"); got != "arr[*]:D" {
		t.Errorf("q points to %q, want arr[*]:D", got)
	}
	if got := mainTargets(t, res, "r"); got != "arr[*]:P arr[0]:P" {
		t.Errorf("r points to %q, want arr[*]:P arr[0]:P", got)
	}
}

func TestPointerArithmeticHeadToTail(t *testing.T) {
	res := analyzeSrc(t, `
int main() {
	int arr[10];
	int *p, *q;
	p = arr;      /* p -> arr[0] */
	q = p + 3;    /* q -> arr tail */
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "arr[0]:D" {
		t.Errorf("p points to %q, want arr[0]:D", got)
	}
	if got := mainTargets(t, res, "q"); got != "arr[*]:D" {
		t.Errorf("q points to %q, want arr[*]:D", got)
	}
}

func TestStructFields(t *testing.T) {
	res := analyzeSrc(t, `
struct s { int *p; int *q; };
int main() {
	struct s v;
	int a, b;
	int *r;
	v.p = &a;
	v.q = &b;
	r = v.p;
	return 0;
}
`)
	if got := mainTargets(t, res, "r"); got != "a:D" {
		t.Errorf("r points to %q, want a:D", got)
	}
}

func TestSimpleCallFormalInherits(t *testing.T) {
	res := analyzeSrc(t, `
int g;
int *keep;
void f(int *q) {
	keep = q;
}
int main() {
	int x;
	int *p;
	p = &x;
	f(p);
	return 0;
}
`)
	// Inside f, q inherits p's relationship; x is invisible, so q points
	// to the symbolic 1_q, and keep (global) gets it too. After unmap,
	// keep points to x.
	if got := mainTargets(t, res, "keep"); got != "x:D" {
		t.Errorf("keep points to %q, want x:D", got)
	}
}

func TestCallModifiesThroughPointer(t *testing.T) {
	res := analyzeSrc(t, `
int a, b;
void set(int **h) {
	*h = &b;
}
int main() {
	int *p;
	p = &a;
	set(&p);
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "b:D" {
		t.Errorf("p points to %q, want b:D (callee strong update through invisible)", got)
	}
}

func TestReturnValue(t *testing.T) {
	res := analyzeSrc(t, `
int g1, g2;
int *pick(int c) {
	if (c) return &g1;
	return &g2;
}
int main() {
	int *p;
	p = pick(1);
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "g1:P g2:P" {
		t.Errorf("p points to %q, want g1:P g2:P", got)
	}
}

func TestContextSensitivity(t *testing.T) {
	// The id function must not merge contexts: p gets only x, q only y.
	res := analyzeSrc(t, `
int *id(int *v) { return v; }
int main() {
	int x, y;
	int *p, *q;
	p = id(&x);
	q = id(&y);
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "x:D" {
		t.Errorf("p points to %q, want x:D (context-sensitive)", got)
	}
	if got := mainTargets(t, res, "q"); got != "y:D" {
		t.Errorf("q points to %q, want y:D (context-sensitive)", got)
	}
}

func TestInvisibleTwoLevels(t *testing.T) {
	// The paper's §4.1 mapping scheme: b and c invisible in f, named 1_x
	// and 2_x. Changes through **x flow back.
	res := analyzeSrc(t, `
int g;
void f(int ***x) {
	**x = &g;
}
int main() {
	int c0;
	int *b;
	int **m;
	b = &c0;
	m = &b;
	f(&m);
	return 0;
}
`)
	if got := mainTargets(t, res, "b"); got != "g:D" {
		t.Errorf("b points to %q, want g:D", got)
	}
	if got := mainTargets(t, res, "m"); got != "b:D" {
		t.Errorf("m points to %q, want b:D", got)
	}
}

func TestSharedInvisibleOneSymbolicName(t *testing.T) {
	// Both x and y definitely point to the same invisible b: it must be
	// represented by a single symbolic name (Property 3.1), so a write
	// through x is seen through y.
	res := analyzeSrc(t, `
int g;
void f(int **x, int **y) {
	*x = &g;
}
int main() {
	int a0;
	int *b;
	int *r;
	b = &a0;
	f(&b, &b);
	r = b;
	return 0;
}
`)
	if got := mainTargets(t, res, "b"); got != "g:D" {
		t.Errorf("b points to %q, want g:D", got)
	}
}

func TestRecursionFixedPoint(t *testing.T) {
	res := analyzeSrc(t, `
int a, b;
void rec(int **p, int n) {
	if (n > 0) {
		*p = &b;
		rec(p, n - 1);
	}
}
int main() {
	int *q;
	q = &a;
	rec(&q, 3);
	return 0;
}
`)
	// Through the recursion q may point to a (n==0 path) or b.
	if got := mainTargets(t, res, "q"); got != "a:P b:P" {
		t.Errorf("q points to %q, want a:P b:P", got)
	}
	// The invocation graph must contain a recursive/approximate pair.
	st := res.Graph.ComputeStats()
	if st.Recursive != 1 || st.Approximate != 1 {
		t.Errorf("IG stats R=%d A=%d, want 1/1", st.Recursive, st.Approximate)
	}
}

func TestMutualRecursion(t *testing.T) {
	res := analyzeSrc(t, `
int a, b;
void even(int **p, int n);
void odd(int **p, int n) {
	*p = &a;
	if (n > 0) even(p, n - 1);
}
void even(int **p, int n) {
	*p = &b;
	if (n > 0) odd(p, n - 1);
}
int main() {
	int *q;
	int x;
	q = &x;
	odd(&q, 5);
	return 0;
}
`)
	got := mainTargets(t, res, "q")
	if got != "a:P b:P" {
		t.Errorf("q points to %q, want a:P b:P", got)
	}
	st := res.Graph.ComputeStats()
	if st.Recursive == 0 || st.Approximate == 0 {
		t.Errorf("mutual recursion should produce recursive/approximate nodes, got R=%d A=%d",
			st.Recursive, st.Approximate)
	}
}

func TestPaperFigure6FunctionPointers(t *testing.T) {
	// The exact program of Figure 6.
	res := analyzeSrc(t, `
int a, b, c;
int *pa, *pb, *pc;
int (*fp)();
int foo();
int bar();
int main() {
	int cond;
	pc = &c;
	if (cond)
		fp = foo;
	else
		fp = bar;
	/* Point A */
	fp();
	/* Point B */
	return 0;
}
int foo() {
	int cond;
	pa = &a;
	if (cond)
		fp();
	/* Point C */
	return 0;
}
int bar() {
	pb = &b;
	/* Point D */
	return 0;
}
`)
	// Point B (end of main): (fp,foo,P) (fp,bar,P) (pc,c,D) (pa,a,P) (pb,b,P)
	if got := mainTargets(t, res, "fp"); got != "bar:P foo:P" {
		t.Errorf("fp points to %q, want bar:P foo:P", got)
	}
	if got := mainTargets(t, res, "pc"); got != "c:D" {
		t.Errorf("pc points to %q, want c:D", got)
	}
	if got := mainTargets(t, res, "pa"); got != "a:P" {
		t.Errorf("pa points to %q, want a:P", got)
	}
	if got := mainTargets(t, res, "pb"); got != "b:P" {
		t.Errorf("pb points to %q, want b:P", got)
	}

	// Inside foo (point C region): fp definitely points to foo, pa
	// definitely to a. Check the annotation at the "pa = &a" statement's
	// successor region via the input of the indirect call.
	in := annotatedInput(t, res, "foo", func(b *simple.Basic) bool {
		return b.Kind == simple.AsgnCallInd
	})
	if got := targetsIn(t, res, in, "foo", "fp"); got != "foo:D" {
		t.Errorf("at point C fp points to %q, want foo:D", got)
	}

	// Inside bar: fp definitely points to bar (when called via fp).
	inBar := annotatedInput(t, res, "bar", func(b *simple.Basic) bool {
		return b.Kind == simple.AsgnAddr
	})
	got := targetsIn(t, res, inBar, "bar", "fp")
	if got != "bar:D" {
		t.Errorf("at point D entry fp points to %q, want bar:D", got)
	}

	// Invocation graph: main calls foo and bar; foo's nested fp() call
	// resolves to foo only (fp definitely points to foo there), which is
	// recursive.
	st := res.Graph.ComputeStats()
	if st.Recursive != 1 || st.Approximate != 1 {
		t.Errorf("IG should have one recursive/approximate pair, got R=%d A=%d",
			st.Recursive, st.Approximate)
	}
	// Nodes: main, foo (recursive), foo-approx, bar = 4.
	if st.Nodes != 4 {
		t.Errorf("IG nodes = %d, want 4", st.Nodes)
	}
}

func TestFunctionPointerArray(t *testing.T) {
	res := analyzeSrc(t, `
int r;
int f1(void) { return 1; }
int f2(void) { return 2; }
int (*table[2])(void) = { f1, f2 };
int main() {
	int (*fp)(void);
	int i;
	fp = table[i];
	r = fp();
	return 0;
}
`)
	if got := mainTargets(t, res, "fp"); got != "f1:P f2:P" {
		t.Errorf("fp points to %q, want f1:P f2:P", got)
	}
	// Both f1 and f2 must appear in the invocation graph.
	fns := make(map[string]bool)
	res.Graph.Walk(func(n *invgraph.Node) { fns[n.Fn.Name()] = true })
	if !fns["f1"] || !fns["f2"] {
		t.Errorf("IG should include f1 and f2, got %v", fns)
	}
}

func TestFunctionPointerInStructField(t *testing.T) {
	// The vtable/callback pattern: the call site dispatches through a
	// struct field; the analysis must resolve it to exactly the stored
	// function, not all address-taken functions.
	res := analyzeSrc(t, `
int ra, rb;
void opA(void) { ra = 1; }
void opB(void) { rb = 1; }
struct ops { void (*run)(void); int tag; };
int main() {
	struct ops v;
	struct ops *pv;
	v.run = opA;
	pv = &v;
	pv->run();
	return 0;
}
`)
	// Only opA is invoked: ra set, rb untouched.
	fns := make(map[string]bool)
	res.Graph.Walk(func(n *invgraph.Node) { fns[n.Fn.Name()] = true })
	if !fns["opA"] {
		t.Error("opA must be in the invocation graph")
	}
	if fns["opB"] {
		t.Error("opB must NOT be invoked (field dispatch resolved precisely)")
	}
}

func TestFunctionPointerPassedAsArgument(t *testing.T) {
	res := analyzeSrc(t, `
int r1, r2;
void fa(void) { r1 = 1; }
void fb(void) { r2 = 1; }
void invoke(void (*cb)(void)) {
	cb();
}
int main() {
	invoke(fa);
	invoke(fb);
	return 0;
}
`)
	// Context sensitivity: the first invoke calls only fa, the second
	// only fb.
	var calls []string
	res.Graph.Walk(func(n *invgraph.Node) {
		if n.Parent != nil && n.Parent.Fn.Name() == "invoke" {
			calls = append(calls, n.Parent.Path()+" => "+n.Fn.Name())
		}
	})
	if len(calls) != 2 {
		t.Fatalf("expected 2 resolved indirect calls, got %v", calls)
	}
	for _, c := range calls {
		if strings.Contains(c, "fa") == strings.Contains(c, "fb") {
			t.Errorf("each invoke context must resolve to exactly one target: %v", calls)
		}
	}
}

func TestGlobalInitializers(t *testing.T) {
	res := analyzeSrc(t, `
int x;
int *gp = &x;
int main() {
	int *q;
	q = gp;
	return 0;
}
`)
	if got := mainTargets(t, res, "q"); got != "x:D" {
		t.Errorf("q points to %q, want x:D", got)
	}
}

func TestHeapToHeap(t *testing.T) {
	res := analyzeSrc(t, `
struct node { struct node *next; };
int main() {
	struct node *p, *q;
	p = (struct node *) malloc(8);
	q = (struct node *) malloc(8);
	p->next = q;   /* heap -> heap */
	q = p->next;
	return 0;
}
`)
	if got := mainTargets(t, res, "q"); got != "heap:P" {
		t.Errorf("q points to %q, want heap:P", got)
	}
}

func TestLoopFixedPointListWalk(t *testing.T) {
	res := analyzeSrc(t, `
struct node { struct node *next; int v; };
int main() {
	struct node a, b, c;
	struct node *p;
	a.next = &b;
	b.next = &c;
	c.next = 0;
	p = &a;
	while (p) {
		p = p->next;
	}
	return 0;
}
`)
	got := mainTargets(t, res, "p")
	// p walks the list: may point to a, b, c (and NULL, excluded).
	if got != "a:P b:P c:P" {
		t.Errorf("p points to %q, want a:P b:P c:P", got)
	}
}

func TestNoDefiniteAblation(t *testing.T) {
	res := analyzeSrcOpts(t, `
int main() {
	int x, y;
	int *p;
	p = &x;
	p = &y;
	return 0;
}
`, Options{NoDefinite: true})
	// Without strong updates both targets survive as possible.
	if got := mainTargets(t, res, "p"); got != "x:P y:P" {
		t.Errorf("p points to %q, want x:P y:P under NoDefinite", got)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	res := analyzeSrc(t, `
int main() {
	int a, b, c, n;
	int *p;
	p = &a;
	switch (n) {
	case 0:
		p = &b;
		/* fallthrough */
	case 1:
		p = &c;
		break;
	case 2:
		break;
	}
	return 0;
}
`)
	// Paths: case0->case1 => c; case1 => c; case2 => a; no match => a.
	if got := mainTargets(t, res, "p"); got != "a:P c:P" {
		t.Errorf("p points to %q, want a:P c:P", got)
	}
}

func TestIndirectCallContextBinding(t *testing.T) {
	// While analyzing a target of an indirect call, the function pointer
	// definitely points to that target (paper §5) — so a nested indirect
	// call inside the target goes only to the target itself.
	res := analyzeSrc(t, `
int depth;
void g(void);
void h(void);
void (*fp)(void);
void g(void) {
	depth = depth + 1;
	if (depth < 2) fp();
}
void h(void) {
	depth = depth + 10;
	if (depth < 2) fp();
}
int main() {
	int c;
	if (c) fp = g; else fp = h;
	fp();
	return 0;
}
`)
	// Each of g and h should appear; inside g the nested fp() call must
	// target only g (recursion), not h.
	var gNode *invgraph.Node
	res.Graph.Walk(func(n *invgraph.Node) {
		if n.Fn.Name() == "g" && n.Parent != nil && n.Parent.Fn.Name() == "main" {
			gNode = n
		}
	})
	if gNode == nil {
		t.Fatal("g not called from main in IG")
	}
	for _, c := range gNode.Children {
		if c.Fn.Name() != "g" {
			t.Errorf("nested indirect call inside g resolved to %s; want only g", c.Fn.Name())
		}
		if c.Kind != invgraph.Approximate {
			t.Errorf("nested g call should be approximate (recursive), got %s", c.Kind)
		}
	}
	if len(gNode.Children) != 1 {
		t.Errorf("g should have exactly 1 indirect child, got %d", len(gNode.Children))
	}
}

func TestUnionMembersCollapse(t *testing.T) {
	// Union members overlap in memory: a pointer stored through one
	// member must be visible through every member, so all members share
	// the collapsed $union location (conservatively possible-only).
	res := analyzeSrc(t, `
union u { int *p; int *q; };
int main() {
	union u v;
	int x, r;
	int *got;
	v.p = &x;
	got = v.q;   /* reads the same storage */
	*v.q = 5;
	r = x;
	return r;
}
`)
	if got := mainTargets(t, res, "got"); got != "x:P" {
		t.Errorf("got points to %q, want x:P (union member overlap)", got)
	}
}

func TestUnionWithNestedStruct(t *testing.T) {
	// Nested aggregates under a union collapse too (the absorbing
	// location swallows deeper selectors).
	res := analyzeSrc(t, `
union deep {
	struct { int *p; } s;
	int *q;
};
int main() {
	union deep v;
	int x;
	int *got;
	v.s.p = &x;
	got = v.q;
	return 0;
}
`)
	if got := mainTargets(t, res, "got"); got != "x:P" {
		t.Errorf("got points to %q, want x:P (nested union overlap)", got)
	}
}

func TestStringLiteral(t *testing.T) {
	res := analyzeSrc(t, `
int main() {
	char *s;
	s = "hello";
	return 0;
}
`)
	if got := mainTargets(t, res, "s"); got != "_string_:P" {
		t.Errorf("s points to %q, want _string_:P", got)
	}
}

func TestActualAliasedThroughPointerArg(t *testing.T) {
	// mp is passed by value as p AND is reachable through the second
	// argument (*mpp == mp). The formal p is a copy, so mp itself is an
	// invisible variable that needs its own symbolic name; reading *pp in
	// the callee must yield mp's contents, and the global must end up
	// pointing at m0. (Regression test for a mapping bug found by the
	// interpreter-oracle fuzzer.)
	res := analyzeSrc(t, `
int *gp0;
void helper(int *p, int **pp) {
	if (pp) { gp0 = *pp; }
}
int main() {
	int m0;
	int *mp;
	int **mpp;
	mp = &m0;
	mpp = &mp;
	helper(mp, mpp);
	return 0;
}
`)
	got := mainTargets(t, res, "gp0")
	if got != "m0:P" && got != "m0:D" {
		t.Errorf("gp0 points to %q, want m0", got)
	}
}

func TestWriteThroughAliasedActual(t *testing.T) {
	// Writing through *pp must update mp (the caller cell), not the
	// formal copy p.
	res := analyzeSrc(t, `
int g;
void helper(int *p, int **pp) {
	*pp = &g;
}
int main() {
	int m0;
	int *mp;
	int **mpp;
	mp = &m0;
	mpp = &mp;
	helper(mp, mpp);
	return 0;
}
`)
	if got := mainTargets(t, res, "mp"); got != "g:D" {
		t.Errorf("mp points to %q, want g:D", got)
	}
}

func TestLoopConditionWithCall(t *testing.T) {
	// The while condition contains a call whose effect must be re-applied
	// on every iteration (CondEval): advance() moves the global cursor.
	res := analyzeSrc(t, `
struct node { struct node *next; };
struct node *cursor;
int advance(void) {
	if (cursor)
		cursor = cursor->next;
	if (cursor)
		return 1;
	return 0;
}
int main() {
	struct node a, b, c;
	a.next = &b;
	b.next = &c;
	c.next = 0;
	cursor = &a;
	while (advance()) {
	}
	return 0;
}
`)
	// cursor walks the whole list: may be a, b, c or NULL at exit.
	if got := mainTargets(t, res, "cursor"); got != "a:P b:P c:P" {
		t.Errorf("cursor points to %q, want a:P b:P c:P", got)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	// No main.
	tu, err := parser.Parse("t.c", `void f(void) {}`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simplify.Simplify(tu)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(prog, Options{}); err == nil {
		t.Error("analysis without main should fail")
	}

	// Step-limit guard.
	tu2, err := parser.Parse("t.c", `
int g;
void churn(int *p) { *p = *p + 1; }
int main() {
	int i;
	for (i = 0; i < 100; i++)
		churn(&g);
	return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := simplify.Simplify(tu2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(prog2, Options{MaxSteps: 3}); err == nil {
		t.Error("tiny step budget should be reported as an error")
	}
}

func TestBottomNeverEscapes(t *testing.T) {
	// A function whose only call is recursive-from-itself still
	// terminates with a sound result.
	res := analyzeSrc(t, `
int g;
int *f(int n) {
	if (n <= 0) return &g;
	return f(n - 1);
}
int main() {
	int *p;
	p = f(3);
	return 0;
}
`)
	if res.MainOut.IsBottom() {
		t.Fatal("main output must not be BOTTOM")
	}
	// Every path through f returns &g, so the relationship is definite
	// even through the recursion fixed point.
	if got := mainTargets(t, res, "p"); got != "g:D" {
		t.Errorf("p points to %q, want g:D", got)
	}
}

// TestNoDefiniteFromMultiInvariant scans every benchmark's annotations and
// final sets: no definite relationship may originate at a location that
// represents more than one real stack location (DESIGN.md invariant; the
// kill rule depends on it).
func TestNoDefiniteFromMultiInvariant(t *testing.T) {
	for _, name := range bench.AvailableOnDisk() {
		prog, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check := func(s ptset.Set, where string) {
			for _, tr := range s.Triples() {
				if tr.Def == ptset.D && tr.Src.Multi() {
					t.Errorf("%s %s: definite edge from multi location (%s,%s,D)",
						name, where, tr.Src.Name(), tr.Dst.Name())
				}
			}
		}
		check(res.MainOut, "main exit")
		res.Prog.ForEachBasic(func(b *simple.Basic) {
			if in, ok := res.Annots.At(b); ok {
				check(in, b.String())
			}
		})
	}
}

// TestConcurrentIndependentAnalyses documents that independent analyses are
// goroutine-safe (each Analyze builds its own tables and graphs). Run with
// -race for the real check.
func TestConcurrentIndependentAnalyses(t *testing.T) {
	names := []string{"hash", "xref", "mway", "travel"}
	done := make(chan error, len(names))
	for _, n := range names {
		n := n
		go func() {
			prog, err := bench.Load(n)
			if err != nil {
				done <- err
				return
			}
			_, err = Analyze(prog, Options{})
			done <- err
		}()
	}
	for range names {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// free() modeling: heap relationships retarget to the freed location.

// TestFreeRetargetsToFreed checks the strong case: free(p) on a definite,
// single pointer removes p's heap edge and replaces it with a freed edge.
func TestFreeRetargetsToFreed(t *testing.T) {
	res := analyzeSrc(t, `
int main(void) {
	int *p;
	p = (int *) malloc(4);
	free(p);
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "freed:P" {
		t.Errorf("after free(p): p targets %q, want %q", got, "freed:P")
	}
}

// TestFreeKeepsAliases checks that only the freed pointer is retargeted:
// aliases of the dead object keep their heap edge (the single heap location
// also stands for live objects, so dropping alias edges would be unsound).
func TestFreeKeepsAliases(t *testing.T) {
	res := analyzeSrc(t, `
int main(void) {
	int *p;
	int *q;
	p = (int *) malloc(4);
	q = p;
	free(p);
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "freed:P" {
		t.Errorf("after free(p): p targets %q, want %q", got, "freed:P")
	}
	if got := mainTargets(t, res, "q"); got != "heap:P" {
		t.Errorf("after free(p): alias q targets %q, want %q", got, "heap:P")
	}
}

// TestFreeWeakThroughPointer checks the weak case: freeing through a pointer
// with several possible targets keeps the heap edges and adds possible freed
// edges alongside them.
func TestFreeWeakThroughPointer(t *testing.T) {
	res := analyzeSrc(t, `
int main(void) {
	int *p;
	int *q;
	int **pp;
	int c;
	p = (int *) malloc(4);
	q = (int *) malloc(4);
	if (c)
		pp = &p;
	else
		pp = &q;
	free(*pp);
	return 0;
}
`)
	for _, v := range []string{"p", "q"} {
		if got := mainTargets(t, res, v); got != "freed:P heap:P" {
			t.Errorf("after free(*pp): %s targets %q, want %q", v, got, "freed:P heap:P")
		}
	}
}

// TestFreeThenNullIdiom checks the free-then-NULL idiom: the subsequent
// assignment strongly kills the freed edge, so p is definitely NULL.
func TestFreeThenNullIdiom(t *testing.T) {
	res := analyzeSrc(t, `
int main(void) {
	int *p;
	p = (int *) malloc(4);
	free(p);
	p = 0;
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "" {
		t.Errorf("after free(p); p = 0: p targets %q, want none (NULL only)", got)
	}
	obj := findObj(res, "main", "p")
	l := res.Table.VarLoc(obj, nil)
	if d, ok := res.MainOut.Lookup(l, res.Table.NullLoc()); !ok || d != ptset.D {
		t.Errorf("after free(p); p = 0: want (p,NULL,D), got ok=%v d=%v", ok, d)
	}
}

// TestFreeNonHeapNoEffect checks that free of a pointer with no heap edge
// changes nothing (the checker reports invalid frees; the analysis itself
// stays neutral).
func TestFreeNonHeapNoEffect(t *testing.T) {
	res := analyzeSrc(t, `
int main(void) {
	int x;
	int *p;
	p = &x;
	free(p);
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "x:D" {
		t.Errorf("after free(&x): p targets %q, want %q", got, "x:D")
	}
}

// TestFreeAcrossCall checks that free inside a callee retargets the caller's
// pointer through the invisible-variable machinery.
func TestFreeAcrossCall(t *testing.T) {
	res := analyzeSrc(t, `
void rel(int **pp) {
	free(*pp);
}
int main(void) {
	int *p;
	p = (int *) malloc(4);
	rel(&p);
	return 0;
}
`)
	if got := mainTargets(t, res, "p"); got != "freed:P" {
		t.Errorf("after rel(&p): p targets %q, want %q", got, "freed:P")
	}
}

// TestRecordContexts checks the per-invocation-graph-node annotations: the
// same statement analyzed from two call sites records a separate input per
// node, and the per-node merge of all nodes agrees with the global merge.
func TestRecordContexts(t *testing.T) {
	src := `
int g;
void set(int *q) {
	*q = 1;
}
int main(void) {
	int a;
	int *p;
	p = &a;
	set(p);
	set(&g);
	return 0;
}
`
	res := analyzeSrcOpts(t, src, Options{RecordContexts: true})
	var deref *simple.Basic
	res.Prog.ForEachBasic(func(b *simple.Basic) {
		if deref == nil && b.LHS != nil && b.LHS.Deref && b.LHS.Var.Name == "q" {
			deref = b
		}
	})
	if deref == nil {
		t.Fatal("no *q = ... statement found")
	}
	ctxs := res.Annots.ContextsAt(deref)
	if len(ctxs) != 2 {
		t.Fatalf("ContextsAt(*q=1): %d contexts, want 2", len(ctxs))
	}
	merged := ptset.NewBottom()
	for n, in := range ctxs {
		if n.Fn.Name() != "set" {
			t.Errorf("context node is %s, want set", n.Fn.Name())
		}
		merged = ptset.Merge(merged, in)
	}
	global, ok := res.Annots.At(deref)
	if !ok {
		t.Fatal("no global annotation for *q = 1")
	}
	if !ptset.Equal(merged, global) {
		t.Errorf("per-node merge %s != global merge %s", merged, global)
	}
}
