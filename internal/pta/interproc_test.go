package pta

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/obsv"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/loc"
)

// mapInfoFor digs out the MapInfo of the first invocation-graph node for
// the named function.
func mapInfoFor(t *testing.T, res *Result, fn string) *MapInfo {
	t.Helper()
	var mi *MapInfo
	res.Graph.Walk(func(n *invgraph.Node) {
		if mi == nil && n.Fn.Name() == fn && n.MapInfo != nil {
			mi = n.MapInfo.(*MapInfo)
		}
	})
	if mi == nil {
		t.Fatalf("no MapInfo recorded for %s", fn)
	}
	return mi
}

// The paper's §4.1 naming scheme: for a parameter x of type int**, the
// invisible variables reachable at one and two levels get the symbolic
// names 1_x and 2_x.
func TestSymbolicNamingLevels(t *testing.T) {
	res := analyzeSrc(t, `
void f(int **x) {
	**x = 1;
}
int main() {
	int c0;
	int *b;
	int **m;
	b = &c0;
	m = &b;
	f(m);
	return 0;
}
`)
	mi := mapInfoFor(t, res, "f")
	inv := mi.Invisibles()
	if got := inv["1_x"]; len(got) != 1 || got[0] != "b" {
		t.Errorf("1_x represents %v, want [b]", got)
	}
	if got := inv["2_x"]; len(got) != 1 || got[0] != "c0" {
		t.Errorf("2_x represents %v, want [c0]", got)
	}
}

// A caller location with several callee names anchors the symbolic name of
// its pointees at the first name by SortKey, not at the first it was given:
// p passed as both arguments of f(int *y, int *x) names a after x.
func TestSymbolicNameAnchorsAtFirstSortedName(t *testing.T) {
	res := analyzeSrc(t, `
void f(int *y, int *x) {
	*y = 1;
}
int main() {
	int a;
	int *p;
	p = &a;
	f(p, p);
	return 0;
}
`)
	inv := mapInfoFor(t, res, "f").Invisibles()
	if got := inv["1_x"]; len(got) != 1 || got[0] != "a" || len(inv) != 1 {
		t.Errorf("invisibles %v, want only 1_x for a", inv)
	}
}

// The paper's first §4.1 observation: when both x and y definitely point to
// the same invisible b, it is represented by exactly one symbolic name —
// the map info shows (1_?, b) once and the other name maps to nothing.
func TestOneSymbolicPerInvisible(t *testing.T) {
	res := analyzeSrc(t, `
void f(int **x, int **y) {
	**x = 1;
}
int main() {
	int v0;
	int *b;
	b = &v0;
	f(&b, &b);
	return 0;
}
`)
	mi := mapInfoFor(t, res, "f")
	inv := mi.Invisibles()
	count := 0
	for _, vars := range inv {
		for _, v := range vars {
			if v == "b" {
				count++
			}
		}
	}
	if count != 1 {
		t.Errorf("invisible b must be represented by exactly one symbolic name, got %d in %v",
			count, inv)
	}
}

// The paper's second §4.1 observation: a symbolic name can represent more
// than one invisible (x possibly points to a and b), and relationships
// through it are downgraded to possible.
func TestSymbolicRepresentsMultiple(t *testing.T) {
	res := analyzeSrc(t, `
int g;
void f(int **x) {
	*x = &g;
}
int main() {
	int a0, b0, c;
	int *pa, *pb;
	int **m;
	pa = &a0;
	pb = &b0;
	if (c)
		m = &pa;
	else
		m = &pb;
	f(m);
	return 0;
}
`)
	mi := mapInfoFor(t, res, "f")
	inv := mi.Invisibles()
	if got := inv["1_x"]; len(got) != 2 {
		t.Errorf("1_x should represent both pa and pb, got %v", got)
	}
	// The write through *x is a weak update in the caller: pa keeps a0 and
	// gains g. The spurious (pa,b0,P) is the *paper's own* documented
	// imprecision ("which on unmapping would generate the spurious
	// points-to pair (y,a,P)... the information provided is still safe,
	// but less precise", §4.1 footnote 5): pa's and pb's edges were both
	// carried by the shared symbolic 1_x and redistribute on unmap.
	if got := mainTargets(t, res, "pa"); got != "a0:P b0:P g:P" {
		t.Errorf("pa points to %q, want a0:P b0:P g:P", got)
	}
}

// bumpSym must walk the numeric prefix: 1_x -> 2_x -> 3_x.
func TestThreeLevelInvisibles(t *testing.T) {
	res := analyzeSrc(t, `
int g;
void f(int ****w) {
	***w = &g;
}
int main() {
	int d0;
	int *c;
	int **b;
	int ***m;
	c = &d0;
	b = &c;
	m = &b;
	f(&m);
	return 0;
}
`)
	mi := mapInfoFor(t, res, "f")
	inv := mi.Invisibles()
	for _, sym := range []string{"1_w", "2_w", "3_w"} {
		if len(inv[sym]) != 1 {
			t.Errorf("%s should represent exactly one invisible, got %v", sym, inv[sym])
		}
	}
	if got := mainTargets(t, res, "c"); got != "g:D" {
		t.Errorf("c points to %q, want g:D (write through 3 levels)", got)
	}
}

// Struct fields of invisible variables get selector-extended symbolic names
// (1_p.next etc.), and writes through them unmap onto the right caller
// fields.
func TestInvisibleStructFields(t *testing.T) {
	res := analyzeSrc(t, `
struct node { struct node *next; int v; };
struct node other;
void f(struct node *p) {
	p->next = &other;
}
int main() {
	struct node n;
	f(&n);
	return 0;
}
`)
	if got := mainTargets(t, res, "n"); got != "" {
		t.Errorf("n itself points nowhere, got %q", got)
	}
	// n.next must point to other after the call.
	obj := findObj(res, "main", "n")
	l := res.Table.VarLoc(obj, nil)
	nextLoc := res.Table.Extend(l, loc.FieldElem("next"))
	found := false
	for _, tr := range res.MainOut.Targets(nextLoc) {
		if tr.Dst.Name() == "other" {
			found = true
		}
	}
	if !found {
		t.Errorf("n.next should point to other; set: %s", res.MainOut.StringNoNull())
	}
}

// Memoization is per invocation-graph node: the paper's win is that a loop
// fixed point re-reaching a call with an unchanged input reuses the stored
// IN/OUT pair instead of re-analyzing the body. Each call maps a fresh input
// set, so this also guards that lookups compare inputs by structure: a
// lookup by identity would never hit.
func TestMemoizationReusesResults(t *testing.T) {
	src := `
int g;
void work(int *p) {
	int i;
	for (i = 0; i < 3; i++)
		*p = *p + 1;
}
int main() {
	int k;
	for (k = 0; k < 5; k++)
		work(&g);
	return 0;
}
`
	resMemo := analyzeSrcOpts(t, src, Options{})
	resNoMemo := analyzeSrcOpts(t, src, Options{NoMemo: true})
	if resMemo.Metrics.Steps >= resNoMemo.Metrics.Steps {
		t.Errorf("memoized analysis should evaluate fewer statements: %d vs %d",
			resMemo.Metrics.Steps, resNoMemo.Metrics.Steps)
	}
}

// The summaries stored on invocation graph nodes must be fixed points:
// re-running the body on a stored input yields a subset of the stored
// output (DESIGN.md invariant). Every memo entry is checked, not only the
// node's last stored pair. An entry shares its sets with the node and with
// the callers it answered, so a caller that mutated a returned output would
// corrupt the entry, and its recomputed triples would go missing from it.
func TestStoredSummariesAreFixedPoints(t *testing.T) {
	multi := false
	for _, src := range []string{
		`
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
`,
		`
int g;
int *pick(int c) {
	if (c) return &g;
	return 0;
}
int main() {
	int *p;
	p = pick(1);
	p = pick(0);
	return 0;
}
`,
		// flip's node is evaluated under two inputs before the inner loop
		// converges, so its memo list holds two entries; the outer loop's
		// second pass answers from the second.
		`
int a, b;
int *q;
void flip(void) {
	if (q == &a) q = &b;
	else q = &a;
}
int main() {
	int j, k;
	q = &a;
	for (j = 0; j < 2; j++)
		for (k = 0; k < 3; k++)
			flip();
	return 0;
}
`,
	} {
		res := analyzeSrc(t, src)
		// The recomputation re-evaluates callees instead of answering from
		// their memo lists, so it checks each summary against its whole
		// subtree and leaves the lists as the run stored them.
		opts := res.Opts
		opts.NoMemo = true
		a := &analyzer{
			prog: res.Prog, tab: res.Table, g: res.Graph,
			opts: opts, ann: NewAnnotations(), limit: 1 << 30,
			m: obsv.NewMetrics(),
		}
		a.stepCeil.Store(a.limit)
		res.Graph.Walk(func(n *invgraph.Node) {
			if !n.HasResult || n.Kind == invgraph.Approximate {
				return
			}
			multi = multi || len(n.Memo) > 1
			sums := append([]invgraph.Summary{{In: n.StoredInput, Out: n.StoredOutput}}, n.Memo...)
			for i, sum := range sums {
				n.StoredInput, n.StoredOutput = sum.In, sum.Out
				out := a.analyzeBody(n, 0)
				if out.IsBottom() {
					continue
				}
				// Strip callee-local noise: just require that every triple
				// of the recomputed output over visible locations appears
				// in the stored output.
				for _, tr := range out.Triples() {
					if _, ok := sum.Out.Lookup(tr.Src, tr.Dst); !ok {
						t.Errorf("%s summary %d of %d: recomputed output has (%s,%s) missing from stored output",
							n.Fn.Name(), i, len(sums), tr.Src.Name(), tr.Dst.Name())
					}
				}
			}
		})
	}
	if !multi {
		t.Error("no node stored more than one memo entry")
	}
}

// TestShareContexts checks the paper's §6 future-work optimization: with
// summary sharing, repeated identical invocations anywhere in the graph are
// analyzed once, results are unchanged, and the effort drops.
func TestShareContexts(t *testing.T) {
	src := `
int g;
void work(int *p) {
	int i;
	for (i = 0; i < 3; i++)
		*p = *p + 1;
}
void a(void) { work(&g); }
void b(void) { work(&g); }
void c(void) { work(&g); }
int main() {
	a();
	b();
	c();
	return 0;
}
`
	plain := analyzeSrcOpts(t, src, Options{})
	shared := analyzeSrcOpts(t, src, Options{ShareContexts: true})
	if shared.Metrics.SharedHits == 0 {
		t.Error("expected summary-cache hits for identical invocations")
	}
	if shared.Metrics.Steps >= plain.Metrics.Steps {
		t.Errorf("sharing should reduce statement evaluations: %d vs %d",
			shared.Metrics.Steps, plain.Metrics.Steps)
	}
	// Results from separate analyses intern locations in separate tables,
	// so compare canonical renders rather than pointer-keyed sets.
	if plain.MainOut.String() != shared.MainOut.String() {
		t.Errorf("sharing must not change results:\nplain:  %s\nshared: %s",
			plain.MainOut.StringNoNull(), shared.MainOut.StringNoNull())
	}
}

// TestShareContextsSuite verifies result equivalence across the benchmark
// suite and measures the sharing payoff on livc (whose 72 kernels are
// called in near-identical contexts).
func TestShareContextsSuite(t *testing.T) {
	for _, name := range []string{"csuite", "livc", "stanford", "config"} {
		prog, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Analyze(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := Analyze(prog, Options{ShareContexts: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.MainOut.String() != shared.MainOut.String() {
			t.Errorf("%s: sharing changed the result", name)
		}
		t.Logf("%s: steps %d -> %d (hits %d)", name, plain.Metrics.Steps, shared.Metrics.Steps, shared.Metrics.SharedHits)
	}
}
