package heapconn

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cc/ast"
	"repro/internal/cc/parser"
	"repro/internal/pta"
	"repro/internal/simplify"
)

func analyze(t *testing.T, src string) *pta.Result {
	t.Helper()
	tu, err := parser.Parse("test.c", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	prog, err := simplify.Simplify(tu)
	if err != nil {
		t.Fatalf("Simplify: %v", err)
	}
	res, err := pta.Analyze(prog, pta.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

func varOf(fr *FuncResult, name string) *ast.Object {
	for _, v := range fr.HeapPtrs {
		if v.Name == name {
			return v
		}
	}
	return nil
}

func TestDisjointAllocations(t *testing.T) {
	res := analyze(t, `
struct n { struct n *next; };
int main() {
	struct n *p, *q;
	p = (struct n *) malloc(8);
	q = (struct n *) malloc(8);
	return 0;
}
`)
	r := Run(res)
	fr := r.Funcs["main"]
	p, q := varOf(fr, "p"), varOf(fr, "q")
	if p == nil || q == nil {
		t.Fatalf("heap pointers not detected: %v", fr.HeapPtrs)
	}
	if fr.Exit.Connected(p, q) {
		t.Error("two fresh allocations must be disjoint")
	}
	if fr.DisjointPairs() == 0 {
		t.Error("expected at least one provably disjoint pair")
	}
}

func TestCopyConnects(t *testing.T) {
	res := analyze(t, `
struct n { struct n *next; };
int main() {
	struct n *p, *q;
	p = (struct n *) malloc(8);
	q = p;
	return 0;
}
`)
	r := Run(res)
	fr := r.Funcs["main"]
	if !fr.Exit.Connected(varOf(fr, "p"), varOf(fr, "q")) {
		t.Error("q = p must connect them")
	}
}

func TestLinkConnectsStructures(t *testing.T) {
	res := analyze(t, `
struct n { struct n *next; };
int main() {
	struct n *p, *q;
	p = (struct n *) malloc(8);
	q = (struct n *) malloc(8);
	p->next = q;   /* links the two structures */
	return 0;
}
`)
	r := Run(res)
	fr := r.Funcs["main"]
	if !fr.Exit.Connected(varOf(fr, "p"), varOf(fr, "q")) {
		t.Error("p->next = q links the structures")
	}
}

func TestTraversalStaysWithinStructure(t *testing.T) {
	res := analyze(t, `
struct n { struct n *next; };
int main() {
	struct n *a, *b, *cur;
	a = (struct n *) malloc(8);
	b = (struct n *) malloc(8);
	a->next = (struct n *) malloc(8);
	cur = a->next;   /* cur is inside a's structure */
	return 0;
}
`)
	r := Run(res)
	fr := r.Funcs["main"]
	a, b, cur := varOf(fr, "a"), varOf(fr, "b"), varOf(fr, "cur")
	if !fr.Exit.Connected(cur, a) {
		t.Error("cur = a->next stays within a's structure")
	}
	if fr.Exit.Connected(cur, b) {
		t.Error("cur must remain disjoint from b")
	}
}

func TestReassignmentDisconnects(t *testing.T) {
	res := analyze(t, `
struct n { struct n *next; };
int main() {
	struct n *p, *q;
	p = (struct n *) malloc(8);
	q = p;
	q = (struct n *) malloc(8);   /* fresh structure again */
	return 0;
}
`)
	r := Run(res)
	fr := r.Funcs["main"]
	if fr.Exit.Connected(varOf(fr, "p"), varOf(fr, "q")) {
		t.Error("reallocation must disconnect q from p")
	}
}

func TestMergeAtJoin(t *testing.T) {
	res := analyze(t, `
struct n { struct n *next; };
int main() {
	struct n *p, *q, *r;
	int c;
	p = (struct n *) malloc(8);
	q = (struct n *) malloc(8);
	if (c)
		r = p;
	else
		r = q;
	return 0;
}
`)
	rr := Run(res)
	fr := rr.Funcs["main"]
	p, q, r := varOf(fr, "p"), varOf(fr, "q"), varOf(fr, "r")
	if !fr.Exit.Connected(r, p) || !fr.Exit.Connected(r, q) {
		t.Error("after the join r may be in either structure")
	}
	if fr.Exit.Connected(p, q) {
		t.Error("p and q themselves stay disjoint")
	}
}

func TestParametersConservativelyConnected(t *testing.T) {
	res := analyze(t, `
struct n { struct n *next; };
int use(struct n *a, struct n *b) {
	if (a && b) return 1;
	return 0;
}
int main() {
	struct n *x;
	x = (struct n *) malloc(8);
	return use(x, x);
}
`)
	r := Run(res)
	fr := r.Funcs["use"]
	a, b := varOf(fr, "a"), varOf(fr, "b")
	if a == nil || b == nil {
		t.Fatalf("params not heap-directed: %v", fr.HeapPtrs)
	}
	if !fr.Exit.Connected(a, b) {
		t.Error("heap parameters must be assumed connected at entry")
	}
}

func TestOnHeapBenchmarks(t *testing.T) {
	// The heap-heavy suite programs should show some disjointness wins.
	for _, name := range []string{"hash", "xref", "sim"} {
		prog, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pta.Analyze(prog, pta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := Run(res)
		total, naive := 0, 0
		for _, fr := range r.Funcs {
			total += fr.Exit.Len()
			naive += fr.NaivePairs
		}
		if naive == 0 {
			t.Errorf("%s: no heap pointers found", name)
			continue
		}
		if total > naive {
			t.Errorf("%s: connection matrix (%d) larger than naive (%d)", name, total, naive)
		}
		t.Logf("%s: %d connected pairs vs %d naive", name, total, naive)
	}
}

// A break leaves the loop in the state before it: on that path p equals q,
// so the two are connected at exit, as they are when an if makes p equal q
// on one path.
func TestBreakKeepsConnection(t *testing.T) {
	for _, body := range []string{
		"p = q; if (d) break; p = (struct n *) malloc(8);",
		"p = (struct n *) malloc(8); if (d) p = q;",
	} {
		res := analyze(t, `
struct n { struct n *next; };
int main() {
	struct n *p, *q;
	int c, d;
	q = (struct n *) malloc(8);
	p = (struct n *) malloc(8);
	while (c) {
		`+body+`
	}
	return 0;
}
`)
		fr := Run(res).Funcs["main"]
		if !fr.Exit.Connected(varOf(fr, "p"), varOf(fr, "q")) {
			t.Errorf("loop body %q: p and q must be connected at exit", body)
		}
	}
}
