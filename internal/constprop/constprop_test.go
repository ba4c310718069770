package constprop

import (
	"testing"

	"repro/internal/cc/parser"
	"repro/internal/modref"
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

// run propagates constants over res with its MOD sets.
func run(res *pta.Result) *Result { return RunWithMod(res, modref.Compute(res)) }

// constOf returns the propagated constant for the first statement whose
// printed form matches, or (0, false).
func constOf(r *Result, stmtText string) (int64, bool) {
	for _, f := range r.Constants {
		if f.Stmt.String() == stmtText {
			return f.Value, true
		}
	}
	return 0, false
}

func TestStraightLine(t *testing.T) {
	res := analyze(t, `
int main() {
	int a, b, c;
	a = 3;
	b = a + 4;
	c = a * b;
	return c;
}
`)
	r := run(res)
	if v, ok := constOf(r, "b = a + 4"); !ok || v != 7 {
		t.Errorf("b = a + 4 should be constant 7, got %v %v", v, ok)
	}
	if v, ok := constOf(r, "c = a * b"); !ok || v != 21 {
		t.Errorf("c should be 21, got %v %v", v, ok)
	}
}

func TestThroughDefinitePointer(t *testing.T) {
	// The §6.1 point: definite points-to information lets constants flow
	// through stores and loads via pointers.
	res := analyze(t, `
int main() {
	int x, y;
	int *p;
	p = &x;
	*p = 5;      /* strong update of x through p */
	y = x + 1;   /* must see x == 5 */
	return y;
}
`)
	r := run(res)
	if v, ok := constOf(r, "y = x + 1"); !ok || v != 6 {
		t.Errorf("y should be constant 6 via pointer store, got %v %v", v, ok)
	}
}

func TestLoadThroughPointer(t *testing.T) {
	res := analyze(t, `
int main() {
	int x, y;
	int *p;
	x = 9;
	p = &x;
	y = *p;     /* load sees x == 9 */
	return y;
}
`)
	r := run(res)
	if v, ok := constOf(r, "y = *p"); !ok || v != 9 {
		t.Errorf("y = *p should be constant 9, got %v %v", v, ok)
	}
}

func TestWeakUpdateLosesConstant(t *testing.T) {
	res := analyze(t, `
int main() {
	int x, y, c, r;
	int *p;
	x = 1;
	y = 1;
	if (c)
		p = &x;
	else
		p = &y;
	*p = 2;      /* weak update: x and y may be 1 or 2 */
	r = x + 0;
	return r;
}
`)
	r := run(res)
	if _, ok := constOf(r, "r = x + 0"); ok {
		t.Error("x must not be constant after a weak update")
	}
}

func TestBranchMeet(t *testing.T) {
	res := analyze(t, `
int main() {
	int a, c, r;
	if (c)
		a = 4;
	else
		a = 4;
	r = a + 1;   /* both branches agree: 5 */
	return r;
}
`)
	r := run(res)
	if v, ok := constOf(r, "r = a + 1"); !ok || v != 5 {
		t.Errorf("r should be 5 after agreeing branches, got %v %v", v, ok)
	}
	res2 := analyze(t, `
int main() {
	int a, c, r;
	if (c)
		a = 4;
	else
		a = 5;
	r = a + 1;
	return r;
}
`)
	r2 := run(res2)
	if _, ok := constOf(r2, "r = a + 1"); ok {
		t.Error("disagreeing branches must not yield a constant")
	}
}

func TestLoopInvalidation(t *testing.T) {
	res := analyze(t, `
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 10; i++)
		s = s + 1;
	return s;
}
`)
	r := run(res)
	for _, f := range r.Constants {
		if f.Stmt.String() == "s = s + 1" {
			t.Error("loop-carried s must not be constant")
		}
	}
}

func TestCallHavocsGlobals(t *testing.T) {
	res := analyze(t, `
int g;
void touch(void) { g = 7; }
int main() {
	int r;
	g = 1;
	touch();
	r = g + 1;   /* g modified by the call: unknown */
	return r;
}
`)
	r := run(res)
	if _, ok := constOf(r, "r = g + 1"); ok {
		t.Error("g must be invalidated across the call")
	}
}

func TestCallHavocsThroughPointerArg(t *testing.T) {
	res := analyze(t, `
void bump(int *p) { *p = *p + 1; }
int main() {
	int x, r;
	x = 1;
	bump(&x);
	r = x + 1;   /* x reachable from the call's argument */
	return r;
}
`)
	r := run(res)
	if _, ok := constOf(r, "r = x + 1"); ok {
		t.Error("x must be invalidated: the call can write through &x")
	}
}

func TestLocalsUnaffectedByCall(t *testing.T) {
	res := analyze(t, `
void noop(void) { }
int main() {
	int x, r;
	x = 3;
	noop();
	r = x + 1;   /* x not reachable by the call: stays 3 */
	return r;
}
`)
	r := run(res)
	if v, ok := constOf(r, "r = x + 1"); !ok || v != 4 {
		t.Errorf("x should survive the unrelated call, got %v %v", v, ok)
	}
}

func TestOnBenchmarkShapes(t *testing.T) {
	// Smoke-check the propagator over a richer program.
	res := analyze(t, `
int table[4];
int scale;
void fill(void) {
	int i;
	for (i = 0; i < 4; i++)
		table[i] = i * scale;
}
int main() {
	scale = 2;
	fill();
	return table[0];
}
`)
	r := run(res)
	if len(r.Constants) == 0 {
		t.Error("expected at least some constants")
	}
}

// The MOD payoff: with interprocedural side-effect sets, a constant
// survives a call that cannot write it.
func TestModSharpensConstProp(t *testing.T) {
	res := analyze(t, `
int g, unrelated;
void touch(void) { unrelated = 7; }
int main() {
	int r;
	g = 3;
	touch();
	r = g + 1;
	return r;
}
`)
	if v, ok := constOf(run(res), "r = g + 1"); !ok || v != 4 {
		t.Errorf("MOD-based propagation should keep g=3 across touch(): got %v %v", v, ok)
	}
}
