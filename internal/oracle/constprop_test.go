package oracle

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cc/parser"
	"repro/internal/constprop"
	"repro/internal/interp"
	"repro/internal/modref"
	"repro/internal/pta"
	"repro/internal/simple"
	"repro/internal/simplify"
)

// checkConstants interprets the program and checks constant propagation's
// claims: every time a statement that constprop.RunWithMod reports as
// constant runs, at any call depth, it must compute that integer. It
// reports the first contradiction of each claim, in program order.
func checkConstants(res *pta.Result, prog *simple.Program, maxSteps int) error {
	found := constprop.RunWithMod(res, modref.Compute(res)).Constants
	claims := make(map[*simple.Basic]int64, len(found))
	for _, f := range found {
		claims[f.Stmt] = f.Value
	}
	ip := interp.New(prog)
	if maxSteps > 0 {
		ip.MaxSteps = maxSteps
	}
	wrong := make(map[*simple.Basic]string)
	ip.OnValue = func(b *simple.Basic, v interp.Value) {
		c, claimed := claims[b]
		if _, seen := wrong[b]; !claimed || seen || (v.Kind == interp.KInt && v.I == c) {
			return
		}
		wrong[b] = "a non-integer"
		if v.Kind == interp.KInt {
			wrong[b] = fmt.Sprint(v.I)
		}
	}
	if _, err := ip.Run(); err != nil {
		if _, isExit := interp.ExitCode(err); !isExit {
			return fmt.Errorf("interpretation failed: %w", err)
		}
	}
	var errs []error
	for _, f := range found {
		if v, ok := wrong[f.Stmt]; ok {
			errs = append(errs, fmt.Errorf("%s: `%s` claimed %d, computed %s", f.Stmt.Pos, f.Stmt, f.Value, v))
		}
	}
	return errors.Join(errs...)
}

// analyzeSource parses, simplifies and analyzes src.
func analyzeSource(t *testing.T, file, src string) (*simple.Program, *pta.Result) {
	t.Helper()
	tu, err := parser.Parse(file, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simplify.Simplify(tu)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pta.Analyze(prog, pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog, res
}

// TestConstantsHold runs checkConstants on the suite, livc and the
// generated programs of TestGeneratedProgramsSound: every constant that
// constant propagation reports must be what its statement computes each
// time it runs.
func TestConstantsHold(t *testing.T) {
	for _, name := range bench.Names() {
		t.Run(name, func(t *testing.T) {
			prog, err := bench.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pta.Analyze(prog, pta.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkConstants(res, prog, 0); err != nil {
				t.Error(err)
			}
		})
	}
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("gen-%d", seed), func(t *testing.T) {
			src := generated(seed)
			prog, res := analyzeSource(t, "gen.c", src)
			if err := checkConstants(res, prog, 500_000); err != nil {
				t.Errorf("%v\n%s", err, src)
			}
		})
	}
}

// TestConstantProbes runs constant propagation on programs whose named
// statement is not a constant: it needs a break or fall-through state, a
// loop run to its fixed point, no constant for a cell the invocation never
// assigned, or the external-call rule. The statement must not be reported,
// and where the interpreter models every call the probe makes,
// checkConstants must pass.
func TestConstantProbes(t *testing.T) {
	var shift strings.Builder
	shift.WriteString("int main() {\n\tint i, y")
	for i := 1; i <= 70; i++ {
		fmt.Fprintf(&shift, ", x%d", i)
	}
	shift.WriteString(";\n")
	for i := 1; i <= 70; i++ {
		fmt.Fprintf(&shift, "\tx%d = 0;\n", i)
	}
	shift.WriteString("\tfor (i = 0; i < 100; i++) {\n")
	for i := 1; i < 70; i++ {
		fmt.Fprintf(&shift, "\t\tx%d = x%d;\n", i, i+1)
	}
	shift.WriteString("\t\tx70 = x70 + 1;\n\t}\n\ty = x1 + 0;\n\treturn y;\n}\n")

	probes := []struct {
		name, stmt string
		runs       bool // the interpreter models every call
		src        string
	}{
		{"break", "y = x + 0", true, `
int main() {
	int x, y, c, d;
	c = 1;
	d = 1;
	x = 2;
	while (c) {
		x = 1;
		if (d)
			break;
		x = 2;
	}
	y = x + 0;
	return y;
}`},
		{"switch fall-through", "y = x + 0", true, `
int main() {
	int x, y, c;
	c = 1;
	x = 0;
	y = 0;
	switch (c) {
	case 1:
		x = 1;
	case 2:
		y = x + 0;
		break;
	}
	return y;
}`},
		// The loop needs 71 passes to settle.
		{"shift loop", "y = x1 + 0", true, shift.String()},
		// stanford's innerproduct: the callee sums its caller's array.
		{"sum over a caller's array", "*result = sum", true, `
int a[4];
void inner(int *result, int *v) {
	int i, sum;
	sum = 0;
	for (i = 0; i < 4; i++)
		sum = sum + v[i];
	*result = sum;
}
int main() {
	int i, r;
	for (i = 0; i < 4; i++)
		a[i] = i;
	inner(&r, a);
	return r;
}`},
		{"scanf", "y = x + 0", true, `
int main() {
	int x, y;
	x = 1;
	scanf("%d", &x);
	y = x + 0;
	return y;
}`},
		// The interpreter does not write through memset.
		{"memset", "y = z + 0", false, `
int main() {
	int y, z;
	z = 5;
	memset(&z, 0, sizeof(z));
	y = z + 0;
	return y;
}`},
		// examples/race/threadarg_ok.c: the thread stores 1 through the
		// argument &counter before the join, so main computes 3.
		{"thread argument", "counter = counter + 2", false, `
long t;
void *worker(void *arg) {
	int *p;
	p = (int *) arg;
	*p = 1;
	return 0;
}
int main(void) {
	int counter;
	counter = 0;
	pthread_create(&t, 0, worker, &counter);
	pthread_join(t, 0);
	counter = counter + 2;
	return counter;
}`},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			prog, res := analyzeSource(t, "probe.c", p.src)
			for _, f := range constprop.RunWithMod(res, modref.Compute(res)).Constants {
				if f.Stmt.String() == p.stmt {
					t.Errorf("`%s` reported as the constant %d", p.stmt, f.Value)
				}
			}
			if p.runs {
				if err := checkConstants(res, prog, 0); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
