package oracle

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cc/parser"
	"repro/internal/pta"
	"repro/internal/simplify"
)

func deepCheck(t *testing.T, src string) error {
	t.Helper()
	prog, res := analyzeSource(t, "deep.c", src)
	return RunAndCheckDeep(res, prog, 500_000)
}

// TestDeepOracleSmall checks full-depth coverage on programs whose callees
// manipulate invisible variables — validating the symbolic-name chain
// directly against concrete cells.
func TestDeepOracleSmall(t *testing.T) {
	cases := []struct{ name, src string }{
		{"one-level", `
int g;
void f(int **h) {
	*h = &g;
	g = **h;
}
int main() {
	int x;
	int *p;
	p = &x;
	f(&p);
	return 0;
}
`},
		{"two-levels-deep", `
int g;
void inner(int **h) {
	*h = &g;
	g = 1;
}
void outer(int **h) {
	inner(h);
	g = 2;
}
int main() {
	int x;
	int *p;
	p = &x;
	outer(&p);
	return *p;
}
`},
		{"globals-through-chain", `
int a, b;
int *gp;
void leafy(void) {
	int v;
	v = *gp;
	gp = &b;
	v = *gp;
}
void mid(void) {
	leafy();
}
int main() {
	gp = &a;
	mid();
	return *gp;
}
`},
		{"struct-fields-deep", `
struct box { int *p; int pad; };
int g;
void fill(struct box *bx) {
	bx->p = &g;
	g = *bx->p;
}
int main() {
	struct box v;
	fill(&v);
	return *v.p;
}
`},
		{"fnptr-deep", `
int r;
void fa(int *p) { *p = 1; r = *p; }
void fb(int *p) { *p = 2; r = *p; }
void dispatch(void (*cb)(int *), int *q) {
	cb(q);
}
int main() {
	int x, c;
	c = 1;
	if (c)
		dispatch(fa, &x);
	else
		dispatch(fb, &x);
	return x;
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := deepCheck(t, tc.src); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeepOracleBenchmarks runs the full-depth check over the suite.
func TestDeepOracleBenchmarks(t *testing.T) {
	for _, name := range bench.AvailableOnDisk() {
		name := name
		t.Run(name, func(t *testing.T) {
			prog, err := bench.Load(name)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			res, err := pta.Analyze(prog, pta.Options{})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if err := RunAndCheckDeep(res, prog, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeepOracleGenerated fuzzes the full-depth checker.
func TestDeepOracleGenerated(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for seed := 200; seed < 200+seeds; seed++ {
		src := bench.Generate(bench.DefaultGenConfig(int64(seed)))
		tu, err := parser.Parse("gen.c", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog, err := simplify.Simplify(tu)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := pta.Analyze(prog, pta.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := RunAndCheckDeep(res, prog, 500_000); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
	}
}
