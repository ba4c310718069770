package pointsto

import (
	"io"
	"strings"
	"testing"

	"repro/internal/obsv"
)

const figure6 = `
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
	fp();
	return 0;
}
int foo() {
	int cond;
	pa = &a;
	if (cond)
		fp();
	return 0;
}
int bar() {
	pb = &b;
	return 0;
}
`

func TestAnalyzeSourceAPI(t *testing.T) {
	a, err := AnalyzeSource("fig6.c", figure6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.PointsToString("", "fp"); got != "bar:P foo:P" {
		t.Errorf("fp -> %q, want bar:P foo:P", got)
	}
	if got := a.PointsToString("", "pc"); got != "c:D" {
		t.Errorf("pc -> %q, want c:D", got)
	}
	targets := a.CallTargets("fp")
	if len(targets) != 2 || targets[0] != "bar" || targets[1] != "foo" {
		t.Errorf("CallTargets = %v, want [bar foo]", targets)
	}
	st := a.InvocationGraphStats()
	if st.Nodes != 4 || st.Recursive != 1 || st.Approximate != 1 {
		t.Errorf("IG stats = %+v, want 4 nodes, R=1, A=1", st)
	}
}

func TestConfigStrategies(t *testing.T) {
	for _, strat := range []string{"precise", "addr-taken", "all", ""} {
		if _, err := AnalyzeSource("fig6.c", figure6, &Config{FnPtrStrategy: strat}); err != nil {
			t.Errorf("strategy %q failed: %v", strat, err)
		}
	}
	if _, err := AnalyzeSource("fig6.c", figure6, &Config{FnPtrStrategy: "bogus"}); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestWriteOutputs(t *testing.T) {
	a, err := AnalyzeSource("fig6.c", figure6, nil)
	if err != nil {
		t.Fatal(err)
	}
	var dot strings.Builder
	a.WriteInvocationGraph(&dot)
	if !strings.Contains(dot.String(), "digraph invocation") {
		t.Error("DOT output malformed")
	}
	var sim strings.Builder
	a.WriteSimple(&sim)
	if !strings.Contains(sim.String(), "fp = &foo") {
		t.Errorf("SIMPLE output should show fp = &foo:\n%s", sim.String())
	}
}

func TestParseErrorSurface(t *testing.T) {
	if _, err := AnalyzeSource("bad.c", "int main( { return 0; }", nil); err == nil {
		t.Error("syntax error should be reported")
	}
}

func TestAliasAndReplacements(t *testing.T) {
	a, err := AnalyzeSource("t.c", `
int main() {
	int x, y;
	int *q;
	q = &y;
	x = *q;
	return x;
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs := a.AliasPairs(2)
	if len(pairs) == 0 {
		t.Error("alias pairs expected")
	}
	reps := a.Replacements()
	if len(reps) != 1 {
		t.Fatalf("replacements = %v, want 1", reps)
	}
	if reps[0].Target.Name() != "y" {
		t.Errorf("replacement target = %s, want y", reps[0].Target.Name())
	}
}

func TestPointsToUnknownVariable(t *testing.T) {
	a, err := AnalyzeSource("t.c", "int main() { return 0; }", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.PointsTo("main", "nosuch"); got != nil {
		t.Errorf("unknown variable should yield nil, got %v", got)
	}
}

func TestContextInsensitiveConfig(t *testing.T) {
	// Context sensitivity matters for state communicated through globals:
	// the merged-context ablation analyzes f once against the union of
	// gin's bindings, so both r1 and r2 see both targets. (Note that
	// parameter-passed contexts stay precise even under the ablation,
	// because symbolic names re-specialize at each unmap — the global
	// channel is where one summary per function actually loses.)
	src := `
int x, y;
int *gin, *gout;
int *r1, *r2;
void f(void) { gout = gin; }
int main() {
	gin = &x;
	f();
	r1 = gout;
	gin = &y;
	f();
	r2 = gout;
	return 0;
}
`
	precise, err := AnalyzeSource("t.c", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := AnalyzeSource("t.c", src, &Config{ContextInsensitive: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := precise.PointsToString("", "r1"); got != "x:D" {
		t.Errorf("precise r1 -> %q, want x:D", got)
	}
	if got := precise.PointsToString("", "r2"); got != "y:D" {
		t.Errorf("precise r2 -> %q, want y:D", got)
	}
	if got := merged.PointsToString("", "r1"); !strings.Contains(got, "y") {
		t.Errorf("context-insensitive r1 -> %q, should include y (merged contexts)", got)
	}
}

func TestClientAnalysisAccessors(t *testing.T) {
	a, err := AnalyzeSource("t.c", `
struct n { struct n *next; };
int g;
void bump(void) { g = g + 1; }
int main() {
	struct n *p;
	int i;
	int arr[4];
	p = (struct n *) malloc(8);
	g = 1;
	bump();
	for (i = 0; i < 4; i++)
		arr[i] = i;
	return arr[0];
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp := a.ConstantPropagation(); len(cp.Constants) == 0 {
		t.Error("constant propagation found nothing")
	}
	if mr := a.ModRef(); mr == nil {
		t.Error("modref nil")
	}
	if hc := a.HeapConnections(); len(hc.Funcs) == 0 {
		t.Error("heap connections empty")
	}
	if dp := a.Dependences(); len(dp.Loops) == 0 {
		t.Error("no loops analyzed")
	}
}

// TestConfigReuseIndependentSnapshots checks that two sequential Analyze
// calls sharing one Config, each with freshly attached observability, produce
// independent, correctly-totaled snapshots — not a second snapshot that
// double-counts the first run's steps.
func TestConfigReuseIndependentSnapshots(t *testing.T) {
	baseline, err := AnalyzeSource("fig6.c", figure6, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := baseline.Metrics().Steps
	if wantSteps == 0 {
		t.Fatal("baseline run recorded no steps")
	}

	cfg := &Config{}
	runWith := func() *Analysis {
		// Fresh per-run attachments, the way a server installs them for
		// each request.
		cfg.Metrics = obsv.NewMetrics()
		cfg.Flight = obsv.NewFlightRecorder(io.Discard)
		a, err := AnalyzeSource("fig6.c", figure6, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1 := runWith()
	a2 := runWith()
	if got := a1.Metrics().Steps; got != wantSteps {
		t.Errorf("first run steps = %d, want %d", got, wantSteps)
	}
	if got := a2.Metrics().Steps; got != wantSteps {
		t.Errorf("second run steps = %d, want %d (double accounting?)", got, wantSteps)
	}
}

// TestConfigExternalTracer checks the caller-supplied tracer path: spans
// the caller opens around the run (e.g. a request-ID span) share the ring
// with the analysis's own spans.
func TestConfigExternalTracer(t *testing.T) {
	tr := obsv.NewTracer(1, 512)
	sp := tr.Begin(0, obsv.CatPhase, "request", "req-abc123")
	cfg := &Config{Tracer: tr}
	a, err := AnalyzeSource("fig6.c", figure6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp.End()
	if a.Tracer != tr {
		t.Fatal("Analysis.Tracer is not the supplied tracer")
	}
	var haveReq, haveAnalysis bool
	for _, e := range tr.Events() {
		if e.Name == "request" && e.Detail == "req-abc123" {
			haveReq = true
		}
		if e.Name == "analysis" {
			haveAnalysis = true
		}
	}
	if !haveReq || !haveAnalysis {
		t.Errorf("tracer missing spans: request=%v analysis=%v", haveReq, haveAnalysis)
	}
}

// TestOneRunServesClients: on a default exhaustive analysis, Check, Races
// and Taint read the per-context annotations of the analysis itself, so
// the caller's tracer sees exactly one engine run.
func TestOneRunServesClients(t *testing.T) {
	tr := obsv.NewTracer(1, 1<<16)
	a, err := AnalyzeSource("fig6.c", figure6, &Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Races(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Taint(); err != nil {
		t.Fatal(err)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("tracer dropped %d events; the span count below would be incomplete", d)
	}
	runs := 0
	for _, e := range tr.Events() {
		if e.Cat == obsv.CatPhase && e.Name == "analysis" {
			runs++
		}
	}
	if runs != 1 {
		t.Errorf("%d engine runs for one analysis and its three clients, want 1", runs)
	}
}
