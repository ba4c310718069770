package race_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cc/parser"
	"repro/internal/modref"
	"repro/internal/obsv"
	"repro/internal/pta"
	"repro/internal/race"
	"repro/internal/simplify"
	"repro/internal/testutil"
	"repro/pointsto"
)

func counts(diags []race.Diag) (errs, warns int) {
	for _, d := range diags {
		if d.Sev == race.Error {
			errs++
		} else {
			warns++
		}
	}
	return errs, warns
}

// TestFixtures runs the detector over every examples/race fixture pair: each
// seeded-race variant must report (errors for definite races, warnings for
// possible ones), and each _ok twin must be completely clean.
func TestFixtures(t *testing.T) {
	cases := []struct {
		file        string
		errs, warns int
	}{
		{"unprotected.c", 3, 0},
		{"unprotected_ok.c", 0, 0},
		{"mutex.c", 3, 0},
		{"mutex_ok.c", 0, 0},
		{"aliasmutex.c", 0, 3},
		{"aliasmutex_ok.c", 0, 0},
		{"threadarg.c", 1, 0},
		{"threadarg_ok.c", 0, 0},
		{"fnptr.c", 6, 0},
		{"fnptr_ok.c", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			a := testutil.AnalyzeFile(t, filepath.Join(testutil.FixtureDir("race"), tc.file))
			diags, err := a.Races()
			if err != nil {
				t.Fatal(err)
			}
			errs, warns := counts(diags)
			if errs != tc.errs || warns != tc.warns {
				t.Fatalf("got %d errors, %d warnings, want %d errors, %d warnings:\n%s",
					errs, warns, tc.errs, tc.warns, strings.Join(testutil.Render(diags), "\n"))
			}
		})
	}
}

// TestGoldenMessages pins the full diagnostic text of the simplest fixture,
// so message drift is deliberate.
func TestGoldenMessages(t *testing.T) {
	a := testutil.AnalyzeFile(t, filepath.Join(testutil.FixtureDir("race"), "threadarg.c"))
	diags, err := a.Races()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"threadarg.c:9:5: error: data-race: write of counter in thread worker " +
			"(spawned at threadarg.c:16:19) races with write of counter at " +
			"threadarg.c:17:5 in main (no common lock held)",
	}
	if got := testutil.Render(diags); !reflect.DeepEqual(got, want) {
		t.Fatalf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestMultiSpawnSelfRace: a spawn site inside a loop creates several
// instances of the same entry, so the thread's unprotected write races with
// itself in another instance; the lock-protected twin is clean.
func TestMultiSpawnSelfRace(t *testing.T) {
	raced := `
int g;
long t;
void *worker(void *arg) {
    g = g + 1;
    return 0;
}
int main(void) {
    int i;
    i = 0;
    while (i < 4) {
        pthread_create(&t, 0, worker, 0);
        i = i + 1;
    }
    return 0;
}
`
	diags := analyzeSrc(t, "multispawn.c", raced)
	if errs, _ := counts(diags); errs == 0 {
		t.Fatalf("expected self-race errors for loop-spawned thread, got:\n%s",
			strings.Join(testutil.Render(diags), "\n"))
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Msg, "races with itself in another instance") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a self-race diagnostic, got:\n%s", strings.Join(testutil.Render(diags), "\n"))
	}

	locked := `
int g;
pthread_mutex_t m;
long t;
void *worker(void *arg) {
    pthread_mutex_lock(&m);
    g = g + 1;
    pthread_mutex_unlock(&m);
    return 0;
}
int main(void) {
    int i;
    i = 0;
    while (i < 4) {
        pthread_create(&t, 0, worker, 0);
        i = i + 1;
    }
    return 0;
}
`
	if diags := analyzeSrc(t, "multispawn_ok.c", locked); len(diags) != 0 {
		t.Fatalf("locked loop-spawned thread should be clean, got:\n%s",
			strings.Join(testutil.Render(diags), "\n"))
	}
}

// TestPerContextAccesses: accesses are judged under each invocation's own
// input. bump writes through a pointer that is definite in the worker's
// call and possibly NULL in main's earlier call; judged under the merge of
// both, the worker's write would only possibly touch counter, and the
// definite race would drop to a warning.
func TestPerContextAccesses(t *testing.T) {
	diags := analyzeSrc(t, "ctxinput.c", `
int counter;
int other;
long t;
void bump(int *p) {
    *p = *p + 1;
}
void *worker(void *arg) {
    bump(&counter);
    return 0;
}
int main(int argc, char **argv) {
    int *q;
    q = 0;
    if (argc > 1)
        q = &other;
    bump(q);
    pthread_create(&t, 0, worker, 0);
    counter = 5;
    pthread_join(t, 0);
    return 0;
}
`)
	if errs, warns := counts(diags); errs != 2 || warns != 0 {
		t.Fatalf("want the worker's read and write of counter as 2 errors, got %d errors, %d warnings:\n%s",
			errs, warns, strings.Join(testutil.Render(diags), "\n"))
	}
}

func analyzeSrc(t *testing.T, name, src string) []race.Diag {
	t.Helper()
	a, err := pointsto.AnalyzeSource(name, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := a.Races()
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestDeterminism: race verdicts and the points-to fingerprint are
// bit-identical across worker counts, traced and untraced.
func TestDeterminism(t *testing.T) {
	files := []string{"unprotected.c", "mutex.c", "aliasmutex.c", "threadarg.c", "fnptr.c"}
	for _, file := range files {
		t.Run(file, func(t *testing.T) {
			path := filepath.Join("..", "..", "examples", "race", file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tu, err := parser.Parse(file, string(data))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := simplify.Simplify(tu)
			if err != nil {
				t.Fatal(err)
			}
			var baseDiags []string
			var baseFP string
			for _, workers := range []int{1, 2, 8} {
				for _, traced := range []bool{false, true} {
					opts := pta.Options{Workers: workers, RecordContexts: true}
					if traced {
						opts.Tracer = obsv.NewTracer(0, 0)
					}
					res, err := pta.Analyze(prog, opts)
					if err != nil {
						t.Fatal(err)
					}
					diags, err := race.Run(res, modref.Compute(res))
					if err != nil {
						t.Fatal(err)
					}
					got := testutil.Render(diags)
					fp := pta.Fingerprint(res)
					if baseFP == "" {
						baseDiags, baseFP = got, fp
						continue
					}
					if fp != baseFP {
						t.Errorf("workers=%d traced=%v: fingerprint differs from workers=1", workers, traced)
					}
					if !reflect.DeepEqual(got, baseDiags) {
						t.Errorf("workers=%d traced=%v: diagnostics differ:\ngot:  %s\nbase: %s",
							workers, traced, strings.Join(got, "\n"), strings.Join(baseDiags, "\n"))
					}
				}
			}
		})
	}
}

// TestNoThreadsNoDiags is the differential guard: any program without a
// pthread_create must yield zero race diagnostics — over the checker
// fixtures and the whole benchmark suite.
func TestNoThreadsNoDiags(t *testing.T) {
	checkDir := filepath.Join("..", "..", "examples", "check")
	entries, err := os.ReadDir(checkDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		a := testutil.AnalyzeFile(t, filepath.Join(checkDir, e.Name()))
		diags, err := a.Races()
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 0 {
			t.Errorf("%s: thread-free program produced race diagnostics:\n%s",
				e.Name(), strings.Join(testutil.Render(diags), "\n"))
		}
	}
	for _, name := range bench.Names() {
		src, err := bench.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := pointsto.AnalyzeSource(name+".c", src, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diags, err := a.Races()
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 0 {
			t.Errorf("bench %s: thread-free program produced race diagnostics:\n%s",
				name, strings.Join(testutil.Render(diags), "\n"))
		}
	}
}

// TestRunGuards: Run rejects results without per-context annotations or with
// shared contexts, matching package check.
func TestRunGuards(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "race", "unprotected.c"))
	if err != nil {
		t.Fatal(err)
	}
	tu, err := parser.Parse("unprotected.c", string(src))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := simplify.Simplify(tu)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := pta.Analyze(prog, pta.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := race.Run(plain, modref.Compute(plain)); err == nil {
		t.Error("Run accepted a result without recorded contexts")
	}
	shared, err := pta.Analyze(prog, pta.Options{Workers: 1, ShareContexts: true, RecordContexts: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := race.Run(shared, modref.Compute(shared)); err == nil {
		t.Error("Run accepted a result analyzed with ShareContexts")
	}
}

// TestControlFlowLocksets pins verdicts that the walk's loop and switch
// rules decide: main holds m around its write of g only on some paths, and
// the worker always holds m.
func TestControlFlowLocksets(t *testing.T) {
	const prologue = `int g;
pthread_mutex_t m;
long t;
void *worker(void *arg) {
    pthread_mutex_lock(&m);
    g = 1;
    pthread_mutex_unlock(&m);
    return 0;
}
int main(int argc, char **argv) {
    pthread_create(&t, 0, worker, 0);
`
	const possibly = "cf.c:6:5: warning: data-race: write of g in thread worker (spawned at cf.c:11:19) " +
		"races with write of g at %s in main (only possibly protected by a common lock)"
	for _, tc := range []struct {
		name, body, want string
	}{
		// The unlocking path continues: the back edge carries it to the
		// next pass's write.
		{"continue", `    int i;
    pthread_mutex_lock(&m);
    for (i = 0; i < argc; i++) {
        if (i == 1) {
            pthread_mutex_unlock(&m);
            continue;
        }
        g = 2;
    }
    return 0;
}`, fmt.Sprintf(possibly, "cf.c:19:9")},
		// The unlocking arm falls through into the writing one.
		{"switch fall-through", `    pthread_mutex_lock(&m);
    switch (argc) {
    case 1:
        pthread_mutex_unlock(&m);
    case 2:
        g = 2;
        break;
    }
    return 0;
}`, fmt.Sprintf(possibly, "cf.c:17:9")},
		// A do-while body runs before its first test: m is held.
		{"do-while", `    do {
        pthread_mutex_lock(&m);
    } while (argc < 0);
    g = 2;
    pthread_mutex_unlock(&m);
    return 0;
}`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := strings.Join(testutil.Render(analyzeSrc(t, "cf.c", prologue+tc.body)), "\n")
			if got != tc.want {
				t.Errorf("got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
