package pta

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/obsv"
)

// newForkJoinAnalyzer returns an analyzer with the fan-out state Analyze
// sets up at the given worker count, and nothing else.
func newForkJoinAnalyzer(workers int, tr *obsv.Tracer) *analyzer {
	a := &analyzer{m: obsv.NewMetrics(), tracer: tr, workers: workers}
	a.spare = make(chan obsv.Track, workers-1)
	for i := 1; i < workers; i++ {
		a.spare <- tr.NewTrack()
	}
	return a
}

// TestRunParallelRunsEveryIndexOnce checks the basic contract: every branch
// index runs exactly once, runParallel returns only after all have run, and
// every branch counts as a task.
func TestRunParallelRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		a := newForkJoinAnalyzer(workers, nil)
		const n = 200
		var ran [n]atomic.Int32
		a.runParallel(0, n, func(i int, tk obsv.Track) {
			ran[i].Add(1)
		})
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: branch %d ran %d times, want 1", workers, i, got)
			}
		}
		if got := a.m.SchedTasks.Load(); got != n {
			t.Errorf("workers=%d: SchedTasks = %d, want %d", workers, got, n)
		}
	}
}

// TestRunParallelNested drives three levels of nested fan-out — the shape
// of indirect calls inside if/else branches inside indirect calls — and
// checks that every leaf runs exactly once and nothing deadlocks.
func TestRunParallelNested(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		a := newForkJoinAnalyzer(workers, nil)
		var leaves atomic.Int64
		a.runParallel(0, 8, func(i int, tk obsv.Track) {
			a.runParallel(tk, 4, func(j int, tk obsv.Track) {
				a.runParallel(tk, 4, func(k int, tk obsv.Track) {
					leaves.Add(1)
				})
			})
		})
		if got := leaves.Load(); got != 8*4*4 {
			t.Fatalf("workers=%d: leaves = %d, want %d", workers, got, 8*4*4)
		}
	}
}

// TestRunParallelPanicIndexOrder checks that when several branches panic,
// the one with the lowest index is rethrown — the property the
// deterministic stepsExceeded unwind depends on.
func TestRunParallelPanicIndexOrder(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		a := newForkJoinAnalyzer(workers, nil)
		func() {
			defer func() {
				if r := recover(); r != "panic-3" {
					t.Errorf("workers=%d: recovered %v, want panic-3", workers, r)
				}
			}()
			a.runParallel(0, 10, func(i int, tk obsv.Track) {
				if i == 3 || i == 7 {
					panic("panic-" + string(rune('0'+i)))
				}
			})
			t.Errorf("workers=%d: runParallel did not rethrow", workers)
		}()
	}
}

// TestRunParallelBoundsInFlight checks, across a nested fan-out, that at
// most Workers branches run at once and that no two running branches share
// a trace track, which is what keeps the spans of each track nested.
func TestRunParallelBoundsInFlight(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		a := newForkJoinAnalyzer(workers, obsv.NewTracer(workers, 64))
		var inFlight atomic.Int32
		busy := make([]atomic.Bool, workers)
		leaf := func(tk obsv.Track) {
			if busy[tk].Swap(true) {
				t.Errorf("workers=%d: two running branches share track %d", workers, tk)
			}
			if n := inFlight.Add(1); n > int32(workers) {
				t.Errorf("workers=%d: %d branches ran at once", workers, n)
			}
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
			busy[tk].Store(false)
		}
		a.runParallel(0, 8, func(i int, tk obsv.Track) {
			a.runParallel(tk, 4, func(j int, tk obsv.Track) {
				a.runParallel(tk, 4, func(k int, tk obsv.Track) { leaf(tk) })
			})
		})
	}
}

// TestRunParallelFirstFanOutHandsOff checks that the first fan-out of a
// run with spare tracks always hands a branch to one: all spares are free
// then, so the hand-off does not depend on timing.
func TestRunParallelFirstFanOutHandsOff(t *testing.T) {
	const src = `
int a, b;
int *p;
int main(int c) {
	if (c) p = &a; else p = &b;
	return 0;
}
`
	for _, workers := range []int{2, 4, 8} {
		res := analyzeSrcOpts(t, src, Options{Workers: workers})
		if m := res.Metrics; m.SchedTasks != 2 || m.SchedSteals != 1 {
			t.Errorf("workers=%d: sched %d tasks, %d steals; want 2, 1",
				workers, m.SchedTasks, m.SchedSteals)
		}
	}
}

// TestRunParallelNoGoroutineOutlivesAnalyze aborts a parallel run through
// its step budget: the unwind must wait for every branch goroutine, so none
// is left once Analyze returns.
func TestRunParallelNoGoroutineOutlivesAnalyze(t *testing.T) {
	prog, err := bench.Load("livc")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := Analyze(prog, Options{Workers: 8, MaxSteps: 500}); err == nil {
		t.Fatal("run with a 500-step budget did not abort")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the aborted run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
