package pta

import (
	"strconv"
	"sync"

	"repro/internal/obsv"
)

// Two program points fan out into independent invocation subtrees: the
// targets of an indirect call site (disjoint children of one invocation-
// graph node, plus pthread entry points) and the branches of an if
// statement (disjoint statement subtrees fed the same read-only input set).
// Everything the subtrees share — the location table, the invocation graph,
// annotations, recursion pending lists, diagnostics — is internally
// synchronized; all merges of subtree results happen in
// deterministic index order, so the analysis is bit-identical for every
// worker count.
//
// Branches run as plain goroutines on Go's scheduler. A run with W workers
// owns W-1 spare trace tracks (analyzer.spare); a goroutine may run a
// branch only while it holds one, which bounds the run to W goroutines at
// once and keeps the spans of each track properly nested. A goroutine that
// waits for its branches keeps its track, so a deep branch runs inline
// while no track is free: nothing rebalances it the way work stealing would.

// runParallel evaluates task(0..n-1) and returns only when every branch
// has finished. At Workers > 1, each branch but the last takes a free
// spare track and runs on a new goroutine that returns the track when it
// ends; when no track is free, and always for the last branch, the caller
// runs the branch inline on its own track. Panics are captured per branch
// and the first in index order is rethrown after the join, which keeps the
// stepsExceeded unwind deterministic and never leaks a running goroutine.
func (a *analyzer) runParallel(tk obsv.Track, n int, task func(i int, tk obsv.Track)) {
	if a.spare == nil || n <= 1 {
		for i := 0; i < n; i++ {
			task(i, tk)
		}
		return
	}
	a.m.SchedTasks.Add(int64(n))
	panics := make([]any, n)
	run := func(i int, tk obsv.Track) {
		defer func() { panics[i] = recover() }()
		task(i, tk)
	}
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		select {
		case st := <-a.spare:
			a.m.SchedSteals.Inc()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { a.spare <- st }()
				var sp obsv.Span
				if a.tracer != nil {
					sp = a.tracer.Begin(st, obsv.CatWorker, "task", strconv.Itoa(i))
				}
				run(i, st)
				sp.End()
			}()
		default:
			run(i, tk)
		}
	}
	run(n-1, tk)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// runBoth evaluates two independent tasks, possibly concurrently.
func (a *analyzer) runBoth(tk obsv.Track, f, g func(tk obsv.Track)) {
	a.runParallel(tk, 2, func(i int, tk obsv.Track) {
		if i == 0 {
			f(tk)
		} else {
			g(tk)
		}
	})
}
