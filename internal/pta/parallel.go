package pta

import (
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
// worker count. The scheduling itself is the work-stealing fork-join in
// schedule.go.

// runParallel evaluates task(0..n-1), concurrently when the analysis has a
// scheduler (Options.Workers > 1). The calling worker always contributes;
// unfinished branches are stealable by idle workers, and the call returns
// only when every branch has finished, with panics rethrown in index order
// (which keeps the stepsExceeded unwind deterministic and never leaks a
// running goroutine).
func (a *analyzer) runParallel(tk obsv.Track, n int, task func(i int, tk obsv.Track)) {
	if a.sched == nil || n <= 1 {
		for i := 0; i < n; i++ {
			task(i, tk)
		}
		return
	}
	a.sched.forkJoin(tk, n, task)
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
