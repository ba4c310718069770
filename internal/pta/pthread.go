package pta

import (
	"sort"

	"repro/internal/cc/ast"
	"repro/internal/obsv"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// Pthread intrinsic names recognized by the analysis (and by the race
// detector walking the SIMPLE IR).
const (
	PthreadCreate       = "pthread_create"
	PthreadJoin         = "pthread_join"
	PthreadExit         = "pthread_exit"
	PthreadMutexInit    = "pthread_mutex_init"
	PthreadMutexLock    = "pthread_mutex_lock"
	PthreadMutexUnlock  = "pthread_mutex_unlock"
	PthreadMutexDestroy = "pthread_mutex_destroy"
)

// pthreadNoop lists the pthread intrinsics with no effect on stack points-to
// relationships: lock operations touch only the mutex cell's integer state,
// join/exit only thread control state. (pthread_join's second argument could
// receive the thread's return pointer; like the other external models, that
// write is not tracked.)
var pthreadNoop = map[string]bool{
	PthreadJoin:         true,
	PthreadExit:         true,
	PthreadMutexInit:    true,
	PthreadMutexLock:    true,
	PthreadMutexUnlock:  true,
	PthreadMutexDestroy: true,
}

// processPthreadCall dispatches the modeled pthread intrinsics; ok is false
// when b calls none of them.
func (a *analyzer) processPthreadCall(b *simple.Basic, in ptset.Set, ign *invgraph.Node, tk obsv.Track) (ptset.Set, bool) {
	name := b.Callee.Name
	if name == PthreadCreate {
		return a.processPthreadCreate(b, in, ign, tk), true
	}
	if pthreadNoop[name] {
		return in, true
	}
	return ptset.Set{}, false
}

// threadEntries resolves pthread_create's third argument — the thread entry
// function pointer — to the functions it can denote, using the same strategy
// options as indirect call sites (paper §5): a function name resolves
// directly, anything else through its points-to targets.
func (a *analyzer) threadEntries(b *simple.Basic, in ptset.Set) []*simple.Function {
	if len(b.Args) < 4 {
		return nil
	}
	ref, ok := b.Args[2].(*simple.Ref)
	if !ok {
		return nil
	}
	seen := make(map[*simple.Function]bool)
	var targets []*simple.Function
	add := func(fn *simple.Function) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			targets = append(targets, fn)
		}
	}
	if ref.Var.Kind == ast.FuncObj {
		add(a.prog.Lookup(ref.Var.Name))
	} else {
		switch a.opts.FnPtr {
		case Precise:
			for _, ld := range a.llocs(ref, in) {
				in.RangeTargets(ld.l, func(t ptset.Triple) {
					if t.Dst.Kind == loc.Func {
						add(a.prog.Lookup(t.Dst.Obj.Name))
					}
				})
			}
		case AddrTaken:
			for _, fn := range a.prog.Functions {
				if fn.Obj.AddrTaken {
					add(fn)
				}
			}
		case AllFuncs:
			for _, fn := range a.prog.Functions {
				add(fn)
			}
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Name() < targets[j].Name() })
	return targets
}

// processPthreadCreate models pthread_create(&t, attr, fn, arg): fn is
// resolved through the points-to results to the possible thread entries, and
// each entry is analyzed as a pseudo-root invocation-graph subtree whose
// single argument is arg — the ordinary map/unmap machinery names everything
// the thread can reach from arg (and the globals) with invisible variables.
//
// The spawner continues concurrently with the thread, so at any later point
// of the caller the thread body may or may not have executed yet: the output
// is the caller's set merged with each thread's unmapped effects, which
// keeps the relationships common to both definite and weakens one-sided
// ones to possible.
func (a *analyzer) processPthreadCreate(b *simple.Basic, in ptset.Set, ign *invgraph.Node, tk obsv.Track) ptset.Set {
	targets := a.threadEntries(b, in)
	if len(targets) == 0 {
		a.diagf("%s: pthread_create entry has no known thread targets", b.Pos)
		return in
	}
	// The entry receives exactly one argument: pthread_create's fourth.
	// A synthetic one-argument call shape drives map/unmap; the real
	// statement b stays the invocation-graph site. No LHS: the thread's
	// return value is not delivered to the spawner here.
	synth := &simple.Basic{Kind: simple.AsgnCall, Args: []simple.Operand{b.Args[3]}, Pos: b.Pos}

	// Children are created serially in sorted entry order (like indirect
	// call fan-out) so the graph is identical for every worker count; the
	// subtrees then evaluate in parallel on the shared, unchanged input and
	// merge in index order.
	children := make([]*invgraph.Node, len(targets))
	for i, fn := range targets {
		children[i] = a.g.AddThreadChild(ign, b, fn)
	}
	outs := make([]ptset.Set, len(targets))
	a.runParallel(tk, len(targets), func(i int, tk obsv.Track) {
		outs[i] = a.invoke(children[i], synth, targets[i], in, tk)
	})
	out := in
	for _, o := range outs {
		out = ptset.Merge(out, o)
	}
	return out
}
