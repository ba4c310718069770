package pta

import (
	"repro/internal/obsv"
	"repro/internal/pta/invgraph"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// basicKindNames gives low-cardinality span names for basic statements, so
// trace viewers can aggregate transfer-function time by statement shape.
var basicKindNames = [...]string{
	simple.AsgnCopy:    "copy",
	simple.AsgnAddr:    "addr",
	simple.AsgnUnary:   "unary",
	simple.AsgnBinary:  "binary",
	simple.AsgnMalloc:  "malloc",
	simple.AsgnCall:    "call",
	simple.AsgnCallInd: "call-indirect",
	simple.StmtNop:     "nop",
}

func basicKindName(k simple.BasicKind) string {
	if int(k) < len(basicKindNames) {
		return basicKindNames[k]
	}
	return "basic"
}

// processBasic implements process_basic_stmt of Figure 1, dispatching call
// statements to the interprocedural machinery.
func (a *analyzer) processBasic(b *simple.Basic, in ptset.Set, ign *invgraph.Node, tk obsv.Track) ptset.Set {
	a.step()
	if a.live != nil {
		in = a.demandPrune(b, in)
	}
	// The cardinality histogram's internal max doubles as the peak-set
	// gauge, so the hot path pays for one instrument, not two.
	a.m.Cardinality.Observe(int64(in.Len()))
	if a.live == nil {
		a.ann.Record(b, in, ign)
	} else if a.live.Seeded(b) {
		a.ann.Record(b, in, ign)
		a.m.DemandFactsKept.Add(int64(in.Len()))
	}
	if a.tracer != nil {
		sp := a.tracer.Begin(tk, obsv.CatBasic, basicKindName(b.Kind), b.Pos.String())
		defer sp.End()
	}

	switch b.Kind {
	case simple.AsgnCall:
		return a.processDirectCall(b, in, ign, tk)
	case simple.AsgnCallInd:
		return a.processIndirectCall(b, in, ign, tk)
	case simple.StmtNop:
		return in
	}

	if !isPointerStmt(b) {
		return in
	}
	return a.applyAssign(in, a.llocs(b.LHS, in), a.rlocs(b, in))
}

// applyAssign returns s after a pointer assignment in which L-locations lls
// receive the R-locations rls, by its kill/change/gen sets:
//
//	kill:   all relationships from definite, single L-locations
//	change: definite relationships from possible or multi L-locations
//	        become possible
//	gen:    every (L-location, R-location) pair; definite only when both
//	        derivations are definite and the source represents a single
//	        real location. (A definite relationship *to* a multi location
//	        such as a_tail is allowed — Table 1 gives &a[i>0] the R-set
//	        {(a_tail, D)} — because only source-side definiteness drives
//	        strong kills.)
func (a *analyzer) applyAssign(s ptset.Set, lls, rls []locD) ptset.Set {
	var killBuf, weakenBuf [4]*loc.Location
	var genBuf [16]ptset.Triple
	kill, weaken, gen := killBuf[:0], weakenBuf[:0], genBuf[:0]
	for _, p := range lls {
		if p.d == ptset.D && !p.l.Multi() && !a.opts.NoDefinite {
			kill = append(kill, p.l)
		} else {
			weaken = append(weaken, p.l)
		}
		for _, x := range rls {
			d := p.d.And(x.d)
			if p.l.Multi() || a.opts.NoDefinite {
				d = ptset.P
			}
			gen = append(gen, ptset.Triple{Src: p.l, Dst: x.l, Def: d})
		}
	}
	return s.Update(kill, weaken, gen)
}

// externalReturnsArg maps library functions that return one of their
// pointer arguments to the argument index (strcpy returns its destination,
// and so on). Other externals have no effect on stack points-to
// relationships.
var externalReturnsArg = map[string]int{
	"strcpy":  0,
	"strncpy": 0,
	"strcat":  0,
	"memcpy":  0,
	"memmove": 0,
	"memset":  0,
	"fgets":   0,
}

// ExternalReturnsArg reports whether the named external library function is
// modeled as returning one of its pointer arguments, and which one. Exposed
// so baseline analyses can model the same externals and stay comparable.
func ExternalReturnsArg(name string) (int, bool) {
	idx, ok := externalReturnsArg[name]
	return idx, ok
}

// processExternalCall models a call to a function with no body in the
// program (libc stubs). The modeled functions do not create or destroy
// stack points-to relationships except through their returned pointer —
// except free, which retargets heap relationships to the freed location.
func (a *analyzer) processExternalCall(b *simple.Basic, in ptset.Set) ptset.Set {
	if b.Callee.Name == "free" {
		return a.processFree(b, in)
	}
	if b.LHS == nil || !isPointerStmt(b) {
		return in
	}
	var rls []locD
	if idx, ok := externalReturnsArg[b.Callee.Name]; ok && idx < len(b.Args) {
		rls = a.rlocsOfOperand(b.Args[idx], in)
	} else {
		a.diagf("%s: call to external %s with pointer result treated as NULL",
			b.Pos, b.Callee.Name)
		rls = []locD{{a.tab.NullLoc(), ptset.P}}
	}
	return a.applyAssign(in, a.llocs(b.LHS, in), rls)
}

// processFree models free(p): every relationship (l, heap, d) where l is an
// L-location of the argument is retargeted to (l, freed, ·). When the
// argument definitely denotes a single location, the heap edge is killed
// outright (a strong update: after the call that pointer definitely no
// longer addresses live heap storage); otherwise the heap edge stays and a
// possible freed edge is added alongside it. Aliases of p are untouched —
// they still carry (·, heap, ·) edges, which keeps the abstraction sound for
// the live heap objects the single heap location also stands for.
func (a *analyzer) processFree(b *simple.Basic, in ptset.Set) ptset.Set {
	if len(b.Args) != 1 {
		return in
	}
	arg, ok := b.Args[0].(*simple.Ref)
	if !ok {
		return in
	}
	// A strong update kills the source and generates its edges again, the
	// heap ones retargeted to freed.
	freed := a.tab.FreedLoc()
	var kill []*loc.Location
	var gen []ptset.Triple
	for _, ld := range a.llocs(arg, in) {
		strong := ld.d == ptset.D && !ld.l.Multi() && !a.opts.NoDefinite
		if strong {
			kill = append(kill, ld.l)
		}
		in.RangeTargets(ld.l, func(t ptset.Triple) {
			switch {
			case t.Dst.Kind != loc.Heap:
				if strong {
					gen = append(gen, t)
				}
			case strong:
				gen = append(gen, ptset.Triple{Src: ld.l, Dst: freed, Def: t.Def})
			default:
				gen = append(gen, ptset.Triple{Src: ld.l, Dst: freed, Def: ptset.P})
			}
		})
	}
	return in.Update(kill, nil, gen)
}
