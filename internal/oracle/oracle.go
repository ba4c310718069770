// Package oracle checks the points-to analysis against concrete executions
// (Definition 3.3 of the paper): every pointer relationship observed by the
// interpreter must be covered by the computed points-to set, and a definite
// relationship claimed by the analysis between single locations must
// actually hold.
package oracle

import (
	"fmt"

	"repro/internal/cc/types"
	"repro/internal/interp"
	"repro/internal/pta"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/simple"
)

// abstractLocOpts maps a concrete address to its abstract stack location in
// the analysis's naming (heap objects collapse to the heap location;
// concrete index 0 is the array head, any other index the tail; with
// singleArray every index is the one array location). An index selector
// applied to a non-array cell — scalar pointer arithmetic — stays at the
// same abstract location, matching the analysis's within-object assumption.
func abstractLocOpts(tab *loc.Table, p interp.Pointer, singleArray bool) *loc.Location {
	if p.HeapID >= 0 {
		return tab.HeapLoc()
	}
	if p.Obj == nil {
		return nil
	}
	var elems []loc.Elem
	t := p.Obj.Type
	for _, s := range p.Path {
		if s.IsIdx {
			isArray := t != nil && t.Kind == types.Array
			if !isArray {
				continue // within-object pointer arithmetic on a scalar
			}
			if s.Idx == 0 && !singleArray {
				elems = append(elems, loc.HeadElem)
			} else {
				elems = append(elems, loc.TailElem)
			}
			t = t.Elem
		} else {
			elems = append(elems, loc.FieldElem(s.Field))
			if t != nil {
				if f := t.FieldByName(s.Field); f != nil {
					t = f.Type
				} else {
					t = nil
				}
			}
		}
	}
	return tab.VarLoc(p.Obj, elems)
}

// liveFact reports whether the fact's target still exists (pointers into
// returned frames are dangling; the abstraction legitimately drops them at
// unmap time and any use is undefined behaviour).
func liveFact(f interp.Fact) bool {
	if f.DstFn != nil || f.DstStr {
		return true
	}
	return f.Dst.Frame == nil || f.Dst.Frame.Alive
}

// abstractFact converts a concrete fact to abstract source and target using
// the analysis's array-abstraction setting.
func abstractFact(res *pta.Result, f interp.Fact) (src, dst *loc.Location) {
	tab := res.Table
	single := res.Opts.SingleArrayLoc
	src = abstractLocOpts(tab, f.Src, single)
	switch {
	case f.DstFn != nil:
		dst = tab.FuncLoc(f.DstFn)
	case f.DstStr:
		dst = tab.StrLoc()
	default:
		dst = abstractLocOpts(tab, f.Dst, single)
	}
	return src, dst
}

// CheckCovered verifies that every concrete fact is present in the
// points-to set (as D or P). ctx names the check in error messages.
func CheckCovered(res *pta.Result, s ptset.Set, facts []interp.Fact, ctx string) error {
	for _, f := range facts {
		if !liveFact(f) {
			continue
		}
		src, dst := abstractFact(res, f)
		if src == nil || dst == nil {
			continue
		}
		if _, ok := s.Lookup(src, dst); !ok {
			// A pointer to a freed heap object may be covered by either the
			// heap or the freed location: free(p) retargets only p's own
			// edge, so aliases keep (·,heap,·) — both namings stand for the
			// dead object.
			if f.DstFreed && dst.Kind == loc.Heap {
				if _, ok := s.Lookup(src, res.Table.FreedLoc()); ok {
					continue
				}
			}
			return fmt.Errorf("%s: unsound: concrete fact %s -> %s not covered (abstract (%s,%s))",
				ctx, f.Src, describeDst(f), src.Name(), dst.Name())
		}
	}
	return nil
}

// CheckDefinite verifies that every definite claim of the analysis whose
// source location corresponds to exactly one inspected concrete cell agrees
// with the concrete state: the cell must hold exactly the claimed target.
func CheckDefinite(res *pta.Result, s ptset.Set, facts []interp.Fact, ctx string) error {
	// Index the concrete facts by abstract source.
	bySource := make(map[*loc.Location][]interp.Fact)
	for _, f := range facts {
		if !liveFact(f) {
			continue
		}
		src, _ := abstractFact(res, f)
		if src != nil {
			bySource[src] = append(bySource[src], f)
		}
	}
	for src, fs := range bySource {
		if src.Multi() || len(fs) != 1 {
			continue // several concrete cells share the abstract name
		}
		_, dst := abstractFact(res, fs[0])
		if dst == nil || dst.Multi() {
			continue
		}
		for _, t := range s.Targets(src) {
			if t.Def != ptset.D || t.Dst.Multi() || t.Dst.Kind == loc.Null {
				continue
			}
			if t.Dst != dst {
				return fmt.Errorf("%s: spurious definite claim (%s,%s,D): concrete cell holds %s",
					ctx, src.Name(), t.Dst.Name(), dst.Name())
			}
		}
	}
	return nil
}

// RunAndCheck interprets the program and checks analysis coverage:
//   - at every basic statement executed at main depth, the statement's
//     annotation must cover the facts over globals and main's locals;
//   - at normal termination, MainOut must cover the final facts.
func RunAndCheck(res *pta.Result, prog *simple.Program, maxSteps int) error {
	ip := interp.New(prog)
	if maxSteps > 0 {
		ip.MaxSteps = maxSteps
	}
	var checkErr error
	mainDepthOnly := func(fr *interp.Frame) bool { return fr.Depth <= 1 }
	ip.Trace = func(b *simple.Basic, depth int) error {
		if depth != 1 || checkErr != nil {
			return nil
		}
		in, ok := res.Annots.At(b)
		if !ok {
			checkErr = fmt.Errorf("executed statement `%s` (%s) has no annotation", b, b.Pos)
			return checkErr
		}
		facts := ip.PointerFacts(mainDepthOnly)
		if err := CheckCovered(res, in, facts, fmt.Sprintf("at `%s` (%s)", b, b.Pos)); err != nil {
			checkErr = err
			return err
		}
		return nil
	}
	if _, err := ip.Run(); err != nil {
		if _, isExit := interp.ExitCode(err); !isExit {
			return fmt.Errorf("interpretation failed: %w", err)
		}
	}
	if checkErr != nil {
		return checkErr
	}
	// Final check against MainOut (globals + heap only: main's frame is
	// gone after Run returns).
	facts := ip.PointerFacts(func(*interp.Frame) bool { return false })
	if err := CheckCovered(res, res.MainOut, facts, "at exit of main"); err != nil {
		return err
	}
	return CheckDefinite(res, res.MainOut, facts, "at exit of main")
}

func describeDst(f interp.Fact) string {
	switch {
	case f.DstFn != nil:
		return "func " + f.DstFn.Name
	case f.DstStr:
		return "string literal"
	default:
		return f.Dst.String()
	}
}
