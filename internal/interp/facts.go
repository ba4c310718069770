package interp

import "repro/internal/cc/ast"

// Fact is one concrete points-to observation: the cell at Src currently
// holds the address Dst (or the function DstFn, for function pointers).
type Fact struct {
	Src      Pointer
	Dst      Pointer     // valid when DstFn == nil and !DstStr
	DstFn    *ast.Object // non-nil for function-pointer cells
	DstStr   bool        // the cell holds a string-literal pointer
	DstFreed bool        // Dst addresses a heap object that has been freed
}

// PointerFacts enumerates every pointer-valued cell currently visible:
// globals, the heap, and the live frames accepted by includeFrame (nil
// accepts all).
func (ip *Interp) PointerFacts(includeFrame func(*Frame) bool) []Fact {
	var out []Fact
	collect := func(cells map[string]cellEntry) {
		for _, e := range cells {
			switch e.val.Kind {
			case KPtr:
				if !e.val.P.isNil() {
					f := Fact{Src: e.addr, Dst: e.val.P}
					if p := e.val.P; p.HeapID >= 0 {
						if _, live := ip.heap[p.HeapID]; !live {
							f.DstFreed = true
						}
					}
					out = append(out, f)
				}
			case KFunc:
				if e.val.Fn != nil {
					out = append(out, Fact{Src: e.addr, DstFn: e.val.Fn})
				}
			case KStr:
				out = append(out, Fact{Src: e.addr, DstStr: true})
			}
		}
	}
	collect(ip.globals)
	for _, h := range ip.heap {
		collect(h)
	}
	for _, fr := range ip.stack {
		if fr.Alive && (includeFrame == nil || includeFrame(fr)) {
			collect(fr.cells)
		}
	}
	return out
}

// Steps reports how many statements have executed.
func (ip *Interp) Steps() int { return ip.steps }
