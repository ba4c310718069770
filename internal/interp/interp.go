// Package interp is a concrete interpreter for SIMPLE programs. It serves
// two purposes in the reproduction: it demonstrates that the benchmark
// programs are real, runnable workloads, and it acts as a soundness oracle
// for the points-to analysis — every pointer relationship observed during
// execution must be covered by the computed points-to sets (Definition 3.3).
package interp

import (
	"fmt"
	"strings"

	"repro/internal/cc/ast"
	"repro/internal/cc/token"
	"repro/internal/cc/types"
	"repro/internal/simple"
)

// CSel is one concrete selector: a field or an integer index.
type CSel struct {
	Field string
	Idx   int
	IsIdx bool
}

func (s CSel) String() string {
	if s.IsIdx {
		return fmt.Sprintf("[%d]", s.Idx)
	}
	return "." + s.Field
}

func pathKey(path []CSel) string {
	var sb strings.Builder
	for _, s := range path {
		sb.WriteString(s.String())
	}
	return sb.String()
}

// Pointer is a concrete address: a variable (in a specific frame) or a heap
// object, plus a selector path. The path's last index may be one past the
// end of an array (valid to form and compare, invalid to dereference).
type Pointer struct {
	Obj    *ast.Object // nil for heap objects
	Frame  *Frame      // nil for globals and heap
	HeapID int         // -1 for stack/global
	Path   []CSel
	Nil    bool
}

func (p Pointer) isNil() bool { return p.Nil }

func (p Pointer) String() string {
	if p.Nil {
		return "NULL"
	}
	if p.HeapID >= 0 {
		return fmt.Sprintf("heap#%d%s", p.HeapID, pathKey(p.Path))
	}
	return "&" + p.Obj.Name + pathKey(p.Path)
}

// Kind discriminates Value.
type Kind int

// Value kinds.
const (
	KInt Kind = iota
	KFloat
	KPtr
	KFunc
	KStr // string literal value (a pointer into immutable storage)
)

// Value is a concrete runtime value.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	P    Pointer
	Fn   *ast.Object
	S    string // KStr: literal contents
	Off  int    // KStr: offset within the literal

	// Taint is the shadow taint bit of the dynamic-taint oracle: set on
	// values produced by taint sources (getenv, read, argv, ...) and carried
	// through copies, arithmetic, loads and stores.
	Taint bool
}

func intVal(i int64) Value     { return Value{Kind: KInt, I: i} }
func floatVal(f float64) Value { return Value{Kind: KFloat, F: f} }
func nilPtr() Value            { return Value{Kind: KPtr, P: Pointer{Nil: true, HeapID: -1}} }

// truthy reports whether the value is nonzero.
func (v Value) truthy() bool {
	switch v.Kind {
	case KInt:
		return v.I != 0
	case KFloat:
		return v.F != 0
	case KPtr:
		return !v.P.isNil()
	case KFunc:
		return v.Fn != nil
	case KStr:
		return true
	}
	return false
}

func (v Value) asFloat() float64 {
	if v.Kind == KFloat {
		return v.F
	}
	return float64(v.I)
}

func (v Value) asInt() int64 {
	if v.Kind == KFloat {
		return int64(v.F)
	}
	return v.I
}

// cellEntry is one memory cell: its current value plus its own address
// (kept for fact enumeration by the soundness oracle).
type cellEntry struct {
	val  Value
	addr Pointer
}

// Frame is one function activation.
type Frame struct {
	Fn    *simple.Function
	Depth int
	Alive bool
	cells map[string]cellEntry
}

// Interp executes one program.
type Interp struct {
	Prog *simple.Program

	globals map[string]cellEntry
	heap    map[int]map[string]cellEntry
	heapN   int
	stack   []*Frame

	Out       strings.Builder
	steps     int
	MaxSteps  int
	randState int64

	// Trace, when non-nil, is invoked before every basic statement with
	// the current frame depth (1 = main). Returning an error aborts.
	Trace func(b *simple.Basic, depth int) error

	// OnValue, when non-nil, receives the value each copy, unary or binary
	// statement computes, before it is assigned (and coerced to the
	// destination's type).
	OnValue func(b *simple.Basic, v Value)

	// OnCall/OnReturn, when non-nil, bracket every call to a defined
	// function (externals excluded). OnCall receives the call statement
	// and the callee; the oracle uses the pair to walk the invocation
	// graph alongside the concrete stack.
	OnCall   func(b *simple.Basic, callee *simple.Function) error
	OnReturn func()

	// Args, when non-empty, synthesizes main's argc/argv: each string
	// becomes a NUL-terminated heap buffer whose characters carry the taint
	// bit (command-line input is attacker-controlled). With Args empty,
	// main's parameters are left unbound as before.
	Args []string

	// OnTaintSink, when non-nil, is invoked whenever tainted data reaches a
	// modeled sink during execution: a system/exec* argument, a strcpy/
	// strcat/sprintf source, a printf/sprintf format string, or an array
	// subscript. kind matches the static taint checker's diagnostic kinds.
	OnTaintSink func(kind string)
}

// New prepares an interpreter for prog.
func New(prog *simple.Program) *Interp {
	return &Interp{
		Prog:      prog,
		globals:   make(map[string]cellEntry),
		heap:      make(map[int]map[string]cellEntry),
		MaxSteps:  5_000_000,
		randState: 1,
	}
}

// Run executes global initializers and main, returning main's exit value.
func (ip *Interp) Run() (int64, error) {
	mainFn := ip.Prog.Main()
	if mainFn == nil {
		return 0, fmt.Errorf("interp: no main")
	}
	root := &Frame{Fn: mainFn, Depth: 0, Alive: true, cells: make(map[string]cellEntry)}
	ip.stack = append(ip.stack, root)
	if ip.Prog.GlobalInit != nil {
		if _, _, err := ip.execSeq(ip.Prog.GlobalInit); err != nil {
			return 0, err
		}
	}
	ip.stack = ip.stack[:0]
	v, err := ip.call(mainFn, ip.mainArgs(mainFn))
	if err != nil {
		return 0, err
	}
	return v.asInt(), nil
}

// mainArgs builds concrete argc/argv values from ip.Args: a heap vector of
// pointers to heap strings whose characters are tainted.
func (ip *Interp) mainArgs(mainFn *simple.Function) []Value {
	if len(ip.Args) == 0 || len(mainFn.Params) == 0 {
		return nil
	}
	args := []Value{intVal(int64(len(ip.Args)))}
	if len(mainFn.Params) < 2 {
		return args
	}
	vec := ip.heapN
	ip.heapN++
	ip.heap[vec] = make(map[string]cellEntry)
	for i, s := range ip.Args {
		str := ip.heapN
		ip.heapN++
		ip.heap[str] = make(map[string]cellEntry)
		for j := 0; j < len(s); j++ {
			v := intVal(int64(s[j]))
			v.Taint = true
			ip.store(Pointer{HeapID: str, Path: []CSel{{Idx: j, IsIdx: true}}}, v)
		}
		ip.store(Pointer{HeapID: str, Path: []CSel{{Idx: len(s), IsIdx: true}}}, intVal(0))
		ip.store(Pointer{HeapID: vec, Path: []CSel{{Idx: i, IsIdx: true}}},
			Value{Kind: KPtr, P: Pointer{HeapID: str, Path: []CSel{{Idx: 0, IsIdx: true}}}})
	}
	args = append(args, Value{Kind: KPtr, P: Pointer{HeapID: vec, Path: []CSel{{Idx: 0, IsIdx: true}}}})
	return args
}

type ctrl int

const (
	ctrlNormal ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type runtimeError struct{ msg string }

func (e *runtimeError) Error() string { return e.msg }

func (ip *Interp) errf(pos token.Pos, format string, args ...any) error {
	return &runtimeError{fmt.Sprintf("%s: %s", pos, fmt.Sprintf(format, args...))}
}

func (ip *Interp) frame() *Frame { return ip.stack[len(ip.stack)-1] }

// ---------------------------------------------------------------------------
// Cell access

// canonical collapses union-member selectors to the shared "$union" cell:
// union members overlap in storage, so reads and writes through any member
// must hit the same cell (matching the analysis's collapsed location).
func (ip *Interp) canonical(p Pointer) Pointer {
	if p.Nil || p.HeapID >= 0 || p.Obj == nil {
		return p
	}
	t := p.Obj.Type
	for i, s := range p.Path {
		if t == nil {
			return p
		}
		if s.IsIdx {
			d := t.Decay()
			if d.Kind != types.Pointer {
				return p
			}
			t = d.Elem
			continue
		}
		if t.Kind == types.Union {
			np := p
			np.Path = append(append([]CSel{}, p.Path[:i]...), CSel{Field: "$union"})
			return np
		}
		f := t.FieldByName(s.Field)
		if f == nil {
			return p
		}
		t = f.Type
	}
	return p
}

// cellStore returns the map and key addressing a pointer's cell.
func (ip *Interp) cellStore(p Pointer) (map[string]cellEntry, string, error) {
	switch {
	case p.Nil:
		return nil, "", &runtimeError{"nil pointer dereference"}
	case p.HeapID >= 0:
		h, ok := ip.heap[p.HeapID]
		if !ok {
			return nil, "", &runtimeError{"use of freed heap object"}
		}
		return h, pathKey(p.Path), nil
	case p.Frame != nil:
		if !p.Frame.Alive {
			return nil, "", &runtimeError{"dangling pointer into returned frame of " + p.Frame.Fn.Name()}
		}
		return p.Frame.cells, p.Obj.Name + pathKey(p.Path), nil
	default:
		return ip.globals, p.Obj.Name + pathKey(p.Path), nil
	}
}

// load reads a cell, synthesizing a typed zero for uninitialized memory.
func (ip *Interp) load(p Pointer) (Value, error) {
	p = ip.canonical(p)
	store, key, err := ip.cellStore(p)
	if err != nil {
		return Value{}, err
	}
	if e, ok := store[key]; ok {
		return e.val, nil
	}
	// Zero value by static type when known.
	t := ip.typeOfCell(p)
	if t != nil {
		switch {
		case t.IsFloat():
			return floatVal(0), nil
		case t.Decay().Kind == types.Pointer:
			return nilPtr(), nil
		}
	}
	return intVal(0), nil
}

func (ip *Interp) store(p Pointer, v Value) error {
	p = ip.canonical(p)
	store, key, err := ip.cellStore(p)
	if err != nil {
		return err
	}
	store[key] = cellEntry{val: v, addr: p}
	return nil
}

// typeOfCell computes the static type at a concrete cell, when derivable.
func (ip *Interp) typeOfCell(p Pointer) *types.Type {
	if p.HeapID >= 0 || p.Obj == nil {
		return nil
	}
	t := p.Obj.Type
	for _, s := range p.Path {
		if t == nil {
			return nil
		}
		if s.IsIdx {
			d := t.Decay()
			if d.Kind != types.Pointer {
				return nil
			}
			t = d.Elem
		} else {
			f := t.FieldByName(s.Field)
			if f == nil {
				return nil
			}
			t = f.Type
		}
	}
	return t
}

// varPointer builds the address of a variable in the current scope.
func (ip *Interp) varPointer(obj *ast.Object) Pointer {
	if obj.Global {
		return Pointer{Obj: obj, HeapID: -1}
	}
	return Pointer{Obj: obj, Frame: ip.frame(), HeapID: -1}
}

// extendPtr applies one concrete selector to an address.
func extendPtr(p Pointer, s CSel) Pointer {
	np := p
	np.Path = append(append([]CSel{}, p.Path...), s)
	return np
}

// ---------------------------------------------------------------------------
// Reference evaluation

// evalSels converts SIMPLE selectors to concrete ones by evaluating index
// operands. A nil-index selector (whole-array plumbing) is rejected here;
// callers that can expand it do so beforehand.
func (ip *Interp) evalSels(sels []simple.Sel, pos token.Pos) ([]CSel, error) {
	out := make([]CSel, 0, len(sels))
	for _, s := range sels {
		switch s.Kind {
		case simple.SelField:
			out = append(out, CSel{Field: s.Name})
		case simple.SelIndex:
			if s.Opnd == nil {
				if s.Index == simple.IdxZero {
					out = append(out, CSel{Idx: 0, IsIdx: true})
					continue
				}
				return nil, ip.errf(pos, "interp: whole-array selector in scalar context")
			}
			v, err := ip.evalOperand(s.Opnd, pos)
			if err != nil {
				return nil, err
			}
			if v.Taint && ip.OnTaintSink != nil {
				ip.OnTaintSink("tainted-index")
			}
			out = append(out, CSel{Idx: int(v.asInt()), IsIdx: true})
		}
	}
	return out, nil
}

// addrOfRef computes the address an lvalue reference denotes. The result
// is canonical (union members collapse), so stored pointer values compare
// correctly across overlapping members.
func (ip *Interp) addrOfRef(r *simple.Ref) (Pointer, error) {
	p, err := ip.addrOfRefRaw(r)
	if err != nil {
		return p, err
	}
	return ip.canonical(p), nil
}

func (ip *Interp) addrOfRefRaw(r *simple.Ref) (Pointer, error) {
	base := ip.varPointer(r.Var)
	sels, err := ip.evalSels(r.Path, r.Pos)
	if err != nil {
		return Pointer{}, err
	}
	for _, s := range sels {
		base = extendPtr(base, s)
	}
	if !r.Deref {
		return base, nil
	}
	pv, err := ip.load(base)
	if err != nil {
		return Pointer{}, err
	}
	if pv.Kind == KStr {
		return Pointer{}, ip.errf(r.Pos, "cannot write through a string literal")
	}
	if pv.Kind != KPtr || pv.P.isNil() {
		return Pointer{}, ip.errf(r.Pos, "dereference of non-pointer or NULL (%s)", r)
	}
	cur := pv.P
	dsels, err := ip.evalSels(r.DPath, r.Pos)
	if err != nil {
		return Pointer{}, err
	}
	for _, s := range dsels {
		if s.IsIdx {
			// Indexing a pointee of array type descends into the array;
			// otherwise it is pointer re-positioning within the array the
			// pointee lives in.
			if t := ip.typeOfCell(cur); t != nil && t.Kind == types.Array {
				cur = extendPtr(cur, s)
				continue
			}
			var aerr error
			cur, aerr = ptrAdd(cur, int64(s.Idx))
			if aerr != nil {
				return Pointer{}, ip.errf(r.Pos, "%v", aerr)
			}
		} else {
			cur = extendPtr(cur, s)
		}
	}
	return cur, nil
}

// ptrAdd implements pointer arithmetic: advance the last index of the path
// (or index a scalar target at offset 0).
func ptrAdd(p Pointer, k int64) (Pointer, error) {
	if p.isNil() {
		return p, &runtimeError{"arithmetic on NULL pointer"}
	}
	if n := len(p.Path); n > 0 && p.Path[n-1].IsIdx {
		np := p
		np.Path = append(append([]CSel{}, p.Path[:n-1]...),
			CSel{Idx: p.Path[n-1].Idx + int(k), IsIdx: true})
		return np, nil
	}
	if k == 0 {
		return p, nil
	}
	// &x + k for scalar x: form the address but remember the offset as an
	// index so that comparisons work; dereferencing out of range reads the
	// zero value (the benchmarks only use such pointers for comparisons).
	np := p
	np.Path = append(append([]CSel{}, p.Path...), CSel{Idx: int(k), IsIdx: true})
	return np, nil
}

// evalRef reads an rvalue reference.
func (ip *Interp) evalRef(r *simple.Ref) (Value, error) {
	// Reading through a char* that holds a string literal: s[i] or *s.
	if r.Deref {
		base := ip.varPointer(r.Var)
		sels, err := ip.evalSels(r.Path, r.Pos)
		if err != nil {
			return Value{}, err
		}
		for _, s := range sels {
			base = extendPtr(base, s)
		}
		pv, err := ip.load(base)
		if err != nil {
			return Value{}, err
		}
		if pv.Kind == KStr {
			off := pv.Off
			for _, s := range r.DPath {
				if s.Kind == simple.SelIndex {
					cs, err := ip.evalSels([]simple.Sel{s}, r.Pos)
					if err != nil {
						return Value{}, err
					}
					off += cs[0].Idx
				}
			}
			if off < 0 || off > len(pv.S) {
				return Value{}, ip.errf(r.Pos, "string literal read out of range")
			}
			if off == len(pv.S) {
				return intVal(0), nil
			}
			cv := intVal(int64(pv.S[off]))
			cv.Taint = pv.Taint
			return cv, nil
		}
	}
	addr, err := ip.addrOfRef(r)
	if err != nil {
		return Value{}, err
	}
	return ip.load(addr)
}

// evalOperand evaluates a simple operand.
func (ip *Interp) evalOperand(op simple.Operand, pos token.Pos) (Value, error) {
	switch op := op.(type) {
	case *simple.ConstInt:
		return intVal(op.Val), nil
	case *simple.ConstFloat:
		return floatVal(op.Val), nil
	case *simple.ConstString:
		return Value{Kind: KStr, S: op.Val}, nil
	case *simple.ConstNull:
		return nilPtr(), nil
	case *simple.Ref:
		if op.Var.Kind == ast.FuncObj && !op.Deref && len(op.Path) == 0 {
			return Value{Kind: KFunc, Fn: op.Var}, nil
		}
		return ip.evalRef(op)
	}
	return Value{}, ip.errf(pos, "interp: unknown operand %T", op)
}
