package interp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cc/ast"
	"repro/internal/cc/token"
	"repro/internal/cc/types"
	"repro/internal/simple"
)

func (ip *Interp) execSeq(s *simple.Seq) (ctrl, Value, error) {
	if s == nil {
		return ctrlNormal, Value{}, nil
	}
	for _, c := range s.List {
		ct, v, err := ip.execStmt(c)
		if err != nil || ct != ctrlNormal {
			return ct, v, err
		}
	}
	return ctrlNormal, Value{}, nil
}

func (ip *Interp) execStmt(s simple.Stmt) (ctrl, Value, error) {
	ip.steps++
	if ip.steps > ip.MaxSteps {
		return ctrlNormal, Value{}, &runtimeError{"interp: step limit exceeded"}
	}
	switch s := s.(type) {
	case *simple.Basic:
		return ctrlNormal, Value{}, ip.execBasic(s)

	case *simple.Seq:
		return ip.execSeq(s)

	case *simple.If:
		b, err := ip.evalCond(s.Cond)
		if err != nil {
			return ctrlNormal, Value{}, err
		}
		if b {
			return ip.execSeq(s.Then)
		}
		if s.Else != nil {
			return ip.execSeq(s.Else)
		}
		return ctrlNormal, Value{}, nil

	case *simple.While:
		for {
			if ct, v, err := ip.execSeq(s.CondEval); err != nil || ct == ctrlReturn {
				return ct, v, err
			}
			b, err := ip.evalCond(s.Cond)
			if err != nil {
				return ctrlNormal, Value{}, err
			}
			if !b {
				return ctrlNormal, Value{}, nil
			}
			ct, v, err := ip.execSeq(s.Body)
			if err != nil || ct == ctrlReturn {
				return ct, v, err
			}
			if ct == ctrlBreak {
				return ctrlNormal, Value{}, nil
			}
		}

	case *simple.DoWhile:
		for {
			ct, v, err := ip.execSeq(s.Body)
			if err != nil || ct == ctrlReturn {
				return ct, v, err
			}
			if ct == ctrlBreak {
				return ctrlNormal, Value{}, nil
			}
			if ct, v, err := ip.execSeq(s.CondEval); err != nil || ct == ctrlReturn {
				return ct, v, err
			}
			b, err := ip.evalCond(s.Cond)
			if err != nil {
				return ctrlNormal, Value{}, err
			}
			if !b {
				return ctrlNormal, Value{}, nil
			}
		}

	case *simple.For:
		if ct, v, err := ip.execSeq(s.Init); err != nil || ct == ctrlReturn {
			return ct, v, err
		}
		for {
			if ct, v, err := ip.execSeq(s.CondEval); err != nil || ct == ctrlReturn {
				return ct, v, err
			}
			if s.Cond != nil {
				b, err := ip.evalCond(s.Cond)
				if err != nil {
					return ctrlNormal, Value{}, err
				}
				if !b {
					return ctrlNormal, Value{}, nil
				}
			}
			ct, v, err := ip.execSeq(s.Body)
			if err != nil || ct == ctrlReturn {
				return ct, v, err
			}
			if ct == ctrlBreak {
				return ctrlNormal, Value{}, nil
			}
			if ct2, v2, err := ip.execSeq(s.Post); err != nil || ct2 == ctrlReturn {
				return ct2, v2, err
			}
		}

	case *simple.Switch:
		tag, err := ip.evalOperand(s.Tag, s.Pos)
		if err != nil {
			return ctrlNormal, Value{}, err
		}
		tv := tag.asInt()
		start := -1
		dflt := -1
		for i, c := range s.Cases {
			if c.IsDefault {
				dflt = i
				continue
			}
			for _, cv := range c.Vals {
				if cv == tv {
					start = i
				}
			}
			if start >= 0 {
				break
			}
		}
		if start < 0 {
			start = dflt
		}
		if start < 0 {
			return ctrlNormal, Value{}, nil
		}
		for i := start; i < len(s.Cases); i++ {
			ct, v, err := ip.execSeq(s.Cases[i].Body)
			if err != nil || ct == ctrlReturn || ct == ctrlContinue {
				return ct, v, err
			}
			if ct == ctrlBreak {
				break
			}
		}
		return ctrlNormal, Value{}, nil

	case *simple.Break:
		return ctrlBreak, Value{}, nil
	case *simple.Continue:
		return ctrlContinue, Value{}, nil
	case *simple.Return:
		var v Value
		if s.X != nil {
			var err error
			v, err = ip.evalOperand(s.X, s.Pos)
			if err != nil {
				return ctrlNormal, Value{}, err
			}
		}
		return ctrlReturn, v, nil
	}
	return ctrlNormal, Value{}, fmt.Errorf("interp: unknown statement %T", s)
}

func (ip *Interp) evalCond(c *simple.Cond) (bool, error) {
	if c == nil {
		return true, nil
	}
	x, err := ip.evalOperand(c.X, token.Pos{})
	if err != nil {
		return false, err
	}
	if c.Y == nil {
		return x.truthy(), nil
	}
	y, err := ip.evalOperand(c.Y, token.Pos{})
	if err != nil {
		return false, err
	}
	v, err := ip.binop(c.Op, x, y, token.Pos{})
	if err != nil {
		return false, err
	}
	return v.truthy(), nil
}

// hasWholeArraySel reports whether a ref contains a synthesized nil-operand
// tail selector (aggregate copy plumbing).
func hasWholeArraySel(r *simple.Ref) bool {
	for _, s := range r.Path {
		if s.Kind == simple.SelIndex && s.Opnd == nil && s.Index != simple.IdxZero {
			return true
		}
	}
	for _, s := range r.DPath {
		if s.Kind == simple.SelIndex && s.Opnd == nil && s.Index != simple.IdxZero {
			return true
		}
	}
	return false
}

func (ip *Interp) execBasic(b *simple.Basic) error {
	if ip.Trace != nil {
		if err := ip.Trace(b, len(ip.stack)); err != nil {
			return err
		}
	}
	switch b.Kind {
	case simple.StmtNop:
		return nil

	case simple.AsgnCopy:
		if rx, ok := b.X.(*simple.Ref); ok && (hasWholeArraySel(b.LHS) || hasWholeArraySel(rx)) {
			return ip.execWholeArrayCopy(b, rx)
		}
		v, err := ip.evalOperand(b.X, b.Pos)
		if err != nil {
			return err
		}
		return ip.result(b, v)

	case simple.AsgnAddr:
		if b.Addr.Var.Kind == ast.FuncObj {
			return ip.assign(b.LHS, Value{Kind: KFunc, Fn: b.Addr.Var})
		}
		p, err := ip.addrOfRef(b.Addr)
		if err != nil {
			return err
		}
		return ip.assign(b.LHS, Value{Kind: KPtr, P: p})

	case simple.AsgnUnary:
		x, err := ip.evalOperand(b.X, b.Pos)
		if err != nil {
			return err
		}
		v, err := ip.unop(b.Op, x, b.Pos)
		if err != nil {
			return err
		}
		v.Taint = v.Taint || x.Taint
		return ip.result(b, v)

	case simple.AsgnBinary:
		x, err := ip.evalOperand(b.X, b.Pos)
		if err != nil {
			return err
		}
		y, err := ip.evalOperand(b.Y, b.Pos)
		if err != nil {
			return err
		}
		v, err := ip.binop(b.Op, x, y, b.Pos)
		if err != nil {
			return err
		}
		v.Taint = v.Taint || x.Taint || y.Taint
		return ip.result(b, v)

	case simple.AsgnMalloc:
		id := ip.heapN
		ip.heapN++
		ip.heap[id] = make(map[string]cellEntry)
		return ip.assign(b.LHS, Value{Kind: KPtr, P: Pointer{HeapID: id}})

	case simple.AsgnCall:
		return ip.execCall(b)

	case simple.AsgnCallInd:
		fpv, err := ip.load(ip.varPointer(b.FnPtr))
		if err != nil {
			return err
		}
		if fpv.Kind != KFunc || fpv.Fn == nil {
			return ip.errf(b.Pos, "indirect call through non-function value")
		}
		callee := ip.Prog.Lookup(fpv.Fn.Name)
		if callee == nil {
			return ip.errf(b.Pos, "indirect call to unknown function %s", fpv.Fn.Name)
		}
		args, err := ip.evalArgs(b)
		if err != nil {
			return err
		}
		if ip.OnCall != nil {
			if err := ip.OnCall(b, callee); err != nil {
				return err
			}
		}
		rv, err := ip.call(callee, args)
		if ip.OnReturn != nil {
			ip.OnReturn()
		}
		if err != nil {
			return err
		}
		if b.LHS != nil {
			return ip.assign(b.LHS, rv)
		}
		return nil
	}
	return ip.errf(b.Pos, "interp: unknown basic statement kind %d", b.Kind)
}

// result hands the value a copy, unary or binary statement computed to
// OnValue, then assigns it to the statement's left-hand side.
func (ip *Interp) result(b *simple.Basic, v Value) error {
	if ip.OnValue != nil {
		ip.OnValue(b, v)
	}
	return ip.assign(b.LHS, v)
}

// execWholeArrayCopy expands nil-operand tail selectors: the statement
// copies element 0 (head form) or every element >= 1 (tail form) of the
// array level in question, as emitted by the struct-assignment decomposer.
func (ip *Interp) execWholeArrayCopy(b *simple.Basic, rx *simple.Ref) error {
	// Determine the array length from the LHS type context.
	n := arrayLenAt(b.LHS)
	if n < 0 {
		n = arrayLenAt(rx)
	}
	if n < 0 {
		return ip.errf(b.Pos, "interp: cannot size whole-array copy")
	}
	for i := 1; i < n; i++ {
		lhs := withConcreteTail(b.LHS, i)
		src := withConcreteTail(rx, i)
		v, err := ip.evalRef(src)
		if err != nil {
			return err
		}
		if err := ip.assign(lhs, v); err != nil {
			return err
		}
	}
	return nil
}

// arrayLenAt finds the declared length of the array addressed by the ref's
// nil-operand tail selector.
func arrayLenAt(r *simple.Ref) int {
	t := r.Var.Type
	scan := func(sels []simple.Sel, t *types.Type) (*types.Type, int) {
		for _, s := range sels {
			if t == nil {
				return nil, -1
			}
			if s.Kind == simple.SelField {
				f := t.FieldByName(s.Name)
				if f == nil {
					return nil, -1
				}
				t = f.Type
				continue
			}
			if s.Opnd == nil && s.Index != simple.IdxZero {
				if t.Kind == types.Array {
					return t.Elem, t.Len
				}
				return nil, -1
			}
			d := t.Decay()
			if d.Kind != types.Pointer {
				return nil, -1
			}
			t = d.Elem
		}
		return t, -1
	}
	t2, n := scan(r.Path, t)
	if n >= 0 {
		return n
	}
	if r.Deref && t2 != nil {
		d := t2.Decay()
		if d.Kind == types.Pointer {
			_, n = scan(r.DPath, d.Elem)
			return n
		}
	}
	return -1
}

// withConcreteTail replaces the first nil-operand tail selector with a
// concrete index.
func withConcreteTail(r *simple.Ref, i int) *simple.Ref {
	nr := &simple.Ref{
		Var: r.Var, Deref: r.Deref, Pos: r.Pos,
		Path:  append([]simple.Sel{}, r.Path...),
		DPath: append([]simple.Sel{}, r.DPath...),
	}
	conv := func(sels []simple.Sel) bool {
		for k, s := range sels {
			if s.Kind == simple.SelIndex && s.Opnd == nil && s.Index != simple.IdxZero {
				sels[k].Opnd = &simple.ConstInt{Val: int64(i)}
				return true
			}
		}
		return false
	}
	if !conv(nr.Path) {
		conv(nr.DPath)
	}
	return nr
}

func (ip *Interp) assign(lhs *simple.Ref, v Value) error {
	if lhs == nil {
		return nil
	}
	addr, err := ip.addrOfRef(lhs)
	if err != nil {
		return err
	}
	// Coerce by destination type so int/float conversions behave. The taint
	// bit survives coercion: a narrowed or converted tainted value is still
	// attacker-derived.
	tn := v.Taint
	if t := ip.typeOfCell(addr); t != nil {
		switch {
		case t.IsFloat() && v.Kind == KInt:
			v = floatVal(float64(v.I))
		case t.IsInteger() && v.Kind == KFloat:
			v = intVal(int64(v.F))
		case t.Kind == types.Char && v.Kind == KInt:
			v = intVal(int64(int8(v.I)))
		}
	}
	v.Taint = tn
	return ip.store(addr, v)
}

func (ip *Interp) unop(op token.Kind, x Value, pos token.Pos) (Value, error) {
	switch op {
	case token.SUB:
		if x.Kind == KFloat {
			return floatVal(-x.F), nil
		}
		return intVal(-x.I), nil
	case token.NOT:
		if x.truthy() {
			return intVal(0), nil
		}
		return intVal(1), nil
	case token.TILDE:
		return intVal(^x.asInt()), nil
	}
	return Value{}, ip.errf(pos, "interp: unary %s unsupported", op)
}

func samePtrBase(a, b Pointer) bool {
	if a.Obj != b.Obj || a.Frame != b.Frame || a.HeapID != b.HeapID {
		return false
	}
	la, lb := len(a.Path), len(b.Path)
	n := la
	if lb < n {
		n = lb
	}
	for i := 0; i < n-1; i++ {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// ptrCompare orders two pointers into the same object by final index.
func ptrCompare(a, b Pointer) (int, bool) {
	if a.isNil() || b.isNil() {
		if a.isNil() && b.isNil() {
			return 0, true
		}
		return 0, false
	}
	if !samePtrBase(a, b) {
		return 0, false
	}
	ai, bi := 0, 0
	if n := len(a.Path); n > 0 && a.Path[n-1].IsIdx {
		ai = a.Path[n-1].Idx
	}
	if n := len(b.Path); n > 0 && b.Path[n-1].IsIdx {
		bi = b.Path[n-1].Idx
	}
	switch {
	case ai < bi:
		return -1, true
	case ai > bi:
		return 1, true
	}
	return 0, true
}

func (ip *Interp) binop(op token.Kind, x, y Value, pos token.Pos) (Value, error) {
	// Pointer comparisons and arithmetic. An integer 0 compared against a
	// pointer is the null pointer constant.
	if x.Kind == KPtr || y.Kind == KPtr {
		switch op {
		case token.EQL, token.NEQ, token.LAND, token.LOR:
			if x.Kind == KInt && x.I == 0 {
				x = nilPtr()
			}
			if y.Kind == KInt && y.I == 0 {
				y = nilPtr()
			}
		}
		if op == token.LAND || op == token.LOR {
			return boolVal((op == token.LAND && x.truthy() && y.truthy()) ||
				(op == token.LOR && (x.truthy() || y.truthy()))), nil
		}
		return ip.ptrBinop(op, x, y, pos)
	}
	if x.Kind == KFunc || y.Kind == KFunc {
		switch op {
		case token.EQL:
			return boolVal(x.Kind == y.Kind && x.Fn == y.Fn), nil
		case token.NEQ:
			return boolVal(!(x.Kind == y.Kind && x.Fn == y.Fn)), nil
		}
		return Value{}, ip.errf(pos, "interp: bad function-value operation %s", op)
	}
	if x.Kind == KStr || y.Kind == KStr {
		switch op {
		case token.EQL:
			return boolVal(x.Kind == y.Kind && x.S == y.S && x.Off == y.Off), nil
		case token.NEQ:
			return boolVal(!(x.Kind == y.Kind && x.S == y.S && x.Off == y.Off)), nil
		case token.ADD:
			// String literal + integer offset.
			s, o := x, y
			if y.Kind == KStr {
				s, o = y, x
			}
			ns := s
			ns.Off += int(o.asInt())
			return ns, nil
		}
		return Value{}, ip.errf(pos, "interp: bad string operation %s", op)
	}
	if x.Kind == KFloat || y.Kind == KFloat {
		a, b := x.asFloat(), y.asFloat()
		switch op {
		case token.ADD:
			return floatVal(a + b), nil
		case token.SUB:
			return floatVal(a - b), nil
		case token.MUL:
			return floatVal(a * b), nil
		case token.QUO:
			if b == 0 {
				return Value{}, ip.errf(pos, "float division by zero")
			}
			return floatVal(a / b), nil
		case token.EQL:
			return boolVal(a == b), nil
		case token.NEQ:
			return boolVal(a != b), nil
		case token.LSS:
			return boolVal(a < b), nil
		case token.GTR:
			return boolVal(a > b), nil
		case token.LEQ:
			return boolVal(a <= b), nil
		case token.GEQ:
			return boolVal(a >= b), nil
		}
		return Value{}, ip.errf(pos, "interp: bad float operation %s", op)
	}
	a, b := x.asInt(), y.asInt()
	switch op {
	case token.ADD:
		return intVal(a + b), nil
	case token.SUB:
		return intVal(a - b), nil
	case token.MUL:
		return intVal(a * b), nil
	case token.QUO:
		if b == 0 {
			return Value{}, ip.errf(pos, "integer division by zero")
		}
		return intVal(a / b), nil
	case token.REM:
		if b == 0 {
			return Value{}, ip.errf(pos, "integer modulo by zero")
		}
		return intVal(a % b), nil
	case token.SHL:
		return intVal(a << (uint64(b) & 63)), nil
	case token.SHR:
		return intVal(a >> (uint64(b) & 63)), nil
	case token.AND:
		return intVal(a & b), nil
	case token.OR:
		return intVal(a | b), nil
	case token.XOR:
		return intVal(a ^ b), nil
	case token.EQL:
		return boolVal(a == b), nil
	case token.NEQ:
		return boolVal(a != b), nil
	case token.LSS:
		return boolVal(a < b), nil
	case token.GTR:
		return boolVal(a > b), nil
	case token.LEQ:
		return boolVal(a <= b), nil
	case token.GEQ:
		return boolVal(a >= b), nil
	case token.LAND:
		return boolVal(a != 0 && b != 0), nil
	case token.LOR:
		return boolVal(a != 0 || b != 0), nil
	}
	return Value{}, ip.errf(pos, "interp: bad integer operation %s", op)
}

func (ip *Interp) ptrBinop(op token.Kind, x, y Value, pos token.Pos) (Value, error) {
	switch op {
	case token.ADD, token.SUB:
		p, o := x, y
		if y.Kind == KPtr && x.Kind != KPtr {
			p, o = y, x
		}
		if p.Kind == KPtr && o.Kind != KPtr {
			k := o.asInt()
			if op == token.SUB {
				k = -k
			}
			np, err := ptrAdd(p.P, k)
			if err != nil {
				return Value{}, ip.errf(pos, "%v", err)
			}
			return Value{Kind: KPtr, P: np}, nil
		}
		if op == token.SUB && x.Kind == KPtr && y.Kind == KPtr {
			c, ok := ptrCompare(x.P, y.P)
			if !ok {
				return Value{}, ip.errf(pos, "difference of unrelated pointers")
			}
			ai, bi := lastIdx(x.P), lastIdx(y.P)
			_ = c
			return intVal(int64(ai - bi)), nil
		}
	case token.EQL, token.NEQ:
		eq := false
		if x.Kind == KPtr && y.Kind == KPtr {
			if x.P.isNil() || y.P.isNil() {
				eq = x.P.isNil() && y.P.isNil()
			} else if c, ok := ptrCompare(x.P, y.P); ok {
				eq = c == 0 && len(x.P.Path) == len(y.P.Path)
			}
		}
		if op == token.EQL {
			return boolVal(eq), nil
		}
		return boolVal(!eq), nil
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
		if x.Kind == KPtr && y.Kind == KPtr {
			c, ok := ptrCompare(x.P, y.P)
			if !ok {
				return Value{}, ip.errf(pos, "comparison of unrelated pointers")
			}
			switch op {
			case token.LSS:
				return boolVal(c < 0), nil
			case token.GTR:
				return boolVal(c > 0), nil
			case token.LEQ:
				return boolVal(c <= 0), nil
			case token.GEQ:
				return boolVal(c >= 0), nil
			}
		}
	}
	return Value{}, ip.errf(pos, "interp: bad pointer operation %s", op)
}

func lastIdx(p Pointer) int {
	if n := len(p.Path); n > 0 && p.Path[n-1].IsIdx {
		return p.Path[n-1].Idx
	}
	return 0
}

func boolVal(b bool) Value {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

// ---------------------------------------------------------------------------
// Calls

func (ip *Interp) evalArgs(b *simple.Basic) ([]Value, error) {
	args := make([]Value, len(b.Args))
	for i, a := range b.Args {
		v, err := ip.evalOperand(a, b.Pos)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return args, nil
}

func (ip *Interp) execCall(b *simple.Basic) error {
	args, err := ip.evalArgs(b)
	if err != nil {
		return err
	}
	callee := ip.Prog.Lookup(b.Callee.Name)
	if callee == nil {
		rv, err := ip.builtin(b.Callee.Name, args, b.Pos)
		if err != nil {
			return err
		}
		if b.LHS != nil {
			return ip.assign(b.LHS, rv)
		}
		return nil
	}
	if ip.OnCall != nil {
		if err := ip.OnCall(b, callee); err != nil {
			return err
		}
	}
	rv, err := ip.call(callee, args)
	if ip.OnReturn != nil {
		ip.OnReturn()
	}
	if err != nil {
		return err
	}
	if b.LHS != nil {
		return ip.assign(b.LHS, rv)
	}
	return nil
}

func (ip *Interp) call(fn *simple.Function, args []Value) (Value, error) {
	if len(ip.stack) > 4096 {
		return Value{}, &runtimeError{"interp: call stack overflow"}
	}
	fr := &Frame{Fn: fn, Depth: len(ip.stack) + 1, Alive: true, cells: make(map[string]cellEntry)}
	for i, p := range fn.Params {
		if i < len(args) {
			fr.cells[p.Name] = cellEntry{
				val:  args[i],
				addr: Pointer{Obj: p, Frame: fr, HeapID: -1},
			}
		}
	}
	ip.stack = append(ip.stack, fr)
	ct, rv, err := ip.execSeq(fn.Body)
	fr.Alive = false
	ip.stack = ip.stack[:len(ip.stack)-1]
	if err != nil {
		return Value{}, err
	}
	if ct != ctrlReturn {
		rv = intVal(0)
	}
	return rv, nil
}

// ---------------------------------------------------------------------------
// Builtins

// readCString reads a NUL-terminated string through a pointer or literal.
func (ip *Interp) readCString(v Value) (string, error) {
	s, _, err := ip.readCStringT(v)
	return s, err
}

// readCStringT is readCString plus the accumulated taint of the characters
// read: a string is tainted if the holding value is, or if any character cell
// before the terminator carries the taint bit.
func (ip *Interp) readCStringT(v Value) (string, bool, error) {
	switch v.Kind {
	case KStr:
		if v.Off <= len(v.S) {
			return v.S[v.Off:], v.Taint, nil
		}
		return "", false, &runtimeError{"string literal offset out of range"}
	case KPtr:
		var sb strings.Builder
		taint := v.Taint
		p := v.P
		for i := 0; i < 1<<16; i++ {
			cv, err := ip.load(p)
			if err != nil {
				return "", false, err
			}
			c := cv.asInt()
			if c == 0 {
				return sb.String(), taint, nil
			}
			taint = taint || cv.Taint
			sb.WriteByte(byte(c))
			var aerr error
			p, aerr = ptrAdd(p, 1)
			if aerr != nil {
				return "", false, aerr
			}
		}
		return "", false, &runtimeError{"unterminated C string"}
	}
	return "", false, &runtimeError{"not a string value"}
}

// dataTaint reports whether a value or the string data it points to is
// tainted — the dynamic analogue of the static checker's data-taint join.
func (ip *Interp) dataTaint(v Value) bool {
	if v.Taint {
		return true
	}
	switch v.Kind {
	case KStr, KPtr:
		_, t, err := ip.readCStringT(v)
		return err == nil && t
	}
	return false
}

// sink fires the dynamic-taint hook.
func (ip *Interp) sink(kind string) {
	if ip.OnTaintSink != nil {
		ip.OnTaintSink(kind)
	}
}

func (ip *Interp) builtin(name string, args []Value, pos token.Pos) (Value, error) {
	switch name {
	case "printf", "sprintf":
		start := 0
		var dst Value
		if name == "sprintf" {
			if len(args) < 1 {
				return intVal(0), nil
			}
			dst = args[0]
			start = 1
		}
		if len(args) <= start {
			return intVal(0), nil
		}
		format, ftaint, err := ip.readCStringT(args[start])
		if err != nil {
			return Value{}, err
		}
		if ftaint {
			ip.sink("tainted-format")
		}
		dataTaint := false
		for _, a := range args[start+1:] {
			if ip.dataTaint(a) {
				dataTaint = true
			}
		}
		if name == "sprintf" && dataTaint {
			ip.sink("tainted-copy")
		}
		out, err := ip.formatC(format, args[start+1:])
		if err != nil {
			return Value{}, err
		}
		if name == "printf" {
			ip.Out.WriteString(out)
		} else if err := ip.writeCStringT(dst, out, ftaint || dataTaint); err != nil {
			return Value{}, err
		}
		return intVal(int64(len(out))), nil

	case "puts":
		s, err := ip.readCString(args[0])
		if err != nil {
			return Value{}, err
		}
		ip.Out.WriteString(s + "\n")
		return intVal(0), nil

	case "putchar":
		ip.Out.WriteByte(byte(args[0].asInt()))
		return args[0], nil

	case "getchar":
		return intVal(-1), nil // EOF

	case "free":
		if len(args) != 1 || args[0].Kind != KPtr {
			return Value{}, ip.errf(pos, "free: expected one pointer argument")
		}
		p := args[0].P
		if p.isNil() {
			return intVal(0), nil // free(NULL) is a no-op
		}
		if p.HeapID < 0 {
			return Value{}, ip.errf(pos, "free of non-heap pointer")
		}
		if _, live := ip.heap[p.HeapID]; !live {
			return Value{}, ip.errf(pos, "double free of heap object")
		}
		delete(ip.heap, p.HeapID)
		return intVal(0), nil

	case "strcpy", "strncpy", "strcat":
		if len(args) < 2 {
			return Value{}, ip.errf(pos, "%s: missing arguments", name)
		}
		src, staint, err := ip.readCStringT(args[1])
		if err != nil {
			return Value{}, err
		}
		if staint {
			ip.sink("tainted-copy")
		}
		dst := args[0]
		taint := staint
		if name == "strcat" {
			old, otaint, err := ip.readCStringT(dst)
			if err != nil {
				return Value{}, err
			}
			src = old + src
			taint = taint || otaint
		}
		if err := ip.writeCStringT(dst, src, taint); err != nil {
			return Value{}, err
		}
		return dst, nil

	case "strcmp":
		a, err := ip.readCString(args[0])
		if err != nil {
			return Value{}, err
		}
		bs, err := ip.readCString(args[1])
		if err != nil {
			return Value{}, err
		}
		return intVal(int64(strings.Compare(a, bs))), nil

	case "strlen":
		s, err := ip.readCString(args[0])
		if err != nil {
			return Value{}, err
		}
		return intVal(int64(len(s))), nil

	case "abs":
		v := args[0].asInt()
		if v < 0 {
			v = -v
		}
		return intVal(v), nil

	case "fabs":
		return floatVal(math.Abs(args[0].asFloat())), nil

	case "sqrt":
		return floatVal(math.Sqrt(args[0].asFloat())), nil

	case "rand":
		ip.randState = ip.randState*1103515245 + 12345
		return intVal((ip.randState >> 16) & 0x7fff), nil

	case "srand":
		ip.randState = args[0].asInt()
		return intVal(0), nil

	case "atoi":
		s, err := ip.readCString(args[0])
		if err != nil {
			return Value{}, err
		}
		n := int64(0)
		neg := false
		for i, c := range s {
			if i == 0 && c == '-' {
				neg = true
				continue
			}
			if c < '0' || c > '9' {
				break
			}
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
		return intVal(n), nil

	case "exit":
		return Value{}, &exitError{code: args[0].asInt()}

	// --- dynamic-taint oracle: sources ---

	case "getenv":
		// Model: every environment variable exists and is attacker-controlled.
		return Value{Kind: KStr, S: "T", Taint: true}, nil

	case "gets", "fgets":
		if len(args) < 1 {
			return Value{}, ip.errf(pos, "%s: missing arguments", name)
		}
		if err := ip.writeCStringT(args[0], "in", true); err != nil {
			return Value{}, err
		}
		return args[0], nil

	case "read", "recv":
		if len(args) < 2 {
			return Value{}, ip.errf(pos, "%s: missing arguments", name)
		}
		if err := ip.writeCStringT(args[1], "in", true); err != nil {
			return Value{}, err
		}
		return intVal(2), nil

	case "scanf", "fscanf", "sscanf":
		// Model: every %-conversion stores one tainted datum through the
		// corresponding pointer argument.
		skip := 1
		if name != "scanf" {
			skip = 2
		}
		for _, a := range args[skip:] {
			if a.Kind != KPtr || a.P.isNil() {
				continue
			}
			tv := intVal(1)
			tv.Taint = true
			if err := ip.store(a.P, tv); err != nil {
				return Value{}, err
			}
		}
		return intVal(int64(len(args) - skip)), nil

	// --- dynamic-taint oracle: sinks ---

	case "system", "popen":
		if len(args) >= 1 && ip.dataTaint(args[0]) {
			ip.sink("tainted-exec")
		}
		if name == "popen" {
			return nilPtr(), nil
		}
		return intVal(0), nil

	case "execl", "execv", "execvp":
		for _, a := range args {
			if ip.dataTaint(a) {
				ip.sink("tainted-exec")
				break
			}
		}
		return intVal(0), nil

	// --- dynamic-taint oracle: sanitizer ---

	case "sanitize":
		// Clears the taint bit of the pointed-to C string in place.
		if len(args) >= 1 && args[0].Kind == KPtr && !args[0].P.isNil() {
			p := args[0].P
			for i := 0; i < 1<<16; i++ {
				cv, err := ip.load(p)
				if err != nil {
					return Value{}, err
				}
				if cv.asInt() == 0 {
					break
				}
				cv.Taint = false
				if err := ip.store(p, cv); err != nil {
					return Value{}, err
				}
				p, err = ptrAdd(p, 1)
				if err != nil {
					return Value{}, err
				}
			}
		}
		return intVal(0), nil

	case "memset", "memcpy", "memmove", "calloc", "realloc":
		// calloc/realloc are rewritten to AsgnMalloc by the simplifier;
		// the rest are unused by the suite but accepted as no-ops.
		return intVal(0), nil
	}
	return Value{}, ip.errf(pos, "interp: unknown builtin %s", name)
}

// exitError unwinds the interpreter on exit().
type exitError struct{ code int64 }

func (e *exitError) Error() string { return fmt.Sprintf("exit(%d)", e.code) }

// writeCStringT writes a NUL-terminated string whose character cells carry
// the given taint bit (the terminator stays clean).
func (ip *Interp) writeCStringT(dst Value, s string, taint bool) error {
	if dst.Kind != KPtr {
		return &runtimeError{"write through non-pointer string destination"}
	}
	p := dst.P
	for i := 0; i < len(s); i++ {
		cv := intVal(int64(s[i]))
		cv.Taint = taint
		if err := ip.store(p, cv); err != nil {
			return err
		}
		var err error
		p, err = ptrAdd(p, 1)
		if err != nil {
			return err
		}
	}
	return ip.store(p, intVal(0))
}

// formatC implements the printf subset the suite uses.
func (ip *Interp) formatC(format string, args []Value) (string, error) {
	var sb strings.Builder
	ai := 0
	next := func() Value {
		if ai < len(args) {
			v := args[ai]
			ai++
			return v
		}
		return intVal(0)
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			sb.WriteByte(c)
			continue
		}
		i++
		// Skip width/precision.
		for i < len(format) && (format[i] == '-' || format[i] == '.' ||
			(format[i] >= '0' && format[i] <= '9')) {
			i++
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case 'd', 'i', 'u', 'x', 'o', 'l':
			if format[i] == 'l' && i+1 < len(format) {
				i++ // %ld
			}
			fmt.Fprintf(&sb, "%d", next().asInt())
		case 'c':
			sb.WriteByte(byte(next().asInt()))
		case 'f', 'g', 'e':
			fmt.Fprintf(&sb, "%g", next().asFloat())
		case 's':
			s, err := ip.readCString(next())
			if err != nil {
				return "", err
			}
			sb.WriteString(s)
		case '%':
			sb.WriteByte('%')
		default:
			sb.WriteByte(format[i])
		}
	}
	return sb.String(), nil
}

// ExitCode extracts the code from an exit() unwind, if err is one.
func ExitCode(err error) (int64, bool) {
	if e, ok := err.(*exitError); ok {
		return e.code, true
	}
	return 0, false
}
