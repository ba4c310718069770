// Package simple defines the SIMPLE intermediate representation: the
// structured, compositional IR of the McCAT compiler that the points-to
// analysis runs on (paper §2).
//
// After simplification every *basic* statement has at most one level of
// pointer indirection per variable reference, call arguments are constants
// or variable names, and conditions are side-effect-free comparisons of
// simple operands. Control flow appears only as the compositional
// statements If, While, DoWhile, For and Switch (plus Break/Continue/Return)
// — unstructured gotos are eliminated by the structurer before
// simplification.
package simple

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/cc/ast"
	"repro/internal/cc/token"
	"repro/internal/cc/types"
)

// ---------------------------------------------------------------------------
// References

// IdxClass classifies an array subscript for the two-location array
// abstraction of the paper (§3.2): a[0] maps to a_head, a[k] with constant
// k>0 maps to a_tail, and a[i] with statically unknown i maps to both.
type IdxClass int

// Index classes.
const (
	IdxZero IdxClass = iota // constant index 0
	IdxPos                  // constant index > 0
	IdxAny                  // statically unknown index
)

func (c IdxClass) String() string {
	switch c {
	case IdxZero:
		return "[0]"
	case IdxPos:
		return "[k]"
	case IdxAny:
		return "[i]"
	}
	return "[?]"
}

// SelKind discriminates Sel.
type SelKind int

// Selector kinds.
const (
	SelField SelKind = iota
	SelIndex
)

// Sel is one selector applied to a location: a struct/union field or an
// array subscript (classified).
type Sel struct {
	Kind  SelKind
	Name  string   // SelField
	Index IdxClass // SelIndex

	// Opnd is the concrete subscript operand for SelIndex selectors. The
	// points-to analysis ignores it (it works on the Index class); the
	// concrete interpreter used as a soundness oracle evaluates it. It is
	// nil in selectors synthesized for whole-array operations (aggregate
	// copies, return-value plumbing), where IdxZero means element 0 and
	// IdxPos means every element beyond it.
	Opnd Operand
}

// FieldSel returns a field selector.
func FieldSel(name string) Sel { return Sel{Kind: SelField, Name: name} }

// IndexSel returns an index selector.
func IndexSel(c IdxClass) Sel { return Sel{Kind: SelIndex, Index: c} }

// IndexSelOp returns an index selector carrying its concrete operand.
func IndexSelOp(c IdxClass, op Operand) Sel { return Sel{Kind: SelIndex, Index: c, Opnd: op} }

func (s Sel) String() string {
	if s.Kind == SelField {
		return "." + s.Name
	}
	return s.Index.String()
}

// Ref is a variable reference in a basic statement. It names an abstract
// location chain with at most one level of indirection:
//
//	x, x.f, x.a[i]          Deref == false, Path selectors on the variable
//	*x, (*x).f, (*x)[i]     Deref == true, DPath selectors on the pointee
//	*(x.f)                  Deref == true with Path == [.f]
type Ref struct {
	Var   *ast.Object
	Path  []Sel // selectors applied to the variable itself
	Deref bool  // one level of indirection through the location Var.Path
	DPath []Sel // selectors applied to the pointee (only if Deref)
	Pos   token.Pos
}

// VarRef returns a plain variable reference.
func VarRef(v *ast.Object, pos token.Pos) *Ref { return &Ref{Var: v, Pos: pos} }

// Type computes the C type of the referenced value.
func (r *Ref) Type() *types.Type {
	t := r.Var.Type
	t = applySels(t, r.Path)
	if r.Deref {
		if t != nil {
			d := t.Decay()
			if d.Kind == types.Pointer {
				t = d.Elem
			}
		}
		t = applySels(t, r.DPath)
	}
	return t
}

func applySels(t *types.Type, sels []Sel) *types.Type {
	for _, s := range sels {
		if t == nil {
			return nil
		}
		switch s.Kind {
		case SelField:
			f := t.FieldByName(s.Name)
			if f == nil {
				return nil
			}
			t = f.Type
		case SelIndex:
			// Indexing an array descends to the element type; indexing a
			// non-array pointee ((*p)[i] where p points into an array of
			// T) merely re-positions within that array, leaving type T.
			if t.Kind == types.Array {
				t = t.Elem
			}
		}
	}
	return t
}

func (r *Ref) String() string {
	var sb strings.Builder
	base := r.Var.Name
	for _, s := range r.Path {
		base += s.String()
	}
	if !r.Deref {
		return base
	}
	if len(r.Path) > 0 {
		base = "(" + base + ")"
	}
	sb.WriteString("*" + base)
	if len(r.DPath) > 0 {
		inner := sb.String()
		sb.Reset()
		sb.WriteString("(" + inner + ")")
		for _, s := range r.DPath {
			sb.WriteString(s.String())
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Operands and values

// Operand is a simple operand: a reference or a constant.
type Operand interface {
	operand()
	String() string
}

// ConstInt is an integer constant operand.
type ConstInt struct{ Val int64 }

// ConstFloat is a floating constant operand.
type ConstFloat struct{ Val float64 }

// ConstString is a string-literal operand.
type ConstString struct{ Val string }

// ConstNull is the null pointer constant.
type ConstNull struct{}

func (*ConstInt) operand()    {}
func (*ConstFloat) operand()  {}
func (*ConstString) operand() {}
func (*ConstNull) operand()   {}
func (*Ref) operand()         {}

func (c *ConstInt) String() string    { return fmt.Sprintf("%d", c.Val) }
func (c *ConstFloat) String() string  { return fmt.Sprintf("%g", c.Val) }
func (c *ConstString) String() string { return fmt.Sprintf("%q", c.Val) }
func (*ConstNull) String() string     { return "NULL" }

// ---------------------------------------------------------------------------
// Basic statements

// BasicKind discriminates basic statements.
type BasicKind int

// Basic statement kinds. Together with the LHS shapes (direct or one-level
// indirect references) these realize the 15 basic statement forms of SIMPLE.
const (
	AsgnCopy    BasicKind = iota // lhs = opnd
	AsgnAddr                     // lhs = &ref
	AsgnUnary                    // lhs = op opnd
	AsgnBinary                   // lhs = opnd op opnd
	AsgnMalloc                   // lhs = malloc(opnd)   (also calloc/realloc)
	AsgnCall                     // [lhs =] f(opnds)
	AsgnCallInd                  // [lhs =] (*fp)(opnds)
	StmtNop                      // no effect (kept for positions)
)

// Basic is a basic (non-compositional) statement.
type Basic struct {
	ID   int // unique within the program; assigned by the simplifier
	Kind BasicKind
	Pos  token.Pos

	LHS *Ref // nil for value-discarding calls and StmtNop

	// Operands by kind:
	//   AsgnCopy:   X
	//   AsgnAddr:   Addr
	//   AsgnUnary:  Op, X
	//   AsgnBinary: Op, X, Y
	//   AsgnMalloc: X (size)
	//   AsgnCall:   Callee, Args
	//   AsgnCallInd: FnPtr, Args
	X, Y   Operand
	Op     token.Kind
	Addr   *Ref
	Callee *ast.Object // direct call target (FuncObj)
	FnPtr  *ast.Object // the scalar function-pointer variable
	Args   []Operand
}

func (b *Basic) stmtNode() {}

// Pos returns the statement's source position.
func (b *Basic) Position() token.Pos { return b.Pos }

func (b *Basic) String() string {
	lhs := ""
	if b.LHS != nil {
		lhs = b.LHS.String() + " = "
	}
	switch b.Kind {
	case AsgnCopy:
		return lhs + b.X.String()
	case AsgnAddr:
		return lhs + "&" + b.Addr.String()
	case AsgnUnary:
		return lhs + b.Op.String() + b.X.String()
	case AsgnBinary:
		return fmt.Sprintf("%s%s %s %s", lhs, b.X, b.Op, b.Y)
	case AsgnMalloc:
		return fmt.Sprintf("%smalloc(%s)", lhs, b.X)
	case AsgnCall:
		return fmt.Sprintf("%s%s(%s)", lhs, b.Callee.Name, operandList(b.Args))
	case AsgnCallInd:
		return fmt.Sprintf("%s(*%s)(%s)", lhs, b.FnPtr.Name, operandList(b.Args))
	case StmtNop:
		return "nop"
	}
	return "?"
}

func operandList(args []Operand) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// ---------------------------------------------------------------------------
// Compositional statements

// Stmt is a SIMPLE statement, basic or compositional.
type Stmt interface {
	stmtNode()
	Position() token.Pos
	String() string
}

// Seq is a statement sequence (block).
type Seq struct {
	List []Stmt
	Pos  token.Pos
}

// Cond is a simplified, side-effect-free condition: a comparison of two
// simple operands, or a truth test of one (Y == nil, Op == ILLEGAL).
type Cond struct {
	X  Operand
	Op token.Kind // relational operator, or ILLEGAL for truth test
	Y  Operand
}

func (c *Cond) String() string {
	if c == nil {
		return "1"
	}
	if c.Y == nil {
		return c.X.String()
	}
	return fmt.Sprintf("%s %s %s", c.X, c.Op, c.Y)
}

// If is the compositional conditional.
type If struct {
	Cond       *Cond
	Then, Else *Seq // Else may be nil
	Pos        token.Pos
}

// While is the compositional while loop. Complex conditions are simplified
// by the McCAT approach: side-effect statements needed to evaluate the
// condition are hoisted into CondEval, which executes before each test:
//
//	CondEval; while (Cond) { Body; CondEval }
type While struct {
	CondEval *Seq // may be empty
	Cond     *Cond
	Body     *Seq
	Pos      token.Pos
}

// DoWhile is the compositional do-while loop:
//
//	do { Body; CondEval } while (Cond)
type DoWhile struct {
	Body     *Seq
	CondEval *Seq // may be empty
	Cond     *Cond
	Pos      token.Pos
}

// For is the compositional for loop; Init and Post are statement sequences
// hoisted by the simplifier, Cond may be nil (infinite loop):
//
//	Init; CondEval; while (Cond) { Body; Post; CondEval }
//
// `continue` inside Body jumps to Post.
type For struct {
	Init     *Seq // may be empty
	CondEval *Seq // may be empty
	Cond     *Cond
	Post     *Seq // may be empty; `continue` jumps here
	Body     *Seq
	Pos      token.Pos
}

// SwitchCase is one arm of a Switch; fallthrough semantics are preserved.
type SwitchCase struct {
	Vals      []int64
	IsDefault bool
	Body      *Seq
}

// Switch is the compositional switch.
type Switch struct {
	Tag   Operand
	Cases []*SwitchCase
	Pos   token.Pos
}

// Break exits the innermost loop or switch.
type Break struct{ Pos token.Pos }

// Continue re-enters the innermost loop.
type Continue struct{ Pos token.Pos }

// Return exits the function; X is nil for void returns and is always a
// simple operand.
type Return struct {
	X   Operand
	Pos token.Pos
}

func (*Seq) stmtNode()      {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*DoWhile) stmtNode()  {}
func (*For) stmtNode()      {}
func (*Switch) stmtNode()   {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*Return) stmtNode()   {}

// Position implementations.
func (s *Seq) Position() token.Pos      { return s.Pos }
func (s *If) Position() token.Pos       { return s.Pos }
func (s *While) Position() token.Pos    { return s.Pos }
func (s *DoWhile) Position() token.Pos  { return s.Pos }
func (s *For) Position() token.Pos      { return s.Pos }
func (s *Switch) Position() token.Pos   { return s.Pos }
func (s *Break) Position() token.Pos    { return s.Pos }
func (s *Continue) Position() token.Pos { return s.Pos }
func (s *Return) Position() token.Pos   { return s.Pos }

func (s *Seq) String() string      { return "{...}" }
func (s *If) String() string       { return "if (" + s.Cond.String() + ") ..." }
func (s *While) String() string    { return "while (" + s.Cond.String() + ") ..." }
func (s *DoWhile) String() string  { return "do ... while (" + s.Cond.String() + ")" }
func (s *For) String() string      { return "for (...) ..." }
func (s *Switch) String() string   { return "switch (" + s.Tag.String() + ") ..." }
func (s *Break) String() string    { return "break" }
func (s *Continue) String() string { return "continue" }
func (s *Return) String() string {
	if s.X == nil {
		return "return"
	}
	return "return " + s.X.String()
}

// ---------------------------------------------------------------------------
// Functions and programs

// Function is one simplified function.
type Function struct {
	Obj    *ast.Object
	Params []*ast.Object
	Locals []*ast.Object // includes simplifier temporaries
	Body   *Seq
	Pos    token.Pos

	// RetVal is a pseudo-variable that receives the function's return
	// value; the simplifier emits "__retval = x" before each return of a
	// pointer-carrying value, and the interprocedural unmap step copies
	// its points-to relationships to the call-site LHS. Nil when the
	// function never returns pointer-carrying data.
	RetVal *ast.Object
}

// Name returns the function's name.
func (f *Function) Name() string { return f.Obj.Name }

// Program is a simplified translation unit.
type Program struct {
	File    string
	Globals []*ast.Object
	// GlobalInit holds assignments synthesized from global-variable
	// initializers; the analysis evaluates them before main's body.
	GlobalInit *Seq
	Functions  []*Function

	// funcByName indexes Functions. It is built once, on the first
	// Lookup: one program may back several concurrent analyses.
	indexOnce  sync.Once
	funcByName map[string]*Function

	// NumBasicStmts and NumStmts are statement counts used by Table 2.
	NumBasicStmts int
	NumStmts      int

	SourceLines int
}

// Lookup returns the function with the given name, or nil.
func (p *Program) Lookup(name string) *Function {
	p.indexOnce.Do(func() {
		p.funcByName = make(map[string]*Function, len(p.Functions))
		for _, f := range p.Functions {
			p.funcByName[f.Name()] = f
		}
	})
	return p.funcByName[name]
}

// Main returns the program's entry function, or nil if absent.
func (p *Program) Main() *Function { return p.Lookup("main") }

// WalkStmts visits every statement reachable from s in lexical order,
// descending into compositional statements (condition-evaluation sequences
// included).
func WalkStmts(s Stmt, f func(Stmt)) {
	switch s := s.(type) {
	case nil:
		return
	case *Basic:
		f(s)
	case *Seq:
		if s == nil {
			return
		}
		f(s)
		for _, c := range s.List {
			WalkStmts(c, f)
		}
	case *If:
		f(s)
		WalkStmts(s.Then, f)
		if s.Else != nil {
			WalkStmts(s.Else, f)
		}
	case *While:
		f(s)
		WalkStmts(s.CondEval, f)
		WalkStmts(s.Body, f)
	case *DoWhile:
		f(s)
		WalkStmts(s.Body, f)
		WalkStmts(s.CondEval, f)
	case *For:
		f(s)
		WalkStmts(s.Init, f)
		WalkStmts(s.CondEval, f)
		WalkStmts(s.Body, f)
		WalkStmts(s.Post, f)
	case *Switch:
		f(s)
		for _, c := range s.Cases {
			WalkStmts(c.Body, f)
		}
	default:
		f(s)
	}
}

// ForEachBasic visits every basic statement of the program, including the
// global initializer sequence, in lexical order.
func (p *Program) ForEachBasic(f func(*Basic)) {
	visit := func(s Stmt) {
		if b, ok := s.(*Basic); ok {
			f(b)
		}
	}
	if p.GlobalInit != nil {
		WalkStmts(p.GlobalInit, visit)
	}
	for _, fn := range p.Functions {
		WalkStmts(fn.Body, visit)
	}
}

// Refs returns the variable references appearing in a basic statement
// (left-hand side first when present).
func (b *Basic) Refs() []*Ref {
	var refs []*Ref
	add := func(op Operand) {
		if r, ok := op.(*Ref); ok && r != nil {
			refs = append(refs, r)
		}
	}
	if b.LHS != nil {
		refs = append(refs, b.LHS)
	}
	add(b.X)
	add(b.Y)
	if b.Addr != nil {
		refs = append(refs, b.Addr)
	}
	for _, a := range b.Args {
		add(a)
	}
	return refs
}

// CountStmts walks the whole program and fills in the statement counters.
func (p *Program) CountStmts() {
	p.NumBasicStmts, p.NumStmts = 0, 0
	count := func(s Stmt) {
		switch s := s.(type) {
		case *Basic:
			if s.Kind != StmtNop {
				p.NumBasicStmts++
				p.NumStmts++
			}
		case *Seq:
		default:
			p.NumStmts++
		}
	}
	for _, f := range p.Functions {
		WalkStmts(f.Body, count)
	}
	WalkStmts(p.GlobalInit, count)
}
