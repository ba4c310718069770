// Package ast defines the abstract syntax tree for the C subset. The parser
// produces a *resolved* AST: identifiers carry their *Object, expressions
// carry semantic types, and struct member accesses carry their *types.Field.
package ast

import (
	"repro/internal/cc/token"
	"repro/internal/cc/types"
)

// ObjKind classifies declared objects.
type ObjKind int

// Object kinds.
const (
	BadObj      ObjKind = iota
	Var                 // global or local variable
	Param               // function parameter
	FuncObj             // function
	EnumConst           // enumeration constant
	TypedefName         // typedef
)

func (k ObjKind) String() string {
	switch k {
	case Var:
		return "var"
	case Param:
		return "param"
	case FuncObj:
		return "func"
	case EnumConst:
		return "enum const"
	case TypedefName:
		return "typedef"
	}
	return "bad object"
}

// Object is a declared entity: variable, parameter, function, enum constant
// or typedef name.
type Object struct {
	Name   string
	Kind   ObjKind
	Type   *types.Type
	Pos    token.Pos
	Global bool
	Static bool

	EnumVal int64 // EnumConst value

	// AddrTaken records whether the program ever takes the object's
	// address (&x), or, for functions, mentions the function outside a
	// direct call. The address-taken function-pointer baseline uses it.
	AddrTaken bool

	// Def is the function definition for FuncObj objects (nil if the
	// function is only declared, e.g. a library stub).
	Def *FuncDecl
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is implemented by all expression nodes.
type Expr interface {
	Pos() token.Pos
	Type() *types.Type
	exprNode()
}

type exprBase struct {
	P token.Pos
	T *types.Type
}

func (e *exprBase) Pos() token.Pos    { return e.P }
func (e *exprBase) Type() *types.Type { return e.T }
func (*exprBase) exprNode()           {}

// Ident is a resolved identifier reference.
type Ident struct {
	exprBase
	Obj *Object
}

// IntLit is an integer constant (includes char literals and folded sizeof).
type IntLit struct {
	exprBase
	Val int64
}

// FloatLit is a floating constant.
type FloatLit struct {
	exprBase
	Val float64
}

// StringLit is a string constant.
type StringLit struct {
	exprBase
	Val string
}

// Unary is a prefix operator: & * + - ! ~ ++ --.
type Unary struct {
	exprBase
	Op token.Kind
	X  Expr
}

// Postfix is x++ or x--.
type Postfix struct {
	exprBase
	Op token.Kind // INC or DEC
	X  Expr
}

// Binary is a binary operator expression (arithmetic, relational, logical,
// bitwise, shifts).
type Binary struct {
	exprBase
	Op   token.Kind
	X, Y Expr
}

// Assign is an assignment expression, possibly compound (+=, …).
type Assign struct {
	exprBase
	Op  token.Kind // ASSIGN or a compound assignment kind
	LHS Expr
	RHS Expr
}

// Cond is the ternary conditional c ? a : b.
type Cond struct {
	exprBase
	C, Then, Else Expr
}

// Call is a function call. Fun is either an Ident naming a function, or a
// pointer-valued expression (indirect call); parenthesized (*fp)(…) parses
// to Fun = Unary{MUL, fp}.
type Call struct {
	exprBase
	Fun  Expr
	Args []Expr
}

// Index is x[i].
type Index struct {
	exprBase
	X, I Expr
}

// Member is x.f or x->f.
type Member struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
	Field *types.Field
}

// Cast is (T)x.
type Cast struct {
	exprBase
	X Expr
}

// Comma is x, y.
type Comma struct {
	exprBase
	X, Y Expr
}

// ---------------------------------------------------------------------------
// Initializers

// Init is an initializer: either a single expression or a brace list.
type Init struct {
	Pos  token.Pos
	Expr Expr    // non-nil for scalar initializers
	List []*Init // non-nil for brace lists
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Pos() token.Pos
	stmtNode()
}

type stmtBase struct{ P token.Pos }

func (s *stmtBase) Pos() token.Pos { return s.P }
func (*stmtBase) stmtNode()        {}

// ExprStmt is an expression statement.
type ExprStmt struct {
	stmtBase
	X Expr
}

// DeclStmt declares block-scope variables (with optional initializers).
type DeclStmt struct {
	stmtBase
	Objects []*Object
	Inits   []*Init // parallel to Objects; entries may be nil
}

// Block is a brace-enclosed statement list.
type Block struct {
	stmtBase
	List []Stmt
}

// If is if (Cond) Then [else Else].
type If struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// While is while (Cond) Body.
type While struct {
	stmtBase
	Cond Expr
	Body Stmt
}

// Do is do Body while (Cond);
type Do struct {
	stmtBase
	Body Stmt
	Cond Expr
}

// For is for (Init; Cond; Post) Body; any part may be nil.
type For struct {
	stmtBase
	Init Stmt // ExprStmt or DeclStmt or nil
	Cond Expr // nil means true
	Post Expr // nil for empty
	Body Stmt
}

// SwitchCase is one case (or default) arm of a switch.
type SwitchCase struct {
	Pos       token.Pos
	Vals      []int64 // constant case values; empty for default
	IsDefault bool
	Body      []Stmt // statements until the next case label
}

// Switch is switch (Tag) { cases… } with C fallthrough semantics.
type Switch struct {
	stmtBase
	Tag   Expr
	Cases []*SwitchCase
}

// Break is a break statement.
type Break struct{ stmtBase }

// Continue is a continue statement.
type Continue struct{ stmtBase }

// Return is return [X];
type Return struct {
	stmtBase
	X Expr // may be nil
}

// Goto is goto Label; (eliminated by the structurer before simplification).
type Goto struct {
	stmtBase
	Label string
}

// Label is Label: Stmt.
type Label struct {
	stmtBase
	Name string
	Stmt Stmt
}

// Empty is a lone semicolon.
type Empty struct{ stmtBase }

// ---------------------------------------------------------------------------
// Declarations and translation unit

// FuncDecl is a function definition.
type FuncDecl struct {
	Obj    *Object
	Params []*Object
	Body   *Block
	Pos    token.Pos

	// Locals lists every block-scope variable of the function, uniquely
	// renamed (shadowed names get a __N suffix) so that a name denotes at
	// most one stack location per function, as Property 3.1 of the paper
	// requires. The simplifier appends its temporaries here.
	Locals []*Object
}

// Name returns the function's name.
func (f *FuncDecl) Name() string { return f.Obj.Name }

// GlobalVar is a file-scope variable with its optional initializer.
type GlobalVar struct {
	Obj  *Object
	Init *Init // may be nil
}

// TranslationUnit is a parsed source file.
type TranslationUnit struct {
	File    string
	Globals []*GlobalVar
	Funcs   []*FuncDecl
	// FuncObjects maps names of all declared functions (defined or not)
	// to their objects, preserving declaration order in FuncOrder.
	FuncObjects map[string]*Object
	FuncOrder   []string
	SourceLines int
}

// Note: Expr and Stmt nodes expose their position and type through the
// promoted exported fields P and T of the embedded bases, so builders in
// other packages (parser, simplifier) construct a node and then assign
// node.P / node.T directly.
