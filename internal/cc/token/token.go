// Package token defines the lexical tokens of the C subset accepted by the
// frontend, along with source positions.
package token

import (
	"cmp"
	"fmt"
	"strings"
)

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Keyword kinds are contiguous so the keyword table can be
// built by a range loop.
const (
	ILLEGAL Kind = iota
	EOF

	IDENT     // main
	INTLIT    // 12345
	FLOATLIT  // 1.25
	CHARLIT   // 'a'
	STRINGLIT // "abc"

	keywordBegin
	AUTO
	BREAK
	CASE
	CHAR
	CONST
	CONTINUE
	DEFAULT
	DO
	DOUBLE
	ELSE
	ENUM
	EXTERN
	FLOAT
	FOR
	GOTO
	IF
	INT
	LONG
	REGISTER
	RETURN
	SHORT
	SIGNED
	SIZEOF
	STATIC
	STRUCT
	SWITCH
	TYPEDEF
	UNION
	UNSIGNED
	VOID
	VOLATILE
	WHILE
	keywordEnd

	ADD    // +
	SUB    // -
	MUL    // *
	QUO    // /
	REM    // %
	AND    // &
	OR     // |
	XOR    // ^
	SHL    // <<
	SHR    // >>
	LAND   // &&
	LOR    // ||
	NOT    // !
	TILDE  // ~
	INC    // ++
	DEC    // --
	EQL    // ==
	NEQ    // !=
	LSS    // <
	GTR    // >
	LEQ    // <=
	GEQ    // >=
	ASSIGN // =

	ADDASSIGN // +=
	SUBASSIGN // -=
	MULASSIGN // *=
	QUOASSIGN // /=
	REMASSIGN // %=
	ANDASSIGN // &=
	ORASSIGN  // |=
	XORASSIGN // ^=
	SHLASSIGN // <<=
	SHRASSIGN // >>=

	LPAREN   // (
	RPAREN   // )
	LBRACK   // [
	RBRACK   // ]
	LBRACE   // {
	RBRACE   // }
	COMMA    // ,
	SEMI     // ;
	COLON    // :
	QUESTION // ?
	DOT      // .
	ARROW    // ->
	ELLIPSIS // ...
)

var kindNames = map[Kind]string{
	ILLEGAL:   "ILLEGAL",
	EOF:       "EOF",
	IDENT:     "identifier",
	INTLIT:    "integer literal",
	FLOATLIT:  "float literal",
	CHARLIT:   "character literal",
	STRINGLIT: "string literal",

	AUTO:     "auto",
	BREAK:    "break",
	CASE:     "case",
	CHAR:     "char",
	CONST:    "const",
	CONTINUE: "continue",
	DEFAULT:  "default",
	DO:       "do",
	DOUBLE:   "double",
	ELSE:     "else",
	ENUM:     "enum",
	EXTERN:   "extern",
	FLOAT:    "float",
	FOR:      "for",
	GOTO:     "goto",
	IF:       "if",
	INT:      "int",
	LONG:     "long",
	REGISTER: "register",
	RETURN:   "return",
	SHORT:    "short",
	SIGNED:   "signed",
	SIZEOF:   "sizeof",
	STATIC:   "static",
	STRUCT:   "struct",
	SWITCH:   "switch",
	TYPEDEF:  "typedef",
	UNION:    "union",
	UNSIGNED: "unsigned",
	VOID:     "void",
	VOLATILE: "volatile",
	WHILE:    "while",

	ADD:    "+",
	SUB:    "-",
	MUL:    "*",
	QUO:    "/",
	REM:    "%",
	AND:    "&",
	OR:     "|",
	XOR:    "^",
	SHL:    "<<",
	SHR:    ">>",
	LAND:   "&&",
	LOR:    "||",
	NOT:    "!",
	TILDE:  "~",
	INC:    "++",
	DEC:    "--",
	EQL:    "==",
	NEQ:    "!=",
	LSS:    "<",
	GTR:    ">",
	LEQ:    "<=",
	GEQ:    ">=",
	ASSIGN: "=",

	ADDASSIGN: "+=",
	SUBASSIGN: "-=",
	MULASSIGN: "*=",
	QUOASSIGN: "/=",
	REMASSIGN: "%=",
	ANDASSIGN: "&=",
	ORASSIGN:  "|=",
	XORASSIGN: "^=",
	SHLASSIGN: "<<=",
	SHRASSIGN: ">>=",

	LPAREN:   "(",
	RPAREN:   ")",
	LBRACK:   "[",
	RBRACK:   "]",
	LBRACE:   "{",
	RBRACE:   "}",
	COMMA:    ",",
	SEMI:     ";",
	COLON:    ":",
	QUESTION: "?",
	DOT:      ".",
	ARROW:    "->",
	ELLIPSIS: "...",
}

// String returns a printable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsAssignOp reports whether k is one of the assignment operators.
func (k Kind) IsAssignOp() bool {
	switch k {
	case ASSIGN, ADDASSIGN, SUBASSIGN, MULASSIGN, QUOASSIGN, REMASSIGN,
		ANDASSIGN, ORASSIGN, XORASSIGN, SHLASSIGN, SHRASSIGN:
		return true
	}
	return false
}

// BaseOp returns the underlying binary operator of a compound assignment
// (e.g. ADDASSIGN -> ADD). It returns ILLEGAL for plain ASSIGN and for
// non-assignment kinds.
func (k Kind) BaseOp() Kind {
	switch k {
	case ADDASSIGN:
		return ADD
	case SUBASSIGN:
		return SUB
	case MULASSIGN:
		return MUL
	case QUOASSIGN:
		return QUO
	case REMASSIGN:
		return REM
	case ANDASSIGN:
		return AND
	case ORASSIGN:
		return OR
	case XORASSIGN:
		return XOR
	case SHLASSIGN:
		return SHL
	case SHRASSIGN:
		return SHR
	}
	return ILLEGAL
}

var keywords = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := keywordBegin + 1; k < keywordEnd; k++ {
		m[kindNames[k]] = k
	}
	return m
}()

// Lookup maps an identifier spelling to its keyword kind, or IDENT if the
// spelling is not a keyword.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return IDENT
}

// Pos is a source position: file name, 1-based line and column.
type Pos struct {
	File string
	Line int
	Col  int
}

// String formats the position as file:line:col.
func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// IsValid reports whether the position carries line information.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Compare orders positions by file name, then line, then column, and
// returns -1, 0 or +1 as p sorts before, with or after o.
func (p Pos) Compare(o Pos) int {
	return cmp.Or(strings.Compare(p.File, o.File), cmp.Compare(p.Line, o.Line), cmp.Compare(p.Col, o.Col))
}

// Token is one lexical token with its position and literal text.
type Token struct {
	Kind Kind
	Pos  Pos
	Text string // literal text for IDENT and literal kinds
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, FLOATLIT, CHARLIT, STRINGLIT:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	}
	return t.Kind.String()
}
