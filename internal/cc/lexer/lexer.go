// Package lexer tokenizes C-subset source text into token.Token values.
//
// The lexer supports the full token set used by the frontend: identifiers,
// integer/float/char/string literals, all operators and punctuation, and both
// comment styles. A tiny preprocessor handles `#define NAME value` object
// macros and strips any other directive lines (e.g. #include), which is
// enough for the self-contained benchmark programs this repository analyzes.
package lexer

import (
	"fmt"
	"strings"

	"repro/internal/cc/token"
)

// Error is a lexical error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans one source buffer.
type Lexer struct {
	file   string
	src    string
	off    int // byte offset of next rune
	line   int
	col    int
	errors []error

	macros   map[string][]token.Token // object-like #define bodies
	pend     []token.Token            // macro-expansion tokens still to return, next last
	active   []expansion              // expansions with tokens in pend, outermost first
	hidden   map[string]bool          // the names of the active expansions
	expanded int                      // tokens macro expansion has produced
}

// maxExpanded caps the tokens that macro expansion may produce in one
// lexer, so that a chain of macros each naming the next twice cannot grow
// the token stream exponentially.
const maxExpanded = 1 << 18

// expansion is one macro expansion whose tokens are still pending: those at
// index base and above in pend, which its body and the expansions of its
// tokens pushed.
type expansion struct {
	name string
	base int
}

// New returns a lexer over src; file is used in positions.
func New(file, src string) *Lexer {
	return &Lexer{
		file:   file,
		src:    src,
		line:   1,
		col:    1,
		macros: make(map[string][]token.Token),
		hidden: make(map[string]bool),
	}
}

// Errors returns lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errors }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errors = append(l.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekByteAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) nextByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	b := l.src[l.off]
	l.off++
	if b == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return b
}

func isDigit(b byte) bool  { return '0' <= b && b <= '9' }
func isHex(b byte) bool    { return isDigit(b) || ('a' <= b && b <= 'f') || ('A' <= b && b <= 'F') }
func isLetter(b byte) bool { return b == '_' || ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') }

// skipSpace consumes whitespace and comments; it reports preprocessor
// directive lines to handleDirective.
func (l *Lexer) skipSpace() {
	for {
		b := l.peekByte()
		switch {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			atLineStart := b == '\n'
			l.nextByte()
			if atLineStart && l.peekByte() == '#' {
				l.handleDirective()
			}
		case b == '#' && l.off == 0:
			l.handleDirective()
		case b == '/' && l.peekByteAt(1) == '/':
			for l.peekByte() != '\n' && l.peekByte() != 0 {
				l.nextByte()
			}
		case b == '/' && l.peekByteAt(1) == '*':
			pos := l.pos()
			l.nextByte()
			l.nextByte()
			closed := false
			for l.peekByte() != 0 {
				if l.peekByte() == '*' && l.peekByteAt(1) == '/' {
					l.nextByte()
					l.nextByte()
					closed = true
					break
				}
				l.nextByte()
			}
			if !closed {
				l.errorf(pos, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// handleDirective consumes a preprocessor line starting at '#'. Only
// object-like #define is interpreted; other directives are skipped.
func (l *Lexer) handleDirective() {
	l.nextByte() // '#'
	start := l.off
	for l.peekByte() != '\n' && l.peekByte() != 0 {
		l.nextByte()
	}
	line := strings.TrimSpace(l.src[start:l.off])
	if name, body, ok := parseDefine(line); ok {
		sub := New(l.file, body)
		var toks []token.Token
		for {
			t := sub.rawNext()
			if t.Kind == token.EOF {
				break
			}
			toks = append(toks, t)
		}
		l.macros[name] = toks
	}
}

// parseDefine extracts NAME and body from "define NAME body". Function-like
// macros (NAME immediately followed by '(') are ignored.
func parseDefine(line string) (name, body string, ok bool) {
	const kw = "define"
	if !strings.HasPrefix(line, kw) {
		return "", "", false
	}
	rest := strings.TrimLeft(line[len(kw):], " \t")
	i := 0
	for i < len(rest) && (isLetter(rest[i]) || isDigit(rest[i])) {
		i++
	}
	if i == 0 {
		return "", "", false
	}
	name = rest[:i]
	if i < len(rest) && rest[i] == '(' {
		return "", "", false // function-like macro: unsupported, skip
	}
	return name, strings.TrimSpace(rest[i:]), true
}

// Next returns the next token, applying macro expansion. Macro bodies may
// name other macros, but a token that an expansion produced never expands
// that macro again (C11 6.10.3.4). Once expansion would pass maxExpanded
// tokens, Next records an error at the macro's use and returns EOF from
// then on.
func (l *Lexer) Next() token.Token {
	for {
		// An expansion ends when pend holds no more tokens it produced.
		for n := len(l.active); n > 0 && l.active[n-1].base >= len(l.pend); n-- {
			delete(l.hidden, l.active[n-1].name)
			l.active = l.active[:n-1]
		}
		var t token.Token
		if n := len(l.pend); n > 0 {
			t = l.pend[n-1]
			l.pend = l.pend[:n-1]
		} else {
			t = l.rawNext()
		}
		if t.Kind != token.IDENT {
			return t
		}
		body, ok := l.macros[t.Text]
		if !ok || l.hidden[t.Text] {
			return t
		}
		if l.expanded += len(body); l.expanded > maxExpanded {
			l.errorf(t.Pos, "macro expansion exceeds %d tokens", maxExpanded)
			l.pend, l.off = nil, len(l.src)
			return token.Token{Kind: token.EOF, Pos: t.Pos}
		}
		// Queue the body, re-positioned at the use site.
		l.active = append(l.active, expansion{t.Text, len(l.pend)})
		l.hidden[t.Text] = true
		for i := len(body) - 1; i >= 0; i-- {
			bt := body[i]
			bt.Pos = t.Pos
			l.pend = append(l.pend, bt)
		}
	}
}

// rawNext scans one token with no macro expansion.
func (l *Lexer) rawNext() token.Token {
	l.skipSpace()
	pos := l.pos()
	b := l.peekByte()
	if b == 0 {
		return token.Token{Kind: token.EOF, Pos: pos}
	}

	switch {
	case isLetter(b):
		start := l.off
		for isLetter(l.peekByte()) || isDigit(l.peekByte()) {
			l.nextByte()
		}
		text := l.src[start:l.off]
		kind := token.Lookup(text)
		if kind == token.IDENT {
			return token.Token{Kind: token.IDENT, Pos: pos, Text: text}
		}
		return token.Token{Kind: kind, Pos: pos, Text: text}

	case isDigit(b) || (b == '.' && isDigit(l.peekByteAt(1))):
		return l.scanNumber(pos)

	case b == '\'':
		return l.scanChar(pos)

	case b == '"':
		return l.scanString(pos)
	}

	// Operators and punctuation.
	l.nextByte()
	two := func(next byte, k2, k1 token.Kind) token.Token {
		if l.peekByte() == next {
			l.nextByte()
			return token.Token{Kind: k2, Pos: pos}
		}
		return token.Token{Kind: k1, Pos: pos}
	}
	switch b {
	case '+':
		if l.peekByte() == '+' {
			l.nextByte()
			return token.Token{Kind: token.INC, Pos: pos}
		}
		return two('=', token.ADDASSIGN, token.ADD)
	case '-':
		switch l.peekByte() {
		case '-':
			l.nextByte()
			return token.Token{Kind: token.DEC, Pos: pos}
		case '>':
			l.nextByte()
			return token.Token{Kind: token.ARROW, Pos: pos}
		}
		return two('=', token.SUBASSIGN, token.SUB)
	case '*':
		return two('=', token.MULASSIGN, token.MUL)
	case '/':
		return two('=', token.QUOASSIGN, token.QUO)
	case '%':
		return two('=', token.REMASSIGN, token.REM)
	case '&':
		if l.peekByte() == '&' {
			l.nextByte()
			return token.Token{Kind: token.LAND, Pos: pos}
		}
		return two('=', token.ANDASSIGN, token.AND)
	case '|':
		if l.peekByte() == '|' {
			l.nextByte()
			return token.Token{Kind: token.LOR, Pos: pos}
		}
		return two('=', token.ORASSIGN, token.OR)
	case '^':
		return two('=', token.XORASSIGN, token.XOR)
	case '<':
		if l.peekByte() == '<' {
			l.nextByte()
			return two('=', token.SHLASSIGN, token.SHL)
		}
		return two('=', token.LEQ, token.LSS)
	case '>':
		if l.peekByte() == '>' {
			l.nextByte()
			return two('=', token.SHRASSIGN, token.SHR)
		}
		return two('=', token.GEQ, token.GTR)
	case '=':
		return two('=', token.EQL, token.ASSIGN)
	case '!':
		return two('=', token.NEQ, token.NOT)
	case '~':
		return token.Token{Kind: token.TILDE, Pos: pos}
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: pos}
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBRACK, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBRACK, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBRACE, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBRACE, Pos: pos}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: pos}
	case ';':
		return token.Token{Kind: token.SEMI, Pos: pos}
	case ':':
		return token.Token{Kind: token.COLON, Pos: pos}
	case '?':
		return token.Token{Kind: token.QUESTION, Pos: pos}
	case '.':
		if l.peekByte() == '.' && l.peekByteAt(1) == '.' {
			l.nextByte()
			l.nextByte()
			return token.Token{Kind: token.ELLIPSIS, Pos: pos}
		}
		return token.Token{Kind: token.DOT, Pos: pos}
	}
	l.errorf(pos, "illegal character %q", string(rune(b)))
	return token.Token{Kind: token.ILLEGAL, Pos: pos, Text: string(rune(b))}
}

func (l *Lexer) scanNumber(pos token.Pos) token.Token {
	start := l.off
	isFloat := false
	if l.peekByte() == '0' && (l.peekByteAt(1) == 'x' || l.peekByteAt(1) == 'X') {
		l.nextByte()
		l.nextByte()
		for isHex(l.peekByte()) {
			l.nextByte()
		}
	} else {
		for isDigit(l.peekByte()) {
			l.nextByte()
		}
		if l.peekByte() == '.' {
			isFloat = true
			l.nextByte()
			for isDigit(l.peekByte()) {
				l.nextByte()
			}
		}
		if b := l.peekByte(); b == 'e' || b == 'E' {
			isFloat = true
			l.nextByte()
			if b := l.peekByte(); b == '+' || b == '-' {
				l.nextByte()
			}
			for isDigit(l.peekByte()) {
				l.nextByte()
			}
		}
	}
	// Integer/float suffixes.
	for {
		switch l.peekByte() {
		case 'u', 'U', 'l', 'L':
			l.nextByte()
			continue
		case 'f', 'F':
			if isFloat {
				l.nextByte()
				continue
			}
		}
		break
	}
	text := l.src[start:l.off]
	kind := token.INTLIT
	if isFloat {
		kind = token.FLOATLIT
	}
	return token.Token{Kind: kind, Pos: pos, Text: text}
}

func (l *Lexer) scanChar(pos token.Pos) token.Token {
	l.nextByte() // opening quote
	var sb strings.Builder
	for {
		b := l.peekByte()
		if b == 0 || b == '\n' {
			l.errorf(pos, "unterminated character literal")
			break
		}
		if b == '\'' {
			l.nextByte()
			break
		}
		if b == '\\' {
			l.nextByte()
			sb.WriteByte(l.unescape(l.nextByte(), pos))
			continue
		}
		sb.WriteByte(l.nextByte())
	}
	text := sb.String()
	if len(text) != 1 {
		l.errorf(pos, "character literal must contain exactly one character")
		if text == "" {
			text = "\x00"
		}
	}
	return token.Token{Kind: token.CHARLIT, Pos: pos, Text: text[:1]}
}

func (l *Lexer) scanString(pos token.Pos) token.Token {
	l.nextByte() // opening quote
	var sb strings.Builder
	for {
		b := l.peekByte()
		if b == 0 || b == '\n' {
			l.errorf(pos, "unterminated string literal")
			break
		}
		if b == '"' {
			l.nextByte()
			break
		}
		if b == '\\' {
			l.nextByte()
			sb.WriteByte(l.unescape(l.nextByte(), pos))
			continue
		}
		sb.WriteByte(l.nextByte())
	}
	return token.Token{Kind: token.STRINGLIT, Pos: pos, Text: sb.String()}
}

func (l *Lexer) unescape(b byte, pos token.Pos) byte {
	switch b {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	case 'a':
		return 7
	case 'b':
		return 8
	case 'f':
		return 12
	case 'v':
		return 11
	}
	l.errorf(pos, "unknown escape sequence \\%c", b)
	return b
}

// Tokenize scans the whole buffer and returns all tokens including a final
// EOF token, plus any errors.
func Tokenize(file, src string) ([]token.Token, []error) {
	l := New(file, src)
	// C source runs about 2.5 to 5 bytes a token: sizing for 3 grows a
	// large slice of pointer-holding tokens once at most, instead of
	// clearing and copying it at every doubling.
	toks := make([]token.Token, 0, len(src)/3+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			break
		}
	}
	return toks, l.Errors()
}
