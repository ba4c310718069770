package lexer

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cc/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, errs := Tokenize("test.c", src)
	if len(errs) > 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	out := make([]token.Kind, 0, len(toks))
	for _, tok := range toks {
		out = append(out, tok.Kind)
	}
	return out
}

func expectKinds(t *testing.T, src string, want ...token.Kind) {
	t.Helper()
	got := kinds(t, src)
	want = append(want, token.EOF)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKeywordsAndIdents(t *testing.T) {
	expectKinds(t, "int x while whilex",
		token.INT, token.IDENT, token.WHILE, token.IDENT)
}

func TestOperators(t *testing.T) {
	expectKinds(t, "+ ++ += - -- -= -> * *= / /= % %=",
		token.ADD, token.INC, token.ADDASSIGN,
		token.SUB, token.DEC, token.SUBASSIGN, token.ARROW,
		token.MUL, token.MULASSIGN, token.QUO, token.QUOASSIGN,
		token.REM, token.REMASSIGN)
	expectKinds(t, "<< <<= >> >>= < <= > >= == != = ! & && &= | || |= ^ ^= ~",
		token.SHL, token.SHLASSIGN, token.SHR, token.SHRASSIGN,
		token.LSS, token.LEQ, token.GTR, token.GEQ,
		token.EQL, token.NEQ, token.ASSIGN, token.NOT,
		token.AND, token.LAND, token.ANDASSIGN,
		token.OR, token.LOR, token.ORASSIGN,
		token.XOR, token.XORASSIGN, token.TILDE)
	expectKinds(t, "( ) [ ] { } , ; : ? . ...",
		token.LPAREN, token.RPAREN, token.LBRACK, token.RBRACK,
		token.LBRACE, token.RBRACE, token.COMMA, token.SEMI,
		token.COLON, token.QUESTION, token.DOT, token.ELLIPSIS)
}

func TestNumbers(t *testing.T) {
	toks, errs := Tokenize("t.c", "0 42 0x1F 1.5 1e3 2.5e-2 10L 3u 1.0f")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	wantKinds := []token.Kind{token.INTLIT, token.INTLIT, token.INTLIT,
		token.FLOATLIT, token.FLOATLIT, token.FLOATLIT,
		token.INTLIT, token.INTLIT, token.FLOATLIT, token.EOF}
	for i, w := range wantKinds {
		if toks[i].Kind != w {
			t.Errorf("token %d (%q): got %v, want %v", i, toks[i].Text, toks[i].Kind, w)
		}
	}
}

func TestCharAndString(t *testing.T) {
	toks, errs := Tokenize("t.c", `'a' '\n' '\\' "hi\tthere" ""`)
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	if toks[0].Text != "a" || toks[1].Text != "\n" || toks[2].Text != "\\" {
		t.Errorf("char literals wrong: %q %q %q", toks[0].Text, toks[1].Text, toks[2].Text)
	}
	if toks[3].Text != "hi\tthere" {
		t.Errorf("string literal wrong: %q", toks[3].Text)
	}
	if toks[4].Kind != token.STRINGLIT || toks[4].Text != "" {
		t.Errorf("empty string literal wrong: %v", toks[4])
	}
}

func TestComments(t *testing.T) {
	expectKinds(t, "a /* block\ncomment */ b // line\nc",
		token.IDENT, token.IDENT, token.IDENT)
}

func TestDirectivesSkipped(t *testing.T) {
	expectKinds(t, "#include <stdio.h>\nint x;\n#pragma foo\n",
		token.INT, token.IDENT, token.SEMI)
}

func TestObjectMacro(t *testing.T) {
	toks, errs := Tokenize("t.c", "#define N 24\nint a[N];")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	// int a [ 24 ] ;
	if toks[3].Kind != token.INTLIT || toks[3].Text != "24" {
		t.Errorf("macro not expanded: %v", toks[3])
	}
}

func TestMacroExpandsToExpression(t *testing.T) {
	toks, errs := Tokenize("t.c", "#define SZ (4 * 8)\nSZ")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	want := []token.Kind{token.LPAREN, token.INTLIT, token.MUL, token.INTLIT, token.RPAREN, token.EOF}
	for i, w := range want {
		if toks[i].Kind != w {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, w)
		}
	}
}

func TestNestedMacros(t *testing.T) {
	toks, errs := Tokenize("t.c", "#define N 8\n#define SQ (N * N)\nSQ")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	want := []token.Kind{token.LPAREN, token.INTLIT, token.MUL, token.INTLIT, token.RPAREN, token.EOF}
	for i, w := range want {
		if toks[i].Kind != w {
			t.Fatalf("token %d: got %v, want %v (nested macro must expand)", i, toks[i].Kind, w)
		}
	}
	if toks[1].Text != "8" {
		t.Errorf("inner macro not expanded: %q", toks[1].Text)
	}
}

func TestSelfReferentialMacroTerminates(t *testing.T) {
	// Pathological #define X X must not hang the lexer.
	toks, _ := Tokenize("t.c", "#define X X\nX")
	if len(toks) == 0 {
		t.Fatal("lexer returned no tokens")
	}
}

// tokenizeWithin tokenizes src and fails the test if that takes longer
// than d.
func tokenizeWithin(t *testing.T, d time.Duration, src string) ([]token.Token, []error) {
	t.Helper()
	type result struct {
		toks []token.Token
		errs []error
	}
	done := make(chan result, 1)
	go func() {
		toks, errs := Tokenize("t.c", src)
		done <- result{toks, errs}
	}()
	select {
	case r := <-done:
		return r.toks, r.errs
	case <-time.After(d):
		t.Fatalf("Tokenize did not return within %v", d)
		return nil, nil
	}
}

// texts renders tokens by their text, or by kind for those without one.
func texts(toks []token.Token) string {
	var parts []string
	for _, tok := range toks {
		if tok.Text != "" {
			parts = append(parts, tok.Text)
		} else {
			parts = append(parts, tok.Kind.String())
		}
	}
	return strings.Join(parts, " ")
}

// A macro whose body names the macro itself after another token: the name
// inside the body is not replaced again (C11 6.10.3.4), so tokenizing ends.
func TestSelfNamingMacroBody(t *testing.T) {
	toks, errs := tokenizeWithin(t, 5*time.Second, "#define A x A\nint main() { return A; }\n")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	got := texts(toks)
	if want := "int main ( ) { return x A ; } EOF"; got != want {
		t.Errorf("tokens %q, want %q", got, want)
	}
}

// A token never re-expands any macro it came from, however deep, while the
// same macro named again in the source expands again.
func TestMacroNotReexpanded(t *testing.T) {
	toks, errs := Tokenize("t.c", "#define A B\n#define B A+C\n#define C 1\nA A")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	if got, want := texts(toks), "A + 1 A + 1 EOF"; got != want {
		t.Errorf("tokens %q, want %q", got, want)
	}
}

// chainSource defines A0 as A1+A1, A1 as A2+A2, ..., A30 as 1 (612 bytes):
// A0 expands to 2^31-1 tokens.
func chainSource() string {
	var sb strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&sb, "#define A%d A%d+A%d\n", i, i+1, i+1)
	}
	sb.WriteString("#define A30 1\nint main() { return A0; }\n")
	return sb.String()
}

func TestMacroExpansionBudget(t *testing.T) {
	src := chainSource()
	toks, errs := tokenizeWithin(t, 5*time.Second, src)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "t.c:32:21: macro expansion exceeds") {
		t.Fatalf("errors %v, want one positioned budget error", errs)
	}
	if n := len(toks); n > len(src)+maxExpanded || toks[n-1].Kind != token.EOF {
		t.Errorf("%d tokens ending in %v, want at most %d ending in EOF", n, toks[n-1].Kind, len(src)+maxExpanded)
	}
}

func TestPositions(t *testing.T) {
	toks, _ := Tokenize("f.c", "a\n  b")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v, want 2:3", toks[1].Pos)
	}
}

func TestErrors(t *testing.T) {
	_, errs := Tokenize("t.c", "@")
	if len(errs) == 0 {
		t.Error("illegal character should report an error")
	}
	_, errs = Tokenize("t.c", `"unterminated`)
	if len(errs) == 0 {
		t.Error("unterminated string should report an error")
	}
	_, errs = Tokenize("t.c", "/* unterminated")
	if len(errs) == 0 {
		t.Error("unterminated comment should report an error")
	}
}
