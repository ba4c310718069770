// Package parser implements a recursive-descent parser for the C subset.
// It resolves identifiers against lexical scopes, tracks typedef names (the
// classic lexer-feedback problem), and types every expression, producing the
// resolved AST defined in package ast.
package parser

import (
	"fmt"
	"strings"

	"repro/internal/cc/ast"
	"repro/internal/cc/lexer"
	"repro/internal/cc/token"
	"repro/internal/cc/types"
)

// Error is a parse or type error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// scope is one lexical scope level.
type scope struct {
	objects map[string]*ast.Object
	tags    map[string]*types.Type
	parent  *scope
}

func newScope(parent *scope) *scope {
	return &scope{objects: make(map[string]*ast.Object), tags: make(map[string]*types.Type), parent: parent}
}

func (s *scope) lookup(name string) *ast.Object {
	for sc := s; sc != nil; sc = sc.parent {
		if obj, ok := sc.objects[name]; ok {
			return obj
		}
	}
	return nil
}

func (s *scope) lookupTag(name string) *types.Type {
	for sc := s; sc != nil; sc = sc.parent {
		if t, ok := sc.tags[name]; ok {
			return t
		}
	}
	return nil
}

// Parser holds parsing state for one translation unit.
type Parser struct {
	toks   []token.Token
	i      int
	errors []error

	fileScope *scope
	cur       *scope

	unit *ast.TranslationUnit

	// Per-function state.
	curFunc    *ast.FuncDecl
	localNames map[string]int // base name -> count, for unique renaming

	// paramNames records the parameter names parsed for each function
	// type node, so a function definition can bind its parameters even
	// when the declarator nests the list inside parentheses (e.g. a
	// function returning a function pointer).
	paramNames map[*types.Type][]string

	// externOnly holds the globals no declaration so far has defined: their
	// type may stay incomplete, since this unit gives them no storage.
	externOnly map[*ast.Object]bool
}

// Parse parses the given source as one translation unit.
func Parse(file, src string) (*ast.TranslationUnit, error) {
	toks, lexErrs := lexer.Tokenize(file, src)
	p := &Parser{toks: toks, paramNames: make(map[*types.Type][]string), externOnly: make(map[*ast.Object]bool)}
	p.errors = append(p.errors, lexErrs...)
	p.fileScope = newScope(nil)
	p.cur = p.fileScope
	p.unit = &ast.TranslationUnit{
		File:        file,
		FuncObjects: make(map[string]*ast.Object),
		SourceLines: strings.Count(src, "\n") + 1,
	}
	p.declareBuiltins()
	p.parseUnit()
	if len(p.errors) > 0 {
		return p.unit, p.errorSummary()
	}
	return p.unit, nil
}

func (p *Parser) errorSummary() error {
	const maxShown = 10
	var sb strings.Builder
	for i, e := range p.errors {
		if i == maxShown {
			fmt.Fprintf(&sb, "... and %d more errors", len(p.errors)-maxShown)
			break
		}
		if i > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(e.Error())
	}
	return fmt.Errorf("%s", sb.String())
}

// declareBuiltins registers the tiny libc surface the benchmarks use.
// malloc/calloc are recognized specially by the simplifier; the rest are
// opaque externals with no points-to effect on stack locations.
func (p *Parser) declareBuiltins() {
	voidp := types.PointerTo(types.VoidType)
	charp := types.PointerTo(types.CharType)
	decl := func(name string, t *types.Type) {
		obj := &ast.Object{Name: name, Kind: ast.FuncObj, Type: t, Global: true}
		p.fileScope.objects[name] = obj
		// Builtins are not added to FuncObjects: they have no bodies and
		// the analysis treats calls to them as opaque.
		_ = obj
	}
	decl("malloc", types.FuncType(voidp, []*types.Type{types.LongType}, false))
	decl("calloc", types.FuncType(voidp, []*types.Type{types.LongType, types.LongType}, false))
	decl("realloc", types.FuncType(voidp, []*types.Type{voidp, types.LongType}, false))
	decl("free", types.FuncType(types.VoidType, []*types.Type{voidp}, false))
	decl("printf", types.FuncType(types.IntType, []*types.Type{charp}, true))
	decl("sprintf", types.FuncType(types.IntType, []*types.Type{charp, charp}, true))
	decl("scanf", types.FuncType(types.IntType, []*types.Type{charp}, true))
	decl("puts", types.FuncType(types.IntType, []*types.Type{charp}, false))
	decl("putchar", types.FuncType(types.IntType, []*types.Type{types.IntType}, false))
	decl("getchar", types.FuncType(types.IntType, nil, false))
	decl("strcpy", types.FuncType(charp, []*types.Type{charp, charp}, false))
	decl("strcmp", types.FuncType(types.IntType, []*types.Type{charp, charp}, false))
	decl("strlen", types.FuncType(types.LongType, []*types.Type{charp}, false))
	decl("memset", types.FuncType(voidp, []*types.Type{voidp, types.IntType, types.LongType}, false))
	decl("memcpy", types.FuncType(voidp, []*types.Type{voidp, voidp, types.LongType}, false))
	decl("abs", types.FuncType(types.IntType, []*types.Type{types.IntType}, false))
	decl("exit", types.FuncType(types.VoidType, []*types.Type{types.IntType}, false))
	decl("rand", types.FuncType(types.IntType, nil, false))
	decl("srand", types.FuncType(types.VoidType, []*types.Type{types.IntType}, false))
	decl("sqrt", types.FuncType(types.DoubleType, []*types.Type{types.DoubleType}, false))
	decl("fabs", types.FuncType(types.DoubleType, []*types.Type{types.DoubleType}, false))
	decl("atoi", types.FuncType(types.IntType, []*types.Type{charp}, false))
	decl("strcat", types.FuncType(charp, []*types.Type{charp, charp}, false))
	decl("strncpy", types.FuncType(charp, []*types.Type{charp, charp, types.LongType}, false))
	decl("memmove", types.FuncType(voidp, []*types.Type{voidp, voidp, types.LongType}, false))

	// The input/exec surface the taint client models: sources that hand the
	// program attacker-controlled bytes, sinks that hand program data to the
	// shell, and a generic sanitizer the default taint table recognizes.
	decl("getenv", types.FuncType(charp, []*types.Type{charp}, false))
	decl("gets", types.FuncType(charp, []*types.Type{charp}, false))
	decl("fgets", types.FuncType(charp, []*types.Type{charp, types.IntType, voidp}, false))
	decl("read", types.FuncType(types.LongType, []*types.Type{types.IntType, voidp, types.LongType}, false))
	decl("recv", types.FuncType(types.LongType, []*types.Type{types.IntType, voidp, types.LongType, types.IntType}, false))
	decl("system", types.FuncType(types.IntType, []*types.Type{charp}, false))
	decl("popen", types.FuncType(voidp, []*types.Type{charp, charp}, false))
	decl("execl", types.FuncType(types.IntType, []*types.Type{charp}, true))
	decl("execv", types.FuncType(types.IntType, []*types.Type{charp, types.PointerTo(charp)}, false))
	decl("execvp", types.FuncType(types.IntType, []*types.Type{charp, types.PointerTo(charp)}, false))
	decl("sanitize", types.FuncType(types.VoidType, []*types.Type{charp}, false))

	// The pthread surface the race detector models. pthread_t and
	// pthread_mutex_t are opaque handles; integers are enough for the
	// analysis, which only tracks the locations the handles live in.
	typedef := func(name string, t *types.Type) {
		p.fileScope.objects[name] = &ast.Object{Name: name, Kind: ast.TypedefName, Type: t, Global: true}
	}
	typedef("pthread_t", types.LongType)
	typedef("pthread_mutex_t", types.IntType)
	threadFn := types.PointerTo(types.FuncType(voidp, []*types.Type{voidp}, false))
	decl("pthread_create", types.FuncType(types.IntType,
		[]*types.Type{types.PointerTo(types.LongType), voidp, threadFn, voidp}, false))
	decl("pthread_join", types.FuncType(types.IntType, []*types.Type{types.LongType, types.PointerTo(voidp)}, false))
	decl("pthread_exit", types.FuncType(types.VoidType, []*types.Type{voidp}, false))
	mutexp := types.PointerTo(types.IntType)
	decl("pthread_mutex_init", types.FuncType(types.IntType, []*types.Type{mutexp, voidp}, false))
	decl("pthread_mutex_lock", types.FuncType(types.IntType, []*types.Type{mutexp}, false))
	decl("pthread_mutex_unlock", types.FuncType(types.IntType, []*types.Type{mutexp}, false))
	decl("pthread_mutex_destroy", types.FuncType(types.IntType, []*types.Type{mutexp}, false))
}

// ---------------------------------------------------------------------------
// Token plumbing

func (p *Parser) tok() token.Token { return p.toks[p.i] }
func (p *Parser) kind() token.Kind { return p.toks[p.i].Kind }
func (p *Parser) pos() token.Pos   { return p.toks[p.i].Pos }
func (p *Parser) peek() token.Token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) next() token.Token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.kind() == k {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.kind() == k {
		return p.next()
	}
	p.errorf(p.pos(), "expected %s, found %s", k, p.tok())
	return token.Token{Kind: k, Pos: p.pos()}
}

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	p.errors = append(p.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	if len(p.errors) > 200 {
		panic(bailout{})
	}
}

type bailout struct{}

// sync skips tokens until a likely statement/declaration boundary.
func (p *Parser) sync() {
	for {
		switch p.kind() {
		case token.SEMI:
			p.next()
			return
		case token.RBRACE, token.EOF:
			return
		}
		p.next()
	}
}

// ---------------------------------------------------------------------------
// Translation unit

func (p *Parser) parseUnit() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
		}
	}()
	for p.kind() != token.EOF {
		p.parseExternalDecl()
	}
	// A defined global's struct or union may be completed anywhere in the
	// unit, but by its end the global needs storage.
	for _, g := range p.unit.Globals {
		if !p.externOnly[g.Obj] && incompleteAggregate(g.Obj.Type) {
			p.errorf(g.Obj.Pos, "variable %s has incomplete type %s", g.Obj.Name, g.Obj.Type)
		}
	}
}

// incompleteAggregate reports whether t is a struct or union, or an array
// of them, whose body has not been seen.
func incompleteAggregate(t *types.Type) bool {
	for t.Kind == types.Array {
		t = t.Elem
	}
	return (t.Kind == types.Struct || t.Kind == types.Union) && !t.Done
}

// storage classes seen on a declaration.
type storage struct {
	isTypedef bool
	isStatic  bool
	isExtern  bool
}

func (p *Parser) parseExternalDecl() {
	start := p.i
	base, sto, ok := p.parseDeclSpecifiers()
	if !ok {
		p.errorf(p.pos(), "expected declaration, found %s", p.tok())
		p.sync()
		return
	}
	// A bare "struct S { ... };" or "enum E { ... };" declaration.
	if p.accept(token.SEMI) {
		return
	}

	first := true
	for {
		name, t, namePos := p.parseDeclarator(base)
		if name == "" {
			p.errorf(namePos, "expected declarator name")
			p.sync()
			return
		}
		if sto.isTypedef {
			obj := &ast.Object{Name: name, Kind: ast.TypedefName, Type: t, Pos: namePos, Global: true}
			p.cur.objects[name] = obj
		} else if t.Kind == types.Func {
			if first && p.kind() == token.LBRACE {
				p.parseFuncDef(name, t, namePos, sto)
				return
			}
			p.declareFunc(name, t, namePos)
		} else {
			p.declareGlobalVar(name, t, namePos, sto)
		}
		first = false
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.SEMI)
	_ = start
}

func (p *Parser) declareFunc(name string, t *types.Type, pos token.Pos) *ast.Object {
	if obj := p.fileScope.objects[name]; obj != nil {
		if obj.Kind == ast.FuncObj {
			return obj // re-declaration (prototype) is fine
		}
		p.errorf(pos, "%s redeclared as function", name)
	}
	obj := &ast.Object{Name: name, Kind: ast.FuncObj, Type: t, Pos: pos, Global: true}
	p.fileScope.objects[name] = obj
	p.unit.FuncObjects[name] = obj
	p.unit.FuncOrder = append(p.unit.FuncOrder, name)
	return obj
}

func (p *Parser) declareGlobalVar(name string, t *types.Type, pos token.Pos, sto storage) {
	var init *ast.Init
	if p.accept(token.ASSIGN) {
		init = p.parseInitializer(t)
	}
	if sto.isExtern && init == nil {
		// extern declaration without definition: declare but emit no
		// GlobalVar entry only if already present.
		if p.fileScope.objects[name] != nil {
			return
		}
	}
	if prev := p.fileScope.objects[name]; prev != nil && prev.Kind == ast.Var {
		if !sto.isExtern || init != nil {
			delete(p.externOnly, prev)
		}
		// Tentative re-definition; attach initializer if new.
		if init != nil {
			for _, g := range p.unit.Globals {
				if g.Obj == prev {
					g.Init = init
					return
				}
			}
		}
		return
	}
	// Arrays with inferred length from initializer.
	if t.Kind == types.Array && t.Len < 0 && init != nil && init.List != nil {
		t = types.ArrayOf(t.Elem, len(init.List))
	}
	obj := &ast.Object{Name: name, Kind: ast.Var, Type: t, Pos: pos, Global: true, Static: sto.isStatic}
	if sto.isExtern && init == nil {
		p.externOnly[obj] = true
	}
	p.cur.objects[name] = obj
	p.unit.Globals = append(p.unit.Globals, &ast.GlobalVar{Obj: obj, Init: init})
}

func (p *Parser) parseFuncDef(name string, t *types.Type, pos token.Pos, sto storage) {
	obj := p.declareFunc(name, t, pos)
	if obj.Def != nil {
		p.errorf(pos, "function %s redefined", name)
	}
	fd := &ast.FuncDecl{Obj: obj, Pos: pos}
	obj.Def = fd
	obj.Type = t // the definition's type wins over prototypes

	p.curFunc = fd
	p.localNames = make(map[string]int)
	p.cur = newScope(p.cur)

	// Bind parameters by the names recorded for this function type node.
	declaredNames := p.paramNames[t]
	for idx, pt := range t.Params {
		pname := ""
		if idx < len(declaredNames) {
			pname = declaredNames[idx]
		}
		if pname == "" {
			pname = fmt.Sprintf("__arg%d", idx)
		}
		po := &ast.Object{Name: pname, Kind: ast.Param, Type: pt, Pos: pos}
		p.cur.objects[pname] = po
		fd.Params = append(fd.Params, po)
	}

	fd.Body = p.parseBlock()

	p.cur = p.cur.parent
	p.curFunc = nil
	p.unit.Funcs = append(p.unit.Funcs, fd)
	_ = sto
}

// ---------------------------------------------------------------------------
// Declaration specifiers and declarators

// isTypeStart reports whether the current token can begin declaration
// specifiers (keyword type, struct/union/enum, typedef name, storage class).
func (p *Parser) isTypeStart() bool {
	switch p.kind() {
	case token.VOID, token.CHAR, token.SHORT, token.INT, token.LONG,
		token.FLOAT, token.DOUBLE, token.SIGNED, token.UNSIGNED,
		token.STRUCT, token.UNION, token.ENUM, token.CONST, token.VOLATILE,
		token.TYPEDEF, token.STATIC, token.EXTERN, token.AUTO, token.REGISTER:
		return true
	case token.IDENT:
		obj := p.cur.lookup(p.tok().Text)
		return obj != nil && obj.Kind == ast.TypedefName
	}
	return false
}

// parseDeclSpecifiers parses type specifiers plus storage classes.
func (p *Parser) parseDeclSpecifiers() (*types.Type, storage, bool) {
	var sto storage
	var base *types.Type
	var unsigned, signed, sawLong, sawShort bool
	var basicKind types.Kind = types.Invalid
	any := false

	for {
		switch p.kind() {
		case token.TYPEDEF:
			sto.isTypedef = true
			p.next()
		case token.STATIC:
			sto.isStatic = true
			p.next()
		case token.EXTERN:
			sto.isExtern = true
			p.next()
		case token.AUTO, token.REGISTER, token.CONST, token.VOLATILE:
			p.next() // accepted and ignored
		case token.VOID:
			basicKind = types.Void
			p.next()
			any = true
		case token.CHAR:
			basicKind = types.Char
			p.next()
			any = true
		case token.SHORT:
			sawShort = true
			p.next()
			any = true
		case token.INT:
			if basicKind == types.Invalid {
				basicKind = types.Int
			}
			p.next()
			any = true
		case token.LONG:
			sawLong = true
			p.next()
			any = true
		case token.FLOAT:
			basicKind = types.Float
			p.next()
			any = true
		case token.DOUBLE:
			basicKind = types.Double
			p.next()
			any = true
		case token.SIGNED:
			signed = true
			p.next()
			any = true
		case token.UNSIGNED:
			unsigned = true
			p.next()
			any = true
		case token.STRUCT, token.UNION:
			base = p.parseStructOrUnion()
			any = true
		case token.ENUM:
			base = p.parseEnum()
			any = true
		case token.IDENT:
			if base == nil && basicKind == types.Invalid && !sawLong && !sawShort && !unsigned && !signed {
				if obj := p.cur.lookup(p.tok().Text); obj != nil && obj.Kind == ast.TypedefName {
					base = obj.Type
					p.next()
					any = true
					continue
				}
			}
			goto done
		default:
			goto done
		}
	}
done:
	if !any && !sto.isTypedef && !sto.isStatic && !sto.isExtern {
		return nil, sto, false
	}
	if base == nil {
		switch {
		case sawLong:
			base = types.LongType
			if unsigned {
				base = types.ULongType
			}
		case sawShort:
			base = types.ShortType
			if unsigned {
				base = types.UShortType
			}
		case basicKind == types.Char:
			base = types.CharType
			if unsigned {
				base = types.UCharType
			}
		case basicKind == types.Void:
			base = types.VoidType
		case basicKind == types.Float:
			base = types.FloatType
		case basicKind == types.Double:
			base = types.DoubleType
		default:
			base = types.IntType
			if unsigned {
				base = types.UIntType
			}
		}
	}
	_ = signed
	return base, sto, true
}

func (p *Parser) parseStructOrUnion() *types.Type {
	kw := p.next() // struct or union
	kind := types.Struct
	if kw.Kind == token.UNION {
		kind = types.Union
	}
	tag := ""
	if p.kind() == token.IDENT {
		tag = p.next().Text
	}
	var t *types.Type
	if tag != "" {
		if existing := p.cur.lookupTag(tag); existing != nil && existing.Kind == kind {
			t = existing
		}
	}
	if t == nil {
		t = &types.Type{Kind: kind, Tag: tag}
		if tag != "" {
			p.cur.tags[tag] = t
		}
	}
	if p.accept(token.LBRACE) {
		if t.Done {
			// Same tag defined again in a different scope: new type.
			t = &types.Type{Kind: kind, Tag: tag}
			if tag != "" {
				p.cur.tags[tag] = t
			}
		}
		for p.kind() != token.RBRACE && p.kind() != token.EOF {
			base, _, ok := p.parseDeclSpecifiers()
			if !ok {
				p.errorf(p.pos(), "expected member declaration, found %s", p.tok())
				p.sync()
				continue
			}
			for {
				name, ft, npos := p.parseDeclarator(base)
				if name == "" {
					p.errorf(npos, "expected member name")
					break
				}
				if t.FieldByName(name) != nil {
					p.errorf(npos, "duplicate member %s", name)
				}
				t.Fields = append(t.Fields, &types.Field{Name: name, Type: ft})
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.SEMI)
		}
		p.expect(token.RBRACE)
		t.Done = true
	}
	return t
}

func (p *Parser) parseEnum() *types.Type {
	p.next() // enum
	tag := ""
	if p.kind() == token.IDENT {
		tag = p.next().Text
	}
	var t *types.Type
	if tag != "" {
		if existing := p.cur.lookupTag(tag); existing != nil && existing.Kind == types.Enum {
			t = existing
		}
	}
	if t == nil {
		t = &types.Type{Kind: types.Enum, Tag: tag}
		if tag != "" {
			p.cur.tags[tag] = t
		}
	}
	if p.accept(token.LBRACE) {
		val := int64(0)
		for p.kind() != token.RBRACE && p.kind() != token.EOF {
			nameTok := p.expect(token.IDENT)
			if p.accept(token.ASSIGN) {
				val = p.parseConstExpr()
			}
			obj := &ast.Object{Name: nameTok.Text, Kind: ast.EnumConst, Type: types.IntType,
				Pos: nameTok.Pos, EnumVal: val, Global: p.cur == p.fileScope}
			p.cur.objects[nameTok.Text] = obj
			val++
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RBRACE)
		t.Done = true
	}
	return t
}

func (p *Parser) parseConstExpr() int64 {
	e := p.parseCondExpr()
	v, ok := foldConst(e)
	if !ok {
		p.errorf(e.Pos(), "expected constant expression")
		return 0
	}
	return v
}

// parseDeclarator parses pointer declarators around a direct declarator and
// returns (name, fullType, pos). For abstract declarators name is "".
func (p *Parser) parseDeclarator(base *types.Type) (string, *types.Type, token.Pos) {
	t := base
	for p.accept(token.MUL) {
		for p.kind() == token.CONST || p.kind() == token.VOLATILE {
			p.next()
		}
		t = types.PointerTo(t)
	}
	return p.parseDirectDeclarator(t)
}

// parseDirectDeclarator handles IDENT, parenthesized declarators, and the
// array/function suffixes. The classic C declarator inversion is implemented
// by parsing the inner declarator against a placeholder and substituting.
func (p *Parser) parseDirectDeclarator(t *types.Type) (string, *types.Type, token.Pos) {
	pos := p.pos()
	var name string
	var inner func(*types.Type) *types.Type // wraps suffix-built type per inner declarator

	switch p.kind() {
	case token.IDENT:
		name = p.next().Text
	case token.LPAREN:
		// Distinguish "(declarator)" from a parameter list "(int x)".
		if p.peek().Kind == token.MUL || p.peek().Kind == token.IDENT && !p.isTypedefName(p.peek().Text) ||
			p.peek().Kind == token.LPAREN {
			p.next() // (
			// Parse the inner declarator against a marker type; we
			// substitute the real type after parsing suffixes.
			marker := &types.Type{Kind: types.Invalid}
			var innerName string
			var innerType *types.Type
			innerName, innerType, _ = p.parseDeclarator(marker)
			p.expect(token.RPAREN)
			name = innerName
			inner = func(outer *types.Type) *types.Type {
				return p.substMarker(innerType, marker, outer)
			}
		}
	}

	// Suffixes bind tighter than the pointer prefix already applied.
	for {
		switch p.kind() {
		case token.LBRACK:
			p.next()
			n := -1
			if p.kind() != token.RBRACK {
				n = int(p.parseConstExpr())
			}
			p.expect(token.RBRACK)
			t = p.insertArray(t, n)
		case token.LPAREN:
			params, variadic, names := p.parseParamList()
			t = types.FuncType(t, params, variadic)
			p.paramNames[t] = names
		default:
			if inner != nil {
				t = inner(t)
			}
			return name, t, pos
		}
	}
}

func (p *Parser) isTypedefName(s string) bool {
	obj := p.cur.lookup(s)
	return obj != nil && obj.Kind == ast.TypedefName
}

// insertArray converts t into an array of t with length n, but if t already
// ends in array suffixes parsed earlier we must append at the innermost
// element position (C arrays read left-to-right: a[2][3] is array 2 of
// array 3). Since we parse suffixes left to right, each new suffix applies
// to the element type of the innermost array built so far.
func (p *Parser) insertArray(t *types.Type, n int) *types.Type {
	if t.Kind == types.Array {
		return types.ArrayOf(p.insertArray(t.Elem, n), t.Len)
	}
	return types.ArrayOf(t, n)
}

// substMarker rebuilds inner, replacing the marker placeholder with outer.
// Rebuilt function type nodes inherit the recorded parameter names.
func (p *Parser) substMarker(inner, marker, outer *types.Type) *types.Type {
	if inner == marker {
		return outer
	}
	switch inner.Kind {
	case types.Pointer:
		return types.PointerTo(p.substMarker(inner.Elem, marker, outer))
	case types.Array:
		return types.ArrayOf(p.substMarker(inner.Elem, marker, outer), inner.Len)
	case types.Func:
		nt := types.FuncType(p.substMarker(inner.Ret, marker, outer), inner.Params, inner.Variadic)
		if names, ok := p.paramNames[inner]; ok {
			p.paramNames[nt] = names
		}
		return nt
	}
	return inner
}

func (p *Parser) parseParamList() (params []*types.Type, variadic bool, names []string) {
	p.expect(token.LPAREN)
	if p.accept(token.RPAREN) {
		return nil, false, nil // () — unspecified params, treated as none
	}
	// (void)
	if p.kind() == token.VOID && p.peek().Kind == token.RPAREN {
		p.next()
		p.next()
		return nil, false, nil
	}
	for {
		if p.accept(token.ELLIPSIS) {
			variadic = true
			break
		}
		base, _, ok := p.parseDeclSpecifiers()
		if !ok {
			p.errorf(p.pos(), "expected parameter type, found %s", p.tok())
			break
		}
		name, t, _ := p.parseDeclarator(base)
		// Parameters of array/function type decay to pointers.
		t = t.Decay()
		params = append(params, t)
		names = append(names, name)
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	return params, variadic, names
}

// parseInitializer parses a scalar expression or a brace list.
func (p *Parser) parseInitializer(t *types.Type) *ast.Init {
	pos := p.pos()
	if p.accept(token.LBRACE) {
		init := &ast.Init{Pos: pos}
		for p.kind() != token.RBRACE && p.kind() != token.EOF {
			var elemType *types.Type
			switch {
			case t != nil && t.Kind == types.Array:
				elemType = t.Elem
			case t != nil && t.IsAggregate():
				if n := len(init.List); n < len(t.Fields) {
					elemType = t.Fields[n].Type
				}
			}
			init.List = append(init.List, p.parseInitializer(elemType))
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RBRACE)
		return init
	}
	e := p.parseAssignExpr()
	return &ast.Init{Pos: pos, Expr: e}
}
