package parser

import (
	"fmt"

	"repro/internal/cc/ast"
	"repro/internal/cc/token"
	"repro/internal/cc/types"
)

func (p *Parser) parseBlock() *ast.Block {
	pos := p.pos()
	p.expect(token.LBRACE)
	p.cur = newScope(p.cur)
	blk := &ast.Block{}
	p.at(blk, pos)
	for p.kind() != token.RBRACE && p.kind() != token.EOF {
		blk.List = append(blk.List, p.parseStmt())
	}
	p.expect(token.RBRACE)
	p.cur = p.cur.parent
	return blk
}

func (p *Parser) parseStmt() ast.Stmt {
	pos := p.pos()
	switch p.kind() {
	case token.LBRACE:
		return p.parseBlock()

	case token.IF:
		p.next()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.checkScalar(cond)
		p.expect(token.RPAREN)
		thenS := p.parseStmt()
		var elseS ast.Stmt
		if p.accept(token.ELSE) {
			elseS = p.parseStmt()
		}
		s := &ast.If{Cond: cond, Then: thenS, Else: elseS}
		p.at(s, pos)
		return s

	case token.WHILE:
		p.next()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.checkScalar(cond)
		p.expect(token.RPAREN)
		body := p.parseStmt()
		s := &ast.While{Cond: cond, Body: body}
		p.at(s, pos)
		return s

	case token.DO:
		p.next()
		body := p.parseStmt()
		p.expect(token.WHILE)
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.checkScalar(cond)
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		s := &ast.Do{Body: body, Cond: cond}
		p.at(s, pos)
		return s

	case token.FOR:
		p.next()
		p.expect(token.LPAREN)
		p.cur = newScope(p.cur)
		var initS ast.Stmt
		if p.kind() != token.SEMI {
			if p.isTypeStart() {
				initS = p.parseDeclStmt()
			} else {
				e := p.parseExpr()
				es := &ast.ExprStmt{X: e}
				p.at(es, e.Pos())
				initS = es
				p.expect(token.SEMI)
			}
		} else {
			p.expect(token.SEMI)
		}
		var cond ast.Expr
		if p.kind() != token.SEMI {
			cond = p.parseExpr()
			p.checkScalar(cond)
		}
		p.expect(token.SEMI)
		var post ast.Expr
		if p.kind() != token.RPAREN {
			post = p.parseExpr()
		}
		p.expect(token.RPAREN)
		body := p.parseStmt()
		p.cur = p.cur.parent
		s := &ast.For{Init: initS, Cond: cond, Post: post, Body: body}
		p.at(s, pos)
		return s

	case token.SWITCH:
		return p.parseSwitch()

	case token.BREAK:
		p.next()
		p.expect(token.SEMI)
		s := &ast.Break{}
		p.at(s, pos)
		return s

	case token.CONTINUE:
		p.next()
		p.expect(token.SEMI)
		s := &ast.Continue{}
		p.at(s, pos)
		return s

	case token.RETURN:
		p.next()
		var x ast.Expr
		if p.kind() != token.SEMI {
			x = p.parseExpr()
		}
		p.expect(token.SEMI)
		if p.curFunc != nil {
			ret := p.curFunc.Obj.Type.Ret
			if x == nil && ret.Kind != types.Void {
				p.errorf(pos, "return with no value in function returning %s", ret)
			}
			if x != nil && ret.Kind == types.Void {
				p.errorf(pos, "return with a value in void function %s", p.curFunc.Name())
			}
			if x != nil && ret.Kind != types.Void && !types.Compatible(ret, x.Type()) {
				p.errorf(pos, "cannot return %s from function returning %s", x.Type(), ret)
			}
		}
		s := &ast.Return{X: x}
		p.at(s, pos)
		return s

	case token.GOTO:
		p.next()
		lbl := p.expect(token.IDENT)
		p.expect(token.SEMI)
		s := &ast.Goto{Label: lbl.Text}
		p.at(s, pos)
		return s

	case token.SEMI:
		p.next()
		s := &ast.Empty{}
		p.at(s, pos)
		return s

	case token.IDENT:
		// Label?
		if p.peek().Kind == token.COLON && !p.isTypedefName(p.tok().Text) {
			name := p.next().Text
			p.next() // :
			inner := p.parseStmt()
			s := &ast.Label{Name: name, Stmt: inner}
			p.at(s, pos)
			return s
		}
	}

	if p.isTypeStart() {
		return p.parseDeclStmt()
	}

	e := p.parseExpr()
	p.expect(token.SEMI)
	s := &ast.ExprStmt{X: e}
	p.at(s, pos)
	return s
}

func (p *Parser) parseSwitch() ast.Stmt {
	pos := p.pos()
	p.next() // switch
	p.expect(token.LPAREN)
	tag := p.parseExpr()
	if tag.Type() != nil && !tag.Type().IsInteger() {
		p.errorf(tag.Pos(), "switch expression must have integer type, got %s", tag.Type())
	}
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	p.cur = newScope(p.cur)

	sw := &ast.Switch{Tag: tag}
	p.at(sw, pos)
	var cur *ast.SwitchCase
	seenVals := make(map[int64]bool)
	seenDefault := false

	for p.kind() != token.RBRACE && p.kind() != token.EOF {
		switch p.kind() {
		case token.CASE:
			cpos := p.next().Pos
			v := p.parseConstExpr()
			p.expect(token.COLON)
			if seenVals[v] {
				p.errorf(cpos, "duplicate case value %d", v)
			}
			seenVals[v] = true
			// Adjacent case labels share one arm.
			if cur != nil && len(cur.Body) == 0 && !cur.IsDefault {
				cur.Vals = append(cur.Vals, v)
			} else {
				cur = &ast.SwitchCase{Pos: cpos, Vals: []int64{v}}
				sw.Cases = append(sw.Cases, cur)
			}
		case token.DEFAULT:
			dpos := p.next().Pos
			p.expect(token.COLON)
			if seenDefault {
				p.errorf(dpos, "multiple default labels in one switch")
			}
			seenDefault = true
			cur = &ast.SwitchCase{Pos: dpos, IsDefault: true}
			sw.Cases = append(sw.Cases, cur)
		default:
			if cur == nil {
				p.errorf(p.pos(), "statement before first case label in switch")
				cur = &ast.SwitchCase{Pos: p.pos(), Vals: []int64{}}
				sw.Cases = append(sw.Cases, cur)
			}
			cur.Body = append(cur.Body, p.parseStmt())
		}
	}
	p.expect(token.RBRACE)
	p.cur = p.cur.parent
	return sw
}

// parseDeclStmt parses a block-scope declaration, uniquifying names within
// the enclosing function.
func (p *Parser) parseDeclStmt() ast.Stmt {
	pos := p.pos()
	base, sto, ok := p.parseDeclSpecifiers()
	if !ok {
		p.errorf(pos, "expected declaration")
		p.sync()
		s := &ast.Empty{}
		p.at(s, pos)
		return s
	}
	ds := &ast.DeclStmt{}
	p.at(ds, pos)
	if p.accept(token.SEMI) {
		return ds // bare struct/enum declaration
	}
	for {
		name, t, npos := p.parseDeclarator(base)
		if name == "" {
			p.errorf(npos, "expected declarator name")
			p.sync()
			return ds
		}
		if sto.isTypedef {
			obj := &ast.Object{Name: name, Kind: ast.TypedefName, Type: t, Pos: npos}
			p.cur.objects[name] = obj
		} else if t.Kind == types.Func {
			// Local function prototype.
			p.declareFunc(name, t, npos)
		} else {
			var init *ast.Init
			if p.accept(token.ASSIGN) {
				init = p.parseInitializer(t)
			}
			if t.Kind == types.Array && t.Len < 0 && init != nil && init.List != nil {
				t = types.ArrayOf(t.Elem, len(init.List))
			}
			if t.Kind == types.Void || !sto.isExtern && incompleteAggregate(t) {
				p.errorf(npos, "variable %s has incomplete type %s", name, t)
			}
			obj := p.declareLocal(name, t, npos, sto)
			ds.Objects = append(ds.Objects, obj)
			ds.Inits = append(ds.Inits, init)
		}
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.SEMI)
	return ds
}

// declareLocal declares a block-scope variable, renaming it if the name is
// already used elsewhere in this function so that every local has a unique
// name (abstract stack locations are named per function).
func (p *Parser) declareLocal(name string, t *types.Type, pos token.Pos, sto storage) *ast.Object {
	if _, exists := p.cur.objects[name]; exists {
		p.errorf(pos, "%s redeclared in this block", name)
	}
	unique := name
	if p.localNames != nil {
		if n := p.localNames[name]; n > 0 {
			unique = fmt.Sprintf("%s__%d", name, n)
		}
		p.localNames[name]++
	}
	obj := &ast.Object{Name: unique, Kind: ast.Var, Type: t, Pos: pos, Static: sto.isStatic}
	p.cur.objects[name] = obj // lookup by source name
	if p.curFunc != nil {
		p.curFunc.Locals = append(p.curFunc.Locals, obj)
	}
	return obj
}

// at sets the statement's position.
func (p *Parser) at(s ast.Stmt, pos token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		s.P = pos
	case *ast.DeclStmt:
		s.P = pos
	case *ast.Block:
		s.P = pos
	case *ast.If:
		s.P = pos
	case *ast.While:
		s.P = pos
	case *ast.Do:
		s.P = pos
	case *ast.For:
		s.P = pos
	case *ast.Switch:
		s.P = pos
	case *ast.Break:
		s.P = pos
	case *ast.Continue:
		s.P = pos
	case *ast.Return:
		s.P = pos
	case *ast.Goto:
		s.P = pos
	case *ast.Label:
		s.P = pos
	case *ast.Empty:
		s.P = pos
	}
}

func (p *Parser) checkScalar(e ast.Expr) {
	if t := e.Type(); t != nil && !t.IsScalar() && t.Kind != types.Invalid {
		p.errorf(e.Pos(), "condition must have scalar type, got %s", t)
	}
}
