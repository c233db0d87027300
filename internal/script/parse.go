package script

import (
	"fmt"
	"strconv"
)

// parser builds the AST from tokens.
type parser struct {
	toks []token
	pos  int
}

// Parse parses a complete script.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var body []Stmt
	for !p.at(tokEOF, "") {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
	}
	return &Program{Body: body}, nil
}

// peek returns the current token without consuming it.
func (p *parser) peek() token { return p.toks[p.pos] }

// advance consumes and returns the current token.
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// at reports whether the current token matches kind (and text, when
// non-empty).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the current token if it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

// expect consumes a required token or fails.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.advance(), nil
	}
	t := p.peek()
	return token{}, &SyntaxError{Line: t.line, Msg: fmt.Sprintf("expected %q, found %q", text, t.text)}
}

// statement parses one statement.
func (p *parser) statement() (Stmt, error) {
	t := p.peek()
	switch {
	case t.kind == tokKeyword && t.text == "var":
		return p.varStatement()
	case t.kind == tokKeyword && t.text == "function":
		return p.funcDeclaration()
	case t.kind == tokKeyword && t.text == "if":
		return p.ifStatement()
	case t.kind == tokKeyword && t.text == "while":
		return p.whileStatement()
	case t.kind == tokKeyword && t.text == "for":
		return p.forStatement()
	case t.kind == tokKeyword && t.text == "return":
		p.advance()
		var x Expr
		if !p.at(tokPunct, ";") && !p.at(tokPunct, "}") && !p.at(tokEOF, "") {
			var err error
			x, err = p.expression()
			if err != nil {
				return nil, err
			}
		}
		p.accept(tokPunct, ";")
		return &ReturnStmt{X: x, Line: t.line}, nil
	case t.kind == tokKeyword && t.text == "break":
		p.advance()
		p.accept(tokPunct, ";")
		return &BreakStmt{Line: t.line}, nil
	case t.kind == tokKeyword && t.text == "continue":
		p.advance()
		p.accept(tokPunct, ";")
		return &ContinueStmt{Line: t.line}, nil
	case t.kind == tokPunct && t.text == "{":
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &BlockStmt{Body: body, Line: t.line}, nil
	case t.kind == tokPunct && t.text == ";":
		p.advance()
		return &BlockStmt{Line: t.line}, nil
	default:
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		p.accept(tokPunct, ";")
		return &ExprStmt{X: x, Line: t.line}, nil
	}
}

// varStatement parses "var name [= expr] [, name [= expr]]* ;" —
// multiple declarators desugar to a block.
func (p *parser) varStatement() (Stmt, error) {
	kw := p.advance() // var
	var decls []*VarStmt
	for {
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		var init Expr
		if p.accept(tokPunct, "=") {
			init, err = p.assignment()
			if err != nil {
				return nil, err
			}
		}
		decls = append(decls, &VarStmt{Name: name.text, Init: init, Line: name.line})
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	p.accept(tokPunct, ";")
	if len(decls) == 1 {
		return decls[0], nil
	}
	return &VarListStmt{Decls: decls, Line: kw.line}, nil
}

// funcDeclaration parses "function name(params) {body}".
func (p *parser) funcDeclaration() (Stmt, error) {
	kw := p.advance() // function
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	fn, err := p.funcRest(kw.line)
	if err != nil {
		return nil, err
	}
	return &FuncDeclStmt{Name: name.text, Fn: fn, Line: kw.line}, nil
}

// funcRest parses "(params) {body}" after the function keyword (and
// optional name).
func (p *parser) funcRest(line int) (*FuncLit, error) {
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(tokPunct, ")") {
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		params = append(params, name.text)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &FuncLit{Params: params, Body: body, Line: line}, nil
}

// block parses "{ statements }".
func (p *parser) block() ([]Stmt, error) {
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	var body []Stmt
	for !p.at(tokPunct, "}") && !p.at(tokEOF, "") {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
	}
	if _, err := p.expect(tokPunct, "}"); err != nil {
		return nil, err
	}
	return body, nil
}

// ifStatement parses if (cond) block [else (if | block)].
func (p *parser) ifStatement() (Stmt, error) {
	kw := p.advance()
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.blockOrSingle()
	if err != nil {
		return nil, err
	}
	var els []Stmt
	if p.accept(tokKeyword, "else") {
		if p.at(tokKeyword, "if") {
			s, err := p.ifStatement()
			if err != nil {
				return nil, err
			}
			els = []Stmt{s}
		} else {
			els, err = p.blockOrSingle()
			if err != nil {
				return nil, err
			}
		}
	}
	return &IfStmt{Cond: cond, Then: then, Else: els, Line: kw.line}, nil
}

// blockOrSingle parses either a braced block or a single statement.
func (p *parser) blockOrSingle() ([]Stmt, error) {
	if p.at(tokPunct, "{") {
		return p.block()
	}
	s, err := p.statement()
	if err != nil {
		return nil, err
	}
	return []Stmt{s}, nil
}

// whileStatement parses while (cond) body.
func (p *parser) whileStatement() (Stmt, error) {
	kw := p.advance()
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.blockOrSingle()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Line: kw.line}, nil
}

// forStatement parses for (init; cond; post) body.
func (p *parser) forStatement() (Stmt, error) {
	kw := p.advance()
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var init Stmt
	if !p.at(tokPunct, ";") {
		var err error
		if p.at(tokKeyword, "var") {
			init, err = p.varStatement() // consumes its own ';'
		} else {
			var x Expr
			x, err = p.expression()
			init = &ExprStmt{X: x, Line: kw.line}
			if err == nil {
				_, err = p.expect(tokPunct, ";")
			}
		}
		if err != nil {
			return nil, err
		}
	} else {
		p.advance()
	}
	var cond Expr
	if !p.at(tokPunct, ";") {
		var err error
		cond, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	var post Stmt
	if !p.at(tokPunct, ")") {
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		post = &ExprStmt{X: x, Line: kw.line}
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.blockOrSingle()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Init: init, Cond: cond, Post: post, Body: body, Line: kw.line}, nil
}

// expression parses a full expression (assignment level).
func (p *parser) expression() (Expr, error) { return p.assignment() }

// assignment parses right-associative assignment.
func (p *parser) assignment() (Expr, error) {
	left, err := p.conditional()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokPunct {
		switch t.text {
		case "=", "+=", "-=", "*=", "/=":
			switch left.(type) {
			case *Ident, *MemberExpr, *IndexExpr:
			default:
				return nil, &SyntaxError{Line: t.line, Msg: "invalid assignment target"}
			}
			p.advance()
			value, err := p.assignment()
			if err != nil {
				return nil, err
			}
			return &AssignExpr{Op: t.text, Target: left, Value: value, Line: t.line}, nil
		}
	}
	return left, nil
}

// conditional parses the ternary operator.
func (p *parser) conditional() (Expr, error) {
	cond, err := p.binary(0)
	if err != nil {
		return nil, err
	}
	if !p.at(tokPunct, "?") {
		return cond, nil
	}
	q := p.advance()
	then, err := p.assignment()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ":"); err != nil {
		return nil, err
	}
	els, err := p.assignment()
	if err != nil {
		return nil, err
	}
	return &CondExpr{Cond: cond, Then: then, Else: els, Line: q.line}, nil
}

// binaryPrec maps operators to precedence levels (higher binds
// tighter).
var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3, "===": 3, "!==": 3,
	"<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

// binary parses binary operators with precedence climbing.
func (p *parser) binary(minPrec int) (Expr, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokPunct {
			return left, nil
		}
		prec, ok := binaryPrec[t.text]
		if !ok || prec < minPrec {
			return left, nil
		}
		p.advance()
		right, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		op := t.text
		// === and !== behave as == and != (no coercion anywhere).
		if op == "===" {
			op = "=="
		}
		if op == "!==" {
			op = "!="
		}
		left = &BinaryExpr{Op: op, L: left, R: right, Line: t.line}
	}
}

// unary parses prefix operators.
func (p *parser) unary() (Expr, error) {
	t := p.peek()
	if t.kind == tokPunct && (t.text == "!" || t.text == "-") {
		p.advance()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.text, X: x, Line: t.line}, nil
	}
	if t.kind == tokKeyword && t.text == "typeof" {
		p.advance()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "typeof", X: x, Line: t.line}, nil
	}
	if t.kind == tokKeyword && t.text == "new" {
		p.advance()
		callee, err := p.postfix()
		if err != nil {
			return nil, err
		}
		// The postfix parse may already have consumed the call; a
		// bare constructor reference gets empty args.
		if call, ok := callee.(*CallExpr); ok {
			return &NewExpr{Fn: call.Fn, Args: call.Args, Line: t.line}, nil
		}
		return &NewExpr{Fn: callee, Line: t.line}, nil
	}
	return p.postfix()
}

// postfix parses primary expressions followed by call, member, and
// index suffixes.
func (p *parser) postfix() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokPunct {
			return x, nil
		}
		switch t.text {
		case "(":
			p.advance()
			var args []Expr
			for !p.at(tokPunct, ")") {
				a, err := p.assignment()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(tokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			x = &CallExpr{Fn: x, Args: args, Line: t.line}
		case ".":
			p.advance()
			name := p.advance()
			if name.kind != tokIdent && name.kind != tokKeyword {
				return nil, &SyntaxError{Line: name.line, Msg: "expected property name"}
			}
			x = &MemberExpr{X: x, Name: name.text, Line: t.line}
		case "[":
			p.advance()
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{X: x, Index: idx, Line: t.line}
		case "++", "--":
			// Postfix increment desugars to compound assignment;
			// its value is the updated value (sufficient here).
			p.advance()
			op := "+="
			if t.text == "--" {
				op = "-="
			}
			switch x.(type) {
			case *Ident, *MemberExpr, *IndexExpr:
				x = &AssignExpr{Op: op, Target: x, Value: &litValue{v: 1.0}, Line: t.line}
			default:
				return nil, &SyntaxError{Line: t.line, Msg: "invalid increment target"}
			}
		default:
			return x, nil
		}
	}
}

// primary parses literals, identifiers, grouping, and literals for
// objects, arrays, and functions.
func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, &SyntaxError{Line: t.line, Msg: "bad number " + t.text}
		}
		return &litValue{v: v}, nil
	case t.kind == tokString:
		p.advance()
		return &litValue{v: t.text}, nil
	case t.kind == tokKeyword && (t.text == "true" || t.text == "false"):
		p.advance()
		return &BoolLit{Value: t.text == "true"}, nil
	case t.kind == tokKeyword && t.text == "null":
		p.advance()
		return &NullLit{}, nil
	case t.kind == tokKeyword && t.text == "function":
		p.advance()
		// Optional name on function expressions is accepted and
		// ignored (it only matters for recursion via the name, which
		// declarations cover).
		if p.at(tokIdent, "") {
			p.advance()
		}
		return p.funcRest(t.line)
	case t.kind == tokIdent:
		p.advance()
		return &Ident{Name: t.text, Line: t.line}, nil
	case t.kind == tokPunct && t.text == "(":
		p.advance()
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return x, nil
	case t.kind == tokPunct && t.text == "{":
		return p.objectLit()
	case t.kind == tokPunct && t.text == "[":
		return p.arrayLit()
	}
	return nil, &SyntaxError{Line: t.line, Msg: fmt.Sprintf("unexpected token %q", t.text)}
}

// objectLit parses {k: v, "k2": v2}.
func (p *parser) objectLit() (Expr, error) {
	open := p.advance() // {
	lit := &ObjectLit{Line: open.line}
	for !p.at(tokPunct, "}") {
		key := p.advance()
		if key.kind != tokIdent && key.kind != tokString && key.kind != tokKeyword {
			return nil, &SyntaxError{Line: key.line, Msg: "expected property key"}
		}
		if _, err := p.expect(tokPunct, ":"); err != nil {
			return nil, err
		}
		v, err := p.assignment()
		if err != nil {
			return nil, err
		}
		lit.Keys = append(lit.Keys, key.text)
		lit.Values = append(lit.Values, v)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tokPunct, "}"); err != nil {
		return nil, err
	}
	return lit, nil
}

// arrayLit parses [a, b, c].
func (p *parser) arrayLit() (Expr, error) {
	open := p.advance() // [
	lit := &ArrayLit{Line: open.line}
	for !p.at(tokPunct, "]") {
		v, err := p.assignment()
		if err != nil {
			return nil, err
		}
		lit.Elems = append(lit.Elems, v)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tokPunct, "]"); err != nil {
		return nil, err
	}
	return lit, nil
}
