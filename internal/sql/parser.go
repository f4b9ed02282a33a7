package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a single SELECT statement (an optional trailing ';' is
// allowed).
func Parse(input string) (*SelectStmt, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelectWithUnions()
	if err != nil {
		return nil, err
	}
	p.accept(TokOp, ";")
	if !p.at(TokEOF, "") {
		return nil, p.errorf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(kind TokenKind, text string) bool {
	t := p.peek()
	if t.Kind != kind {
		return false
	}
	return text == "" || t.Text == text
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return Token{}, p.errorf("expected %s, found %s", want, p.peek())
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Offset: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

// Error is a statement the engine rejects, at a byte offset of the
// query text: a parse error at the offending token, or (Bind) a name or
// type the binder rejects at its table or column reference — for a type
// error, the expression's first column reference (ExprPos). The
// template checker maps the offset back into the template text.
type Error struct {
	Offset int
	Msg    string
	Bind   bool
}

func (e *Error) Error() string {
	if e.Bind {
		return e.Msg
	}
	return fmt.Sprintf("sql: parse error at offset %d: %s", e.Offset, e.Msg)
}

// parseSelectWithUnions parses SELECT blocks chained by UNION ALL, plus
// a leading WITH clause shared by the chain's head.
func (p *parser) parseSelectWithUnions() (*SelectStmt, error) {
	var ctes []CTE
	if p.accept(TokKeyword, "WITH") {
		for {
			name, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokKeyword, "AS"); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelectWithUnions()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			ctes = append(ctes, CTE{Name: name.Text, Select: sub})
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	head, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	head.With = ctes
	cur := head
	for p.accept(TokKeyword, "UNION") {
		if _, err := p.expect(TokKeyword, "ALL"); err != nil {
			return nil, p.errorf("only UNION ALL is supported")
		}
		nxt, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		cur.UnionAll = nxt
		cur = nxt
	}
	// ORDER BY / LIMIT after a union chain apply to the whole result;
	// they were parsed into the last block — hoist them to the head.
	if cur != head && (len(cur.OrderBy) > 0 || cur.Limit >= 0) {
		head.OrderBy, cur.OrderBy = cur.OrderBy, nil
		head.Limit, cur.Limit = cur.Limit, -1
		head.Offset, cur.Offset = cur.Offset, 0
	}
	return head, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.accept(TokKeyword, "DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	if err := p.parseFrom(s); err != nil {
		return nil, err
	}
	if p.accept(TokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = andExprs(s.Where, w)
	}
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		grouped := false
		if p.accept(TokKeyword, "ROLLUP") {
			s.Rollup = true
			grouped = true
		} else if p.accept(TokKeyword, "CUBE") {
			s.Cube = true
			grouped = true
		}
		if grouped {
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if grouped {
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
		}
	}
	if p.accept(TokKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(TokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if p.accept(TokKeyword, "LIMIT") {
		t, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(t.Text)
		if err != nil || v < 0 {
			return nil, p.errorf("bad LIMIT %q", t.Text)
		}
		s.Limit = v
		if p.accept(TokKeyword, "OFFSET") {
			t, err := p.expect(TokNumber, "")
			if err != nil {
				return nil, err
			}
			o, err := strconv.Atoi(t.Text)
			if err != nil || o < 0 {
				return nil, p.errorf("bad OFFSET %q", t.Text)
			}
			s.Offset = o
		}
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(TokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(TokKeyword, "AS") {
		t, err := p.expect(TokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = t.Text
	} else if p.at(TokIdent, "") {
		item.Alias = p.next().Text
	}
	return item, nil
}

// parseFrom handles `FROM t1 [a], t2 [b] JOIN t3 [c] ON ... LEFT JOIN ...`.
// Inner-join ON conditions are ANDed into Where; LEFT OUTER joins keep
// their condition on the TableRef.
func (p *parser) parseFrom(s *SelectStmt) error {
	parseRef := func() (TableRef, error) {
		t, err := p.expect(TokIdent, "")
		if err != nil {
			return TableRef{}, err
		}
		ref := TableRef{Table: t.Text, Pos: t.Pos}
		if p.accept(TokKeyword, "AS") {
			a, err := p.expect(TokIdent, "")
			if err != nil {
				return TableRef{}, err
			}
			ref.Alias = a.Text
		} else if p.at(TokIdent, "") {
			ref.Alias = p.next().Text
		}
		return ref, nil
	}
	for {
		ref, err := parseRef()
		if err != nil {
			return err
		}
		s.From = append(s.From, ref)
		for {
			left := false
			switch {
			case p.accept(TokKeyword, "JOIN"):
			case p.accept(TokKeyword, "INNER"):
				if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
					return err
				}
			case p.accept(TokKeyword, "LEFT"):
				p.accept(TokKeyword, "OUTER")
				if _, err := p.expect(TokKeyword, "JOIN"); err != nil {
					return err
				}
				left = true
			default:
				goto joinsDone
			}
			jref, err := parseRef()
			if err != nil {
				return err
			}
			if _, err := p.expect(TokKeyword, "ON"); err != nil {
				return err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return err
			}
			if left {
				jref.LeftJoin = true
				jref.On = cond
			} else {
				s.Where = andExprs(s.Where, cond)
			}
			s.From = append(s.From, jref)
		}
	joinsDone:
		if !p.accept(TokOp, ",") {
			return nil
		}
	}
}

func andExprs(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &BinOp{Op: "AND", L: a, R: b}
}

// Expression grammar (lowest to highest precedence):
// OR > AND > NOT > comparison/IN/BETWEEN/LIKE/IS > add > mul > unary > primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Postfix predicate forms.
	for {
		not := false
		if p.at(TokKeyword, "NOT") {
			// Lookahead: NOT IN / NOT BETWEEN / NOT LIKE.
			save := p.pos
			p.next()
			if p.at(TokKeyword, "IN") || p.at(TokKeyword, "BETWEEN") || p.at(TokKeyword, "LIKE") {
				not = true
			} else {
				p.pos = save
				return l, nil
			}
		}
		switch {
		case p.accept(TokKeyword, "BETWEEN"):
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokKeyword, "AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Between{X: l, Lo: lo, Hi: hi, Not: not}
		case p.accept(TokKeyword, "IN"):
			if _, err := p.expect(TokOp, "("); err != nil {
				return nil, err
			}
			in := &In{X: l, Not: not}
			if p.at(TokKeyword, "SELECT") || p.at(TokKeyword, "WITH") {
				sub, err := p.parseSelectWithUnions()
				if err != nil {
					return nil, err
				}
				in.Sub = sub
			} else {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					in.List = append(in.List, e)
					if !p.accept(TokOp, ",") {
						break
					}
				}
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			l = in
		case p.accept(TokKeyword, "LIKE"):
			t, err := p.expect(TokString, "")
			if err != nil {
				return nil, err
			}
			l = &Like{X: l, Pattern: t.Text, Not: not}
		case p.accept(TokKeyword, "IS"):
			isNot := p.accept(TokKeyword, "NOT")
			if _, err := p.expect(TokKeyword, "NULL"); err != nil {
				return nil, err
			}
			l = &IsNull{X: l, Not: isNot}
		default:
			// Binary comparison operators.
			t := p.peek()
			if t.Kind == TokOp {
				switch t.Text {
				case "=", "<>", "!=", "<", "<=", ">", ">=":
					p.next()
					r, err := p.parseAdditive()
					if err != nil {
						return nil, err
					}
					op := t.Text
					if op == "!=" {
						op = "<>"
					}
					l = &BinOp{Op: op, L: l, R: r}
					continue
				}
			}
			return l, nil
		}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokOp && (t.Text == "+" || t.Text == "-" || t.Text == "||") {
			p.next()
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: t.Text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokOp && (t.Text == "*" || t.Text == "/") {
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: t.Text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(TokOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "-", X: x}, nil
	}
	p.accept(TokOp, "+")
	return p.parsePostfixPrimary()
}

// parsePostfixPrimary parses a primary expression and an optional
// OVER (PARTITION BY ...) window suffix on aggregate calls.
func (p *parser) parsePostfixPrimary() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.at(TokKeyword, "OVER") {
		fc, ok := e.(*FuncCall)
		if !ok || !IsAggregate(fc.Name) {
			return nil, p.errorf("OVER requires an aggregate function")
		}
		p.next()
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "PARTITION"); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		w := &Window{Agg: fc}
		for {
			part, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			w.PartitionBy = append(w.PartitionBy, part)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return w, nil
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokNumber:
		p.next()
		if !strings.Contains(t.Text, ".") {
			v, err := strconv.ParseInt(t.Text, 10, 64)
			if err == nil {
				return &Lit{Kind: LitNumber, IsInt: true, IntVal: v, Num: float64(v)}, nil
			}
		}
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.Text)
		}
		return &Lit{Kind: LitNumber, Num: f}, nil
	case t.Kind == TokString:
		p.next()
		return &Lit{Kind: LitString, Str: t.Text}, nil
	case t.Kind == TokKeyword && t.Text == "NULL":
		p.next()
		return &Lit{Kind: LitNull}, nil
	case t.Kind == TokKeyword && t.Text == "DATE":
		p.next()
		lit, err := p.expect(TokString, "")
		if err != nil {
			return nil, err
		}
		return &Lit{Kind: LitDate, Str: lit.Text}, nil
	case t.Kind == TokKeyword && t.Text == "CAST":
		// CAST(expr AS type) — the engine is dynamically typed; date
		// casts are honored, all others pass through.
		p.next()
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AS"); err != nil {
			return nil, err
		}
		var typeName string
		switch {
		case p.at(TokKeyword, "DATE"):
			typeName = "date"
			p.next()
		case p.at(TokIdent, ""):
			typeName = p.next().Text
		default:
			return nil, p.errorf("expected type name in CAST")
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		if typeName == "date" {
			if lit, ok := inner.(*Lit); ok && lit.Kind == LitString {
				return &Lit{Kind: LitDate, Str: lit.Str}, nil
			}
			return &FuncCall{Name: "TO_DATE", Args: []Expr{inner}}, nil
		}
		return inner, nil
	case t.Kind == TokKeyword && t.Text == "CASE":
		return p.parseCase()
	case t.Kind == TokOp && t.Text == "(":
		p.next()
		if p.at(TokKeyword, "SELECT") || p.at(TokKeyword, "WITH") {
			sub, err := p.parseSelectWithUnions()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &SubQuery{Select: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		p.next()
		name := t.Text
		// Function call?
		if p.accept(TokOp, "(") {
			fc := &FuncCall{Name: strings.ToUpper(name)}
			if p.accept(TokOp, "*") {
				fc.Star = true
			} else {
				fc.Distinct = p.accept(TokKeyword, "DISTINCT")
				if !p.at(TokOp, ")") {
					for {
						a, err := p.parseExpr()
						if err != nil {
							return nil, err
						}
						fc.Args = append(fc.Args, a)
						if !p.accept(TokOp, ",") {
							break
						}
					}
				}
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// Qualified column?
		if p.accept(TokOp, ".") {
			col, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: name, Name: col.Text, Pos: t.Pos}, nil
		}
		return &ColRef{Name: name, Pos: t.Pos}, nil
	default:
		return nil, p.errorf("unexpected %s in expression", t)
	}
}

func (p *parser) parseCase() (Expr, error) {
	if _, err := p.expect(TokKeyword, "CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.accept(TokKeyword, "WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, WhenClause{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.accept(TokKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if _, err := p.expect(TokKeyword, "END"); err != nil {
		return nil, err
	}
	return c, nil
}
