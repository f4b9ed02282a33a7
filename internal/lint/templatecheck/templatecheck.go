// Package templatecheck statically validates the 99 query templates
// against the snowstorm schema — the workload half of dslint. The
// paper's comparability guarantees (§3.2, §4.1) assume every template
// substitutes and binds cleanly; a typo in a column name or a join that
// silently cross-products instead of following a declared relationship
// would otherwise only surface mid-benchmark. For each template it
// verifies:
//
//   - every substitution token is a registered qgen kind;
//   - the substituted SQL parses and binds. Names and expression types
//     are the engine's to judge: the instance runs on an engine over an
//     empty database of every catalog table, and its first bind error is
//     the finding;
//   - every surrogate-key equijoin follows a declared foreign key, a
//     fact-to-fact link (Table 1, §2.2), or a conformed dimension
//     shared by both sides;
//   - no predicate is constant after substitution (constfold.go).
//
// Findings are compiler-style diagnostics ("q14.sql:3:7: message")
// whose positions point into the template text itself.
package templatecheck

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"

	"tpcds/internal/exec"
	"tpcds/internal/qgen"
	"tpcds/internal/schema"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// Diagnostic is one finding, positioned inside the template SQL. File
// is the template's virtual name ("q14.sql"); Line 1 is the first line
// of the SQL string (templates conventionally start with a newline, so
// the query body starts on line 2).
type Diagnostic struct {
	File    string
	Line    int
	Col     int
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.File, d.Line, d.Col, d.Message)
}

// CheckAll validates every template and returns all findings in
// template order.
func CheckAll(tpls []qgen.Template) []Diagnostic {
	var out []Diagnostic
	for _, t := range tpls {
		out = append(out, CheckTemplate(t)...)
	}
	return out
}

// CheckTemplate validates one template.
func CheckTemplate(t qgen.Template) []Diagnostic {
	c := &checker{file: fmt.Sprintf("q%d.sql", t.ID), tmpl: t.SQL}
	c.run()
	return c.diags
}

// emptyEngine binds instances: an engine over an empty database of all
// catalog tables, so running an instance costs its bind and little more.
var emptyEngine = sync.OnceValue(func() *exec.Engine {
	db := storage.NewDB()
	for _, t := range schema.Tables() {
		db.Create(t)
	}
	return exec.New(db)
})

// catalogColumn is one column of the catalog with its table.
type catalogColumn struct {
	table *schema.Table
	col   schema.Column
}

// catalogColumns indexes the catalog's columns by name: no two tables
// share a column name (TestCatalogColumnNamesUnique).
var catalogColumns = sync.OnceValue(func() map[string]catalogColumn {
	m := map[string]catalogColumn{}
	for _, t := range schema.Tables() {
		for _, col := range t.Columns {
			m[col.Name] = catalogColumn{t, col}
		}
	}
	return m
})

type checker struct {
	file  string
	tmpl  string
	inst  string // template with representative substitutions
	segs  []segment
	diags []Diagnostic
}

// segment maps a span of the instantiated text back to the template:
// token spans collapse to the token's start offset, literal spans map
// byte for byte.
type segment struct {
	instStart, instEnd int
	tmplStart          int
	token              bool
}

func (c *checker) errorf(tmplOff int, format string, args ...any) {
	line, col := 1, 1
	for i := 0; i < tmplOff && i < len(c.tmpl); i++ {
		if c.tmpl[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	c.diags = append(c.diags, Diagnostic{
		File: c.file, Line: line, Col: col,
		Message: fmt.Sprintf(format, args...),
	})
}

// tmplOff maps an offset in the instantiated text to the template.
func (c *checker) tmplOff(instOff int) int {
	for _, s := range c.segs {
		if instOff >= s.instStart && instOff < s.instEnd {
			if s.token {
				return s.tmplStart
			}
			return s.tmplStart + (instOff - s.instStart)
		}
	}
	if n := len(c.segs); n > 0 && instOff >= c.segs[n-1].instEnd {
		s := c.segs[n-1]
		return s.tmplStart + (s.instEnd - s.instStart)
	}
	return 0
}

// posOf is the template position of e's first column reference, or 0.
func (c *checker) posOf(e sql.Expr) int { return c.tmplOff(sql.ExprPos(e)) }

// run substitutes, parses and binds the instance, then checks the joins
// and constant predicates of the parsed statement.
func (c *checker) run() {
	c.substitute()
	stmt, err := sql.Parse(c.inst)
	if err == nil {
		_, err = emptyEngine().Run(stmt)
	}
	var se *sql.Error
	switch {
	case err == nil:
	case !errors.As(err, &se):
		c.errorf(0, "%v", err)
	case se.Bind:
		c.errorf(c.tmplOff(se.Offset), "%s", se.Msg)
	default:
		c.errorf(c.tmplOff(se.Offset), "parse error: %s", se.Msg)
		return
	}
	c.checkStmt(stmt, map[string]*sql.SelectStmt{})
}

// substitute replaces every token with its deterministic representative
// value, recording the offset map. Unknown token kinds are findings;
// a numeric placeholder keeps the checker going so one bad token does
// not hide every later finding.
func (c *checker) substitute() {
	var sb strings.Builder
	last := 0
	for _, tok := range qgen.Tokens(c.tmpl) {
		if tok.Start > last {
			c.segs = append(c.segs, segment{
				instStart: sb.Len(), instEnd: sb.Len() + tok.Start - last, tmplStart: last,
			})
			sb.WriteString(c.tmpl[last:tok.Start])
		}
		val, err := qgen.Representative(tok.Kind)
		if err != nil {
			c.errorf(tok.Start, "undefined substitution parameter %s: no such token kind", tok.Full)
			val = "0"
		}
		c.segs = append(c.segs, segment{
			instStart: sb.Len(), instEnd: sb.Len() + len(val), tmplStart: tok.Start, token: true,
		})
		sb.WriteString(val)
		last = tok.End
	}
	if last < len(c.tmpl) {
		c.segs = append(c.segs, segment{
			instStart: sb.Len(), instEnd: sb.Len() + len(c.tmpl) - last, tmplStart: last,
		})
		sb.WriteString(c.tmpl[last:])
	}
	c.inst = sb.String()
}

// checkStmt checks every SELECT block of s: its CTE bodies, its UNION
// ALL blocks and the subqueries in their expressions. ctes holds the
// WITH bodies in scope by name.
func (c *checker) checkStmt(s *sql.SelectStmt, ctes map[string]*sql.SelectStmt) {
	if len(s.With) > 0 {
		ctes = maps.Clone(ctes)
		for _, cte := range s.With {
			c.checkStmt(cte.Select, ctes)
			ctes[cte.Name] = cte.Select
		}
	}
	for blk := s; blk != nil; blk = blk.UnionAll {
		c.checkBlock(blk, ctes)
	}
}

// checkBlock checks one SELECT block's join and constant predicates,
// then its subqueries.
func (c *checker) checkBlock(s *sql.SelectStmt, ctes map[string]*sql.SelectStmt) {
	anchor := 0 // findings without a column reference point at the first table
	if len(s.From) > 0 {
		anchor = c.tmplOff(s.From[0].Pos)
	}
	exprs := append([]sql.Expr{s.Where, s.Having}, s.GroupBy...)
	c.checkJoins(s.Where, s, ctes)
	c.checkConstPredicates(s.Where, anchor)
	for _, ref := range s.From {
		c.checkJoins(ref.On, s, ctes)
		c.checkConstPredicates(ref.On, anchor)
		exprs = append(exprs, ref.On)
	}
	c.checkConstPredicates(s.Having, anchor)
	for _, item := range s.Items {
		exprs = append(exprs, item.Expr)
	}
	for _, o := range s.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, e := range exprs {
		sql.Walk(e, func(x sql.Expr) bool {
			switch v := x.(type) {
			case *sql.In:
				if v.Sub != nil {
					c.checkStmt(v.Sub, ctes)
				}
			case *sql.SubQuery:
				c.checkStmt(v.Select, ctes)
			}
			return true
		})
	}
}

// checkJoins validates the surrogate-key equijoins among the conjuncts
// of e: an equality between identifier columns of two different catalog
// tables must follow a declared FK (either direction), a fact-to-fact
// link, or a conformed dimension both sides reference. Anything else is
// either a typo'd join or an undeclared relationship the catalog should
// know about.
func (c *checker) checkJoins(e sql.Expr, s *sql.SelectStmt, ctes map[string]*sql.SelectStmt) {
	b, ok := e.(*sql.BinOp)
	if ok && b.Op == "AND" {
		c.checkJoins(b.L, s, ctes)
		c.checkJoins(b.R, s, ctes)
		return
	}
	if !ok || b.Op != "=" {
		return
	}
	lref, lok := b.L.(*sql.ColRef)
	rref, rok := b.R.(*sql.ColRef)
	if !lok || !rok {
		return
	}
	l, lok := resolve(lref, s, ctes)
	r, rok := resolve(rref, s, ctes)
	if !lok || !rok || l.col.Type != schema.Identifier || r.col.Type != schema.Identifier ||
		l.table == r.table { // a self-join through table aliases
		return
	}
	if joinJustified(l.table, l.col.Name, r.table, r.col.Name) ||
		joinJustified(r.table, r.col.Name, l.table, l.col.Name) {
		return
	}
	c.errorf(c.tmplOff(lref.Pos),
		"join %s.%s = %s.%s follows no declared foreign key, fact link, or conformed dimension",
		l.table.Name, l.col.Name, r.table.Name, r.col.Name)
}

// resolve finds a join operand's catalog column by name. A name the
// catalog lacks may be a bare-column alias in a CTE that s reads (q78's
// `ss_customer_sk cust`), followed one level.
func resolve(ref *sql.ColRef, s *sql.SelectStmt, ctes map[string]*sql.SelectStmt) (catalogColumn, bool) {
	if cc, ok := catalogColumns()[ref.Name]; ok {
		return cc, true
	}
	for _, from := range s.From {
		body := ctes[from.Table]
		if body == nil || ref.Table != "" && ref.Table != from.Binding() {
			continue
		}
		for _, item := range body.Items {
			if src, ok := item.Expr.(*sql.ColRef); ok && item.Alias == ref.Name {
				cc, ok := catalogColumns()[src.Name]
				return cc, ok
			}
		}
	}
	return catalogColumn{}, false
}

// joinJustified checks one direction: a.colA joining b.colB.
func joinJustified(a *schema.Table, colA string, b *schema.Table, colB string) bool {
	// Declared FK: a.colA references b, and colB is b's surrogate key.
	for _, fk := range a.ForeignKeys {
		if fk.Column == colA && fk.Ref == b.Name &&
			len(b.PrimaryKey) == 1 && b.PrimaryKey[0] == colB {
			return true
		}
	}
	// Fact-to-fact link: positional match of link columns against the
	// target's composite primary key (e.g. store_returns(sr_item_sk,
	// sr_ticket_number) -> store_sales(ss_item_sk, ss_ticket_number)).
	for _, fl := range schema.FactLinks() {
		if fl.From != a.Name || fl.To != b.Name {
			continue
		}
		for i, lc := range fl.Columns {
			if lc == colA && i < len(b.PrimaryKey) && b.PrimaryKey[i] == colB {
				return true
			}
		}
	}
	// Conformed dimension: both columns are FKs to the same dimension
	// (e.g. ss_sold_date_sk = ws_sold_date_sk via date_dim).
	refA := fkRef(a, colA)
	return refA != "" && refA == fkRef(b, colB)
}

func fkRef(t *schema.Table, colName string) string {
	for _, fk := range t.ForeignKeys {
		if fk.Column == colName {
			return fk.Ref
		}
	}
	return ""
}
