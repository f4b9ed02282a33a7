package sql

import (
	"strconv"
	"strings"
)

// SelectStmt is a (possibly unioned) SELECT statement. JOIN ... ON
// clauses are normalized at parse time: joined tables land in From and
// their ON conjuncts are ANDed into Where, except LEFT OUTER joins which
// keep their condition on the TableRef.
type SelectStmt struct {
	With     []CTE
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	// Rollup marks GROUP BY ROLLUP(...): aggregate rows are produced
	// for every prefix of GroupBy, subtotal levels carrying NULLs
	// (SQL-99 OLAP amendment). Cube marks GROUP BY CUBE(...): rows for
	// every subset of GroupBy.
	Rollup  bool
	Cube    bool
	Having  Expr
	OrderBy []OrderItem
	Limit   int // -1 when absent
	Offset  int // 0 when absent
	// UnionAll chains additional SELECT blocks (UNION ALL semantics).
	UnionAll *SelectStmt
}

// CTE is one WITH entry.
type CTE struct {
	Name   string
	Select *SelectStmt
}

// SelectItem is one projection. Star marks `SELECT *`.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// TableRef references a base table or CTE, optionally aliased. For LEFT
// OUTER joins, LeftJoin is true and On carries the join condition; the
// table is outer-joined against everything already in scope.
type TableRef struct {
	Table    string
	Alias    string
	LeftJoin bool
	On       Expr
	// Pos is the byte offset of the table name in the query text.
	Pos int
}

// Binding returns the name this table is referenced by in expressions.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY entry. Desc selects descending order.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is the expression interface. Render produces a canonical string
// used for structural equality (matching GROUP BY expressions against
// SELECT items) and display.
type Expr interface {
	Render() string
}

// ColRef references column Name, optionally qualified by a table binding.
// Pos is the byte offset of the reference in the query text (the
// qualifier when present), for diagnostics; zero-value ColRefs built
// programmatically carry Pos 0.
type ColRef struct {
	Table string
	Name  string
	Pos   int
}

// Lit is a literal: Number (text preserved), String, or Null.
type Lit struct {
	Kind   LitKind
	Num    float64
	IsInt  bool
	IntVal int64
	Str    string
}

// LitKind discriminates literal types.
type LitKind int

const (
	// LitNumber is a numeric literal.
	LitNumber LitKind = iota
	// LitString is a string literal.
	LitString
	// LitNull is the NULL literal.
	LitNull
	// LitDate is a DATE 'yyyy-mm-dd' literal (Str holds the text).
	LitDate
)

// BinOp is a binary operation: arithmetic (+ - * /), comparison
// (= <> < <= > >=), or logical (AND OR).
type BinOp struct {
	Op   string
	L, R Expr
}

// UnaryOp is NOT or unary minus.
type UnaryOp struct {
	Op string // "NOT" or "-"
	X  Expr
}

// Between is X [NOT] BETWEEN Lo AND Hi.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

// In is X [NOT] IN (list) or X [NOT] IN (subquery).
type In struct {
	X    Expr
	List []Expr
	Sub  *SelectStmt
	Not  bool
}

// Like is X [NOT] LIKE pattern ('%' and '_' wildcards).
type Like struct {
	X       Expr
	Pattern string
	Not     bool
}

// IsNull is X IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// CaseExpr is CASE WHEN ... THEN ... [ELSE ...] END (searched form).
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr
}

// WhenClause is one WHEN/THEN arm.
type WhenClause struct {
	Cond, Result Expr
}

// FuncCall is a function or aggregate invocation. Star marks COUNT(*).
type FuncCall struct {
	Name     string // normalized upper case
	Args     []Expr
	Distinct bool
	Star     bool
}

// Window is an aggregate evaluated OVER (PARTITION BY ...).
type Window struct {
	Agg         *FuncCall
	PartitionBy []Expr
}

// SubQuery is a scalar subquery used as an expression.
type SubQuery struct {
	Select *SelectStmt
}

// Walk calls fn on e and, while fn returns true for a node, on the
// node's subexpressions in text order. It does not enter subqueries: an
// IN or scalar subquery's statement is the caller's to walk.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch v := e.(type) {
	case *BinOp:
		Walk(v.L, fn)
		Walk(v.R, fn)
	case *UnaryOp:
		Walk(v.X, fn)
	case *Between:
		Walk(v.X, fn)
		Walk(v.Lo, fn)
		Walk(v.Hi, fn)
	case *In:
		Walk(v.X, fn)
		for _, x := range v.List {
			Walk(x, fn)
		}
	case *Like:
		Walk(v.X, fn)
	case *IsNull:
		Walk(v.X, fn)
	case *CaseExpr:
		for _, w := range v.Whens {
			Walk(w.Cond, fn)
			Walk(w.Result, fn)
		}
		Walk(v.Else, fn)
	case *FuncCall:
		for _, a := range v.Args {
			Walk(a, fn)
		}
	case *Window:
		Walk(v.Agg, fn)
		for _, p := range v.PartitionBy {
			Walk(p, fn)
		}
	}
}

// ExprPos is the byte offset of e's first column reference, where a
// diagnostic about e points; 0 when e has none.
func ExprPos(e Expr) (pos int) {
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*ColRef); ok && pos == 0 {
			pos = c.Pos
		}
		return pos == 0
	})
	return pos
}

// aggregateFuncs lists the supported aggregate function names.
var aggregateFuncs = map[string]bool{
	"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true,
	"STDDEV_SAMP": true,
}

// IsAggregate reports whether the name is an aggregate function.
func IsAggregate(name string) bool { return aggregateFuncs[strings.ToUpper(name)] }

// Render implementations produce a canonical form: identifiers lower
// case, keywords upper case, minimal parentheses (fully parenthesized
// binary ops for unambiguity).

func (c *ColRef) Render() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

func (l *Lit) Render() string {
	switch l.Kind {
	case LitNull:
		return "NULL"
	case LitString:
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	case LitDate:
		return "DATE '" + l.Str + "'"
	default:
		if l.IsInt {
			return itoa(l.IntVal)
		}
		return ftoa(l.Num)
	}
}

func (b *BinOp) Render() string {
	return "(" + b.L.Render() + " " + b.Op + " " + b.R.Render() + ")"
}

func (u *UnaryOp) Render() string {
	if u.Op == "NOT" {
		return "(NOT " + u.X.Render() + ")"
	}
	return "(-" + u.X.Render() + ")"
}

func (b *Between) Render() string {
	not := ""
	if b.Not {
		not = " NOT"
	}
	return "(" + b.X.Render() + not + " BETWEEN " + b.Lo.Render() + " AND " + b.Hi.Render() + ")"
}

func (i *In) Render() string {
	not := ""
	if i.Not {
		not = " NOT"
	}
	var sb strings.Builder
	sb.WriteString("(" + i.X.Render() + not + " IN (")
	if i.Sub != nil {
		sb.WriteString("<subquery>")
	} else {
		for j, e := range i.List {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.Render())
		}
	}
	sb.WriteString("))")
	return sb.String()
}

func (l *Like) Render() string {
	not := ""
	if l.Not {
		not = " NOT"
	}
	return "(" + l.X.Render() + not + " LIKE '" + l.Pattern + "')"
}

func (n *IsNull) Render() string {
	if n.Not {
		return "(" + n.X.Render() + " IS NOT NULL)"
	}
	return "(" + n.X.Render() + " IS NULL)"
}

func (c *CaseExpr) Render() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		sb.WriteString(" WHEN " + w.Cond.Render() + " THEN " + w.Result.Render())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.Render())
	}
	sb.WriteString(" END")
	return sb.String()
}

func (f *FuncCall) Render() string {
	var sb strings.Builder
	sb.WriteString(f.Name + "(")
	if f.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if f.Star {
		sb.WriteString("*")
	}
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Render())
	}
	sb.WriteString(")")
	return sb.String()
}

func (w *Window) Render() string {
	var sb strings.Builder
	sb.WriteString(w.Agg.Render() + " OVER (PARTITION BY ")
	for i, p := range w.PartitionBy {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.Render())
	}
	sb.WriteString(")")
	return sb.String()
}

func (s *SubQuery) Render() string { return "(<subquery>)" }

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
