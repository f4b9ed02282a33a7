package plan

import (
	"strconv"
	"strings"

	"tpcds/internal/sql"
)

// Fingerprint renders a parsed statement to a canonical byte string
// usable as a cache key. The engine only ever sees instantiated SQL
// text (qgen substitutes parameters before parsing), so two executions
// of the same template differ only in literals; with keepLiterals
// false every literal collapses to a placeholder (IN lists keep their
// length, which selectivity estimation depends on) and the fingerprint
// identifies the template's shape. With keepLiterals true the
// fingerprint identifies the exact computation — the key
// common-subexpression elimination uses.
//
// Every identifier and literal is length-prefixed, so no combination
// of names can collide the way naive string concatenation does.
func Fingerprint(s *sql.SelectStmt, keepLiterals bool) string {
	var sb strings.Builder
	fp := fingerprinter{sb: &sb, keepLiterals: keepLiterals}
	fp.stmt(s)
	return sb.String()
}

// fingerprinter serializes AST nodes with explicit tags and length
// prefixes.
type fingerprinter struct {
	sb           *strings.Builder
	keepLiterals bool
}

func (f *fingerprinter) tag(t byte) { f.sb.WriteByte(t) }
func (f *fingerprinter) num(n int)  { f.sb.WriteString(strconv.Itoa(n)); f.sb.WriteByte(';') }
func (f *fingerprinter) boolv(b bool) {
	if b {
		f.sb.WriteByte('1')
	} else {
		f.sb.WriteByte('0')
	}
}

// str writes a length-prefixed string: "<len>:<bytes>".
func (f *fingerprinter) str(s string) {
	f.sb.WriteString(strconv.Itoa(len(s)))
	f.sb.WriteByte(':')
	f.sb.WriteString(s)
}

func (f *fingerprinter) stmt(s *sql.SelectStmt) {
	if s == nil {
		f.tag('_')
		return
	}
	f.tag('S')
	f.num(len(s.With))
	for _, cte := range s.With {
		f.str(cte.Name)
		f.stmt(cte.Select)
	}
	f.boolv(s.Distinct)
	f.num(len(s.Items))
	for _, it := range s.Items {
		f.boolv(it.Star)
		f.str(it.Alias)
		if !it.Star {
			f.expr(it.Expr)
		}
	}
	f.num(len(s.From))
	for _, ref := range s.From {
		f.str(ref.Table)
		f.str(ref.Alias)
		f.boolv(ref.LeftJoin)
		f.expr(ref.On)
	}
	f.expr(s.Where)
	f.num(len(s.GroupBy))
	for _, g := range s.GroupBy {
		f.expr(g)
	}
	f.boolv(s.Rollup)
	f.boolv(s.Cube)
	f.expr(s.Having)
	f.num(len(s.OrderBy))
	for _, oi := range s.OrderBy {
		f.boolv(oi.Desc)
		f.expr(oi.Expr)
	}
	f.num(s.Limit)
	f.num(s.Offset)
	f.stmt(s.UnionAll)
}

func (f *fingerprinter) expr(e sql.Expr) {
	switch v := e.(type) {
	case nil:
		f.tag('_')
	case *sql.ColRef:
		f.tag('c')
		f.str(v.Table)
		f.str(v.Name)
	case *sql.Lit:
		f.tag('l')
		if f.keepLiterals {
			f.str(v.Render())
		} else {
			f.str("?")
		}
	case *sql.BinOp:
		f.tag('b')
		f.str(v.Op)
		f.expr(v.L)
		f.expr(v.R)
	case *sql.UnaryOp:
		f.tag('u')
		f.str(v.Op)
		f.expr(v.X)
	case *sql.Between:
		f.tag('w')
		f.boolv(v.Not)
		f.expr(v.X)
		f.expr(v.Lo)
		f.expr(v.Hi)
	case *sql.In:
		f.tag('i')
		f.boolv(v.Not)
		f.expr(v.X)
		// The list length survives placeholder collapse: IN-list
		// selectivity is count/NDV, so shape identity must include it.
		f.num(len(v.List))
		for _, le := range v.List {
			f.expr(le)
		}
		f.stmt(v.Sub)
	case *sql.Like:
		f.tag('k')
		f.boolv(v.Not)
		f.expr(v.X)
		if f.keepLiterals {
			f.str(v.Pattern)
		} else {
			f.str("?")
		}
	case *sql.IsNull:
		f.tag('n')
		f.boolv(v.Not)
		f.expr(v.X)
	case *sql.CaseExpr:
		f.tag('e')
		f.num(len(v.Whens))
		for _, w := range v.Whens {
			f.expr(w.Cond)
			f.expr(w.Result)
		}
		f.expr(v.Else)
	case *sql.FuncCall:
		f.tag('f')
		f.str(v.Name)
		f.boolv(v.Distinct)
		f.boolv(v.Star)
		f.num(len(v.Args))
		for _, a := range v.Args {
			f.expr(a)
		}
	case *sql.Window:
		f.tag('o')
		f.expr(v.Agg)
		f.num(len(v.PartitionBy))
		for _, p := range v.PartitionBy {
			f.expr(p)
		}
	case *sql.SubQuery:
		f.tag('q')
		f.stmt(v.Select)
	default:
		// Unknown node kinds serialize as their display form; adding an
		// AST node without extending this switch degrades cache/CSE hit
		// quality but never correctness.
		f.tag('x')
		f.str(e.Render())
	}
}
