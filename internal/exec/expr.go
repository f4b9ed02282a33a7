package exec

import (
	"fmt"
	"math"
	"strings"

	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// bexpr is a bound (executable) expression over a row layout. Boolean
// results use SQL three-valued logic encoded as Int 1 (true), Int 0
// (false) and Null (unknown).
type bexpr interface {
	eval(row []storage.Value) storage.Value
	typ() schema.Type
	mask() uint64 // bit per referenced table instance
}

// colExpr reads an absolute offset of the row layout.
type colExpr struct {
	off    int
	t      schema.Type
	tblBit uint64
}

func (c *colExpr) eval(row []storage.Value) storage.Value { return row[c.off] }
func (c *colExpr) typ() schema.Type                       { return c.t }
func (c *colExpr) mask() uint64                           { return c.tblBit }

// exprCols returns the table columns es read.
func exprCols(es ...bexpr) (out []*colExpr) {
	for _, e := range es {
		switch v := e.(type) {
		case *colExpr:
			out = append(out, v)
		case *binExpr:
			out = append(out, exprCols(v.l, v.r)...)
		case *notExpr:
			out = append(out, exprCols(v.x)...)
		case *negExpr:
			out = append(out, exprCols(v.x)...)
		case *betweenExpr:
			out = append(out, exprCols(v.x, v.lo, v.hi)...)
		case *inExpr:
			out = append(out, exprCols(v.x)...)
		case *likeExpr:
			out = append(out, exprCols(v.x)...)
		case *isNullExpr:
			out = append(out, exprCols(v.x)...)
		case *caseExpr:
			out = append(append(out, exprCols(v.conds...)...), exprCols(v.results...)...)
			if v.elseE != nil {
				out = append(out, exprCols(v.elseE)...)
			}
		case *funcExpr:
			out = append(out, exprCols(v.args...)...)
		}
	}
	return out
}

// litExpr is a constant.
type litExpr struct {
	v storage.Value
	t schema.Type
}

func (l *litExpr) eval([]storage.Value) storage.Value { return l.v }
func (l *litExpr) typ() schema.Type                   { return l.t }
func (l *litExpr) mask() uint64                       { return 0 }

// boolVal encodes three-valued logic results.
func boolVal(b bool) storage.Value {
	if b {
		return storage.Int(1)
	}
	return storage.Int(0)
}

// truthy reports whether a predicate result passes a filter (NULL and
// false both fail).
func truthy(v storage.Value) bool {
	return !v.IsNull() && v.AsInt() != 0
}

// binExpr covers arithmetic, comparison and logical binary operators.
type binExpr struct {
	op   string
	l, r bexpr
	t    schema.Type
}

func (b *binExpr) typ() schema.Type { return b.t }
func (b *binExpr) mask() uint64     { return b.l.mask() | b.r.mask() }

func (b *binExpr) eval(row []storage.Value) storage.Value {
	switch b.op {
	case "AND":
		lv := b.l.eval(row)
		if !lv.IsNull() && lv.AsInt() == 0 {
			return boolVal(false)
		}
		rv := b.r.eval(row)
		if !rv.IsNull() && rv.AsInt() == 0 {
			return boolVal(false)
		}
		if lv.IsNull() || rv.IsNull() {
			return storage.Null
		}
		return boolVal(true)
	case "OR":
		lv := b.l.eval(row)
		if !lv.IsNull() && lv.AsInt() != 0 {
			return boolVal(true)
		}
		rv := b.r.eval(row)
		if !rv.IsNull() && rv.AsInt() != 0 {
			return boolVal(true)
		}
		if lv.IsNull() || rv.IsNull() {
			return storage.Null
		}
		return boolVal(false)
	}
	lv := b.l.eval(row)
	rv := b.r.eval(row)
	if lv.IsNull() || rv.IsNull() {
		return storage.Null
	}
	switch b.op {
	case "=", "<>", "<", "<=", ">", ">=":
		c := storage.Compare(lv, rv)
		switch b.op {
		case "=":
			return boolVal(c == 0)
		case "<>":
			return boolVal(c != 0)
		case "<":
			return boolVal(c < 0)
		case "<=":
			return boolVal(c <= 0)
		case ">":
			return boolVal(c > 0)
		default:
			return boolVal(c >= 0)
		}
	case "+", "-", "*":
		intish := func(k storage.Kind) bool { return k == storage.KindInt || k == storage.KindDate }
		if intish(lv.K) && intish(rv.K) {
			var out int64
			switch b.op {
			case "+":
				out = lv.I + rv.I
			case "-":
				out = lv.I - rv.I
			default:
				out = lv.I * rv.I
			}
			// Date arithmetic: date ± days stays a date; date - date is a
			// day count.
			lDate, rDate := lv.K == storage.KindDate, rv.K == storage.KindDate
			if b.op != "*" && lDate != rDate {
				return storage.DateV(out)
			}
			return storage.Int(out)
		}
		lf, rf := lv.AsFloat(), rv.AsFloat()
		switch b.op {
		case "+":
			return storage.Float(lf + rf)
		case "-":
			return storage.Float(lf - rf)
		default:
			return storage.Float(lf * rf)
		}
	case "/":
		rf := rv.AsFloat()
		if rf == 0 {
			return storage.Null // SQL raises; NULL keeps streams running
		}
		return storage.Float(lv.AsFloat() / rf)
	case "||":
		return storage.Str(lv.String() + rv.String())
	default:
		panic(fmt.Sprintf("exec: unknown operator %q", b.op))
	}
}

// notExpr negates a boolean with three-valued semantics.
type notExpr struct{ x bexpr }

func (n *notExpr) typ() schema.Type { return schema.Integer }
func (n *notExpr) mask() uint64     { return n.x.mask() }
func (n *notExpr) eval(row []storage.Value) storage.Value {
	v := n.x.eval(row)
	if v.IsNull() {
		return storage.Null
	}
	return boolVal(v.AsInt() == 0)
}

// negExpr is unary minus.
type negExpr struct{ x bexpr }

func (n *negExpr) typ() schema.Type { return n.x.typ() }
func (n *negExpr) mask() uint64     { return n.x.mask() }
func (n *negExpr) eval(row []storage.Value) storage.Value {
	v := n.x.eval(row)
	switch v.K {
	case storage.KindInt:
		return storage.Int(-v.I)
	case storage.KindFloat:
		return storage.Float(-v.F)
	case storage.KindNull:
		return storage.Null
	default:
		return storage.Null
	}
}

// betweenExpr is x [NOT] BETWEEN lo AND hi.
type betweenExpr struct {
	x, lo, hi bexpr
	not       bool
}

func (b *betweenExpr) typ() schema.Type { return schema.Integer }
func (b *betweenExpr) mask() uint64     { return b.x.mask() | b.lo.mask() | b.hi.mask() }
func (b *betweenExpr) eval(row []storage.Value) storage.Value {
	x := b.x.eval(row)
	lo := b.lo.eval(row)
	hi := b.hi.eval(row)
	if x.IsNull() || lo.IsNull() || hi.IsNull() {
		return storage.Null
	}
	in := storage.Compare(x, lo) >= 0 && storage.Compare(x, hi) <= 0
	if b.not {
		in = !in
	}
	return boolVal(in)
}

// inExpr is x [NOT] IN (values). Subqueries are evaluated at bind time
// into the same value-set representation.
type inExpr struct {
	x       bexpr
	set     map[string]bool // GroupKey-encoded members
	vals    []storage.Value // non-NULL members (for typed kernel sets)
	hasNull bool            // the list/subquery contained NULL
	not     bool
}

func (i *inExpr) typ() schema.Type { return schema.Integer }
func (i *inExpr) mask() uint64     { return i.x.mask() }
func (i *inExpr) eval(row []storage.Value) storage.Value {
	x := i.x.eval(row)
	if x.IsNull() {
		return storage.Null
	}
	found := i.set[x.GroupKey()]
	if !found && i.hasNull {
		// x IN (..., NULL) is UNKNOWN when no member matches.
		return storage.Null
	}
	if i.not {
		found = !found
	}
	return boolVal(found)
}

// likeExpr implements SQL LIKE with % and _ wildcards.
type likeExpr struct {
	x       bexpr
	pattern string
	not     bool
}

func (l *likeExpr) typ() schema.Type { return schema.Integer }
func (l *likeExpr) mask() uint64     { return l.x.mask() }
func (l *likeExpr) eval(row []storage.Value) storage.Value {
	v := l.x.eval(row)
	if v.IsNull() {
		return storage.Null
	}
	m := likeMatch(v.String(), l.pattern)
	if l.not {
		m = !m
	}
	return boolVal(m)
}

// likeMatch matches s against a LIKE pattern (% = any run, _ = any one
// byte) with linear backtracking over %.
func likeMatch(s, pat string) bool {
	var si, pi int
	star := -1
	sBack := 0
	for si < len(s) {
		if pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]) {
			si++
			pi++
			continue
		}
		if pi < len(pat) && pat[pi] == '%' {
			star = pi
			sBack = si
			pi++
			continue
		}
		if star >= 0 {
			pi = star + 1
			sBack++
			si = sBack
			continue
		}
		return false
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// isNullExpr is x IS [NOT] NULL.
type isNullExpr struct {
	x   bexpr
	not bool
}

func (n *isNullExpr) typ() schema.Type { return schema.Integer }
func (n *isNullExpr) mask() uint64     { return n.x.mask() }
func (n *isNullExpr) eval(row []storage.Value) storage.Value {
	isNull := n.x.eval(row).IsNull()
	if n.not {
		isNull = !isNull
	}
	return boolVal(isNull)
}

// caseExpr is the searched CASE.
type caseExpr struct {
	conds   []bexpr
	results []bexpr
	elseE   bexpr
	t       schema.Type
}

func (c *caseExpr) typ() schema.Type { return c.t }
func (c *caseExpr) mask() uint64 {
	var m uint64
	for i := range c.conds {
		m |= c.conds[i].mask() | c.results[i].mask()
	}
	if c.elseE != nil {
		m |= c.elseE.mask()
	}
	return m
}
func (c *caseExpr) eval(row []storage.Value) storage.Value {
	for i, cond := range c.conds {
		if truthy(cond.eval(row)) {
			return c.results[i].eval(row)
		}
	}
	if c.elseE != nil {
		return c.elseE.eval(row)
	}
	return storage.Null
}

// funcExpr covers the scalar functions of the subset.
type funcExpr struct {
	name string
	args []bexpr
	t    schema.Type
}

func (f *funcExpr) typ() schema.Type { return f.t }
func (f *funcExpr) mask() uint64 {
	var m uint64
	for _, a := range f.args {
		m |= a.mask()
	}
	return m
}

func (f *funcExpr) eval(row []storage.Value) storage.Value {
	switch f.name {
	case "COALESCE":
		for _, a := range f.args {
			if v := a.eval(row); !v.IsNull() {
				return v
			}
		}
		return storage.Null
	case "ABS":
		v := f.args[0].eval(row)
		switch v.K {
		case storage.KindInt:
			if v.I < 0 {
				return storage.Int(-v.I)
			}
			return v
		case storage.KindFloat:
			return storage.Float(math.Abs(v.F))
		default:
			return storage.Null
		}
	case "ROUND":
		v := f.args[0].eval(row)
		if v.IsNull() {
			return storage.Null
		}
		digits := 0
		if len(f.args) > 1 {
			d := f.args[1].eval(row)
			if d.IsNull() {
				return storage.Null
			}
			digits = int(d.AsInt())
		}
		p := math.Pow(10, float64(digits))
		return storage.Float(math.Round(v.AsFloat()*p) / p)
	case "SUBSTR", "SUBSTRING":
		v := f.args[0].eval(row)
		if v.IsNull() {
			return storage.Null
		}
		s := v.String()
		start := int(f.args[1].eval(row).AsInt())
		if start < 1 {
			start = 1
		}
		if start > len(s) {
			return storage.Str("")
		}
		out := s[start-1:]
		if len(f.args) > 2 {
			n := int(f.args[2].eval(row).AsInt())
			if n < 0 {
				n = 0
			}
			if n < len(out) {
				out = out[:n]
			}
		}
		return storage.Str(out)
	case "UPPER":
		v := f.args[0].eval(row)
		if v.IsNull() {
			return storage.Null
		}
		return storage.Str(strings.ToUpper(v.String()))
	case "LOWER":
		v := f.args[0].eval(row)
		if v.IsNull() {
			return storage.Null
		}
		return storage.Str(strings.ToLower(v.String()))
	case "TO_DATE":
		v := f.args[0].eval(row)
		if v.IsNull() {
			return storage.Null
		}
		d, err := storage.ParseDate(v.String())
		if err != nil {
			return storage.Null
		}
		return storage.DateV(d)
	default:
		panic(fmt.Sprintf("exec: unevaluated function %s", f.name))
	}
}

// scalarFuncs lists supported non-aggregate functions and their result
// type derivation ("" = same as first argument).
var scalarFuncs = map[string]schema.Type{
	"COALESCE": 0, "ABS": 0, "ROUND": schema.Decimal,
	"SUBSTR": schema.Varchar, "SUBSTRING": schema.Varchar,
	"UPPER": schema.Varchar, "LOWER": schema.Varchar,
	"TO_DATE": schema.Date,
}

// ScalarFuncType reports whether the engine supports the named scalar
// function and its result type; sameAsArg means the result takes the
// first argument's type. The static template checker keys off this so
// it can never accept a function the engine would reject at bind time.
func ScalarFuncType(name string) (t schema.Type, sameAsArg, ok bool) {
	rt, ok := scalarFuncs[name]
	if !ok {
		return 0, false, false
	}
	if rt == 0 {
		return 0, true, true
	}
	return rt, false, true
}
