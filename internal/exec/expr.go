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
			// Date arithmetic: date ± days stays a date; date - date is a
			// day count (arithType types them alike).
			return storage.Value{K: kindOf(b.t), I: arithI(b.op[0], lv.I, rv.I)}
		}
		f, _ := arithF(b.op[0], lv.AsFloat(), rv.AsFloat())
		return storage.Float(f)
	case "/":
		if f, null := arithF('/', lv.AsFloat(), rv.AsFloat()); !null {
			return storage.Float(f)
		}
		return storage.Null // SQL raises; NULL keeps streams running
	case "||":
		return storage.Str(lv.String() + rv.String())
	default:
		panic(fmt.Sprintf("exec: unknown operator %q", b.op))
	}
}

// arithI and arithF are eval's and the vector programs' arithmetic, on
// the operator's first byte; a float division by zero is NULL.
func arithI(op byte, x, y int64) int64 {
	switch op {
	case '+':
		return x + y
	case '-':
		return x - y
	}
	return x * y
}

func arithF(op byte, x, y float64) (f float64, null bool) {
	switch op {
	case '+':
		return x + y, false
	case '-':
		return x - y, false
	case '*':
		return x * y, false
	}
	if y == 0 {
		return 0, true
	}
	return x / y, false
}

// kindOf is the physical kind of a schema type's values.
func kindOf(t schema.Type) storage.Kind {
	switch t {
	case schema.Decimal:
		return storage.KindFloat
	case schema.Char, schema.Varchar:
		return storage.KindString
	case schema.Date:
		return storage.KindDate
	}
	return storage.KindInt
}

// conform converts v to kind k as promotion (bind.go) types it: numbers
// to a float, anything to its rendering as a string, integers and dates
// into each other; never a float to an integer.
func conform(v storage.Value, k storage.Kind) storage.Value {
	switch {
	case v.K == k || v.IsNull():
		return v
	case k == storage.KindFloat:
		return storage.Float(v.AsFloat())
	case k == storage.KindString:
		return storage.Str(v.String())
	case v.K == storage.KindInt || v.K == storage.KindDate:
		return storage.Value{K: k, I: v.I}
	}
	panic(fmt.Sprintf("exec: a %v value where the type says %v", v.K, k))
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
	return negate([]storage.Value{n.x.eval(row)})
}

// negate is unary minus of integers and floats; anything else is NULL.
func negate(args []storage.Value) storage.Value {
	switch v := args[0]; v.K {
	case storage.KindInt:
		return storage.Int(-v.I)
	case storage.KindFloat:
		return storage.Float(-v.F)
	}
	return storage.Null
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
// into the same member set.
type inExpr struct {
	x       bexpr
	set     inSet
	hasNull bool // the list/subquery contained NULL
	not     bool
}

// inSet holds the non-NULL members of an IN, each once, in the typed
// set of its kind, for eval and the kernels alike. A value matches a
// member of its own kind only, as equal GroupKeys do: floats by their
// bits, with every NaN one member.
type inSet struct {
	ints, dates map[int64]bool
	flts        map[uint64]bool
	strs        map[string]bool
}

// add enters a non-NULL member.
func (s *inSet) add(v storage.Value) {
	switch v.K {
	case storage.KindInt:
		s.ints = enter(s.ints, v.I)
	case storage.KindDate:
		s.dates = enter(s.dates, v.I)
	case storage.KindFloat:
		s.flts = enter(s.flts, floatMember(v.F))
	default:
		s.strs = enter(s.strs, v.S)
	}
}

// enter adds k to m, making m on its first member.
func enter[K comparable](m map[K]bool, k K) map[K]bool {
	if m == nil {
		m = map[K]bool{}
	}
	m[k] = true
	return m
}

// has reports whether v is a member.
func (s *inSet) has(v storage.Value) bool {
	switch v.K {
	case storage.KindInt:
		return s.ints[v.I]
	case storage.KindDate:
		return s.dates[v.I]
	case storage.KindFloat:
		return s.flts[floatMember(v.F)]
	case storage.KindString:
		return s.strs[v.S]
	}
	return false
}

// floatMember is the set key of a float member: its bits, one for
// every NaN.
func floatMember(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

func (i *inExpr) typ() schema.Type { return schema.Integer }
func (i *inExpr) mask() uint64     { return i.x.mask() }
func (i *inExpr) eval(row []storage.Value) storage.Value {
	x := i.x.eval(row)
	if x.IsNull() {
		return storage.Null
	}
	found := i.set.has(x)
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
			return conform(c.results[i].eval(row), kindOf(c.t))
		}
	}
	if c.elseE != nil {
		return conform(c.elseE.eval(row), kindOf(c.t))
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
	args := make([]storage.Value, len(f.args))
	for i, a := range f.args {
		args[i] = a.eval(row)
	}
	return conform(scalarFuncs[f.name].fn(args), kindOf(f.t))
}

// scalarFunc is one supported non-aggregate function: its result type
// (0: the arguments' type, by promotion for COALESCE) and its value over
// evaluated arguments — the one implementation eval and the vector
// programs share.
type scalarFunc struct {
	t  schema.Type
	fn func(args []storage.Value) storage.Value
}

var scalarFuncs = map[string]scalarFunc{
	"COALESCE": {0, func(args []storage.Value) storage.Value {
		for _, v := range args {
			if !v.IsNull() {
				return v
			}
		}
		return storage.Null
	}},
	"ABS": {0, func(args []storage.Value) storage.Value {
		switch v := args[0]; v.K {
		case storage.KindInt:
			return storage.Int(max(v.I, -v.I))
		case storage.KindFloat:
			return storage.Float(math.Abs(v.F))
		}
		return storage.Null
	}},
	"ROUND": {schema.Decimal, func(args []storage.Value) storage.Value {
		digits := storage.Int(0)
		if len(args) > 1 {
			digits = args[1]
		}
		if args[0].IsNull() || digits.IsNull() {
			return storage.Null
		}
		p := math.Pow(10, float64(digits.AsInt()))
		return storage.Float(math.Round(args[0].AsFloat()*p) / p)
	}},
	"SUBSTR": {schema.Varchar, substr}, "SUBSTRING": {schema.Varchar, substr},
	"UPPER": {schema.Varchar, strFunc(strings.ToUpper)},
	"LOWER": {schema.Varchar, strFunc(strings.ToLower)},
	"TO_DATE": {schema.Date, func(args []storage.Value) storage.Value {
		if args[0].IsNull() {
			return storage.Null
		}
		d, err := storage.ParseDate(args[0].String())
		if err != nil {
			return storage.Null
		}
		return storage.DateV(d)
	}},
}

// substr is SUBSTR(s, start[, n]): 1-based, clamped; a NULL start or n
// counts as 0.
func substr(args []storage.Value) storage.Value {
	if args[0].IsNull() {
		return storage.Null
	}
	s := args[0].String()
	start := max(int(args[1].AsInt()), 1)
	if start > len(s) {
		return storage.Str("")
	}
	out := s[start-1:]
	if len(args) > 2 {
		out = out[:min(max(int(args[2].AsInt()), 0), len(out))]
	}
	return storage.Str(out)
}

// strFunc lifts a string function to a scalar function: NULL in, NULL
// out.
func strFunc(f func(string) string) func([]storage.Value) storage.Value {
	return func(args []storage.Value) storage.Value {
		if args[0].IsNull() {
			return storage.Null
		}
		return storage.Str(f(args[0].String()))
	}
}

// ScalarFuncType reports whether the engine supports the named scalar
// function and its result type; sameAsArg means the result takes the
// first argument's type. The static template checker keys off this so
// it can never accept a function the engine would reject at bind time.
func ScalarFuncType(name string) (t schema.Type, sameAsArg, ok bool) {
	f, ok := scalarFuncs[name]
	if !ok {
		return 0, false, false
	}
	if f.t == 0 {
		return 0, true, true
	}
	return f.t, false, true
}
