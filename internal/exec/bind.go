package exec

import (
	"fmt"
	"strings"

	"tpcds/internal/schema"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// tabInst is one FROM entry bound to a physical table (base table or
// materialized CTE). Each instance owns a contiguous span of the
// query's canonical row layout starting at offset.
type tabInst struct {
	binding  string
	tab      *storage.Table
	offset   int
	leftJoin bool
	on       sql.Expr
}

func (t *tabInst) width() int { return t.tab.NumCols() }

// binder resolves names and produces bound expressions. When slots is
// non-nil the binder is in post-aggregation mode: expressions matching a
// slot render (group-by expressions, aggregates, window calls) resolve
// to their slot instead of base columns.
type binder struct {
	eng    *Engine
	qc     *qctx // the owning query's cancellation/phase state
	ctes   map[string]*storage.Table
	tables []tabInst
	total  int
	slots  map[string]bexpr
	// sels caches each table's selection during joinRows; nil outside it.
	sels []*selection
}

func newBinder(eng *Engine, qc *qctx, ctes map[string]*storage.Table) *binder {
	return &binder{eng: eng, qc: qc, ctes: ctes}
}

// addTable registers a FROM entry. CTE names shadow base tables.
func (b *binder) addTable(ref sql.TableRef) error {
	var tab *storage.Table
	if t, ok := b.ctes[ref.Table]; ok {
		tab = t
	} else if t := b.eng.db.Table(ref.Table); t != nil {
		tab = t
	} else {
		return fmt.Errorf("unknown table %q", ref.Table)
	}
	binding := ref.Binding()
	for _, ti := range b.tables {
		if ti.binding == binding {
			return fmt.Errorf("duplicate table binding %q", binding)
		}
	}
	if len(b.tables) >= 64 {
		return fmt.Errorf("too many tables in FROM (max 64)")
	}
	b.tables = append(b.tables, tabInst{
		binding:  binding,
		tab:      tab,
		offset:   b.total,
		leftJoin: ref.LeftJoin,
		on:       ref.On,
	})
	b.total += tab.NumCols()
	return nil
}

// resolveColumn finds a column reference in the registered tables.
func (b *binder) resolveColumn(c *sql.ColRef) (*colExpr, error) {
	if c.Table != "" {
		for ti := range b.tables {
			inst := &b.tables[ti]
			if inst.binding != c.Table {
				continue
			}
			ci := inst.tab.Def.ColumnIndex(c.Name)
			if ci < 0 {
				return nil, fmt.Errorf("table %q has no column %q", c.Table, c.Name)
			}
			col, _ := inst.tab.Def.Column(c.Name)
			return &colExpr{off: inst.offset + ci, t: col.Type, tblBit: 1 << uint(ti)}, nil
		}
		return nil, fmt.Errorf("unknown table binding %q", c.Table)
	}
	var found *colExpr
	for ti := range b.tables {
		inst := &b.tables[ti]
		ci := inst.tab.Def.ColumnIndex(c.Name)
		if ci < 0 {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("ambiguous column %q", c.Name)
		}
		col, _ := inst.tab.Def.Column(c.Name)
		found = &colExpr{off: inst.offset + ci, t: col.Type, tblBit: 1 << uint(ti)}
	}
	if found == nil {
		return nil, fmt.Errorf("unknown column %q", c.Name)
	}
	return found, nil
}

// bindLit converts a literal AST node.
func bindLit(l *sql.Lit) (bexpr, error) {
	switch l.Kind {
	case sql.LitNull:
		return &litExpr{v: storage.Null, t: schema.Char}, nil
	case sql.LitString:
		return &litExpr{v: storage.Str(l.Str), t: schema.Char}, nil
	case sql.LitDate:
		d, err := storage.ParseDate(l.Str)
		if err != nil {
			return nil, err
		}
		return &litExpr{v: storage.DateV(d), t: schema.Date}, nil
	default:
		if l.IsInt {
			return &litExpr{v: storage.Int(l.IntVal), t: schema.Integer}, nil
		}
		return &litExpr{v: storage.Float(l.Num), t: schema.Decimal}, nil
	}
}

// coerceDate converts a string literal to a date when compared against a
// date-typed expression — TPC-DS queries write `d_date BETWEEN
// '1999-02-21' AND ...` without an explicit cast.
func coerceDate(target, e bexpr) bexpr {
	if target.typ() != schema.Date {
		return e
	}
	lit, ok := e.(*litExpr)
	if !ok || lit.v.K != storage.KindString {
		return e
	}
	if d, err := storage.ParseDate(lit.v.S); err == nil {
		return &litExpr{v: storage.DateV(d), t: schema.Date}
	}
	return e
}

// checkComparable rejects comparisons between string and numeric
// operands at bind time — the engine's values are dynamically typed,
// but such a comparison can never be meaningful and would otherwise
// fail deep inside execution.
func checkComparable(op string, l, r bexpr) error {
	isStr := func(t schema.Type) bool { return t == schema.Char || t == schema.Varchar }
	isNum := func(t schema.Type) bool {
		return t == schema.Integer || t == schema.Identifier || t == schema.Decimal || t == schema.Date
	}
	lt, rt := l.typ(), r.typ()
	if (isStr(lt) && isNum(rt)) || (isNum(lt) && isStr(rt)) {
		// NULL literals bind as Char; comparing NULL with anything is
		// legal (always UNKNOWN).
		if le, ok := l.(*litExpr); ok && le.v.IsNull() {
			return nil
		}
		if re, ok := r.(*litExpr); ok && re.v.IsNull() {
			return nil
		}
		return fmt.Errorf("cannot compare %v with %v (operator %s)", lt, rt, op)
	}
	return nil
}

func isComparison(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// arithType types arithmetic as eval computes it: a string for ||, a
// decimal for / and whenever an operand is not an integer or a date;
// otherwise a date for date ± days and an integer for the rest (date -
// date is a day count). A string operand other than a NULL literal is an
// error: eval would compute with 0 in its place.
func arithType(op string, l, r bexpr) (schema.Type, error) {
	intish := func(t schema.Type) bool { return isIntType(t) || t == schema.Date }
	for _, e := range []bexpr{l, r} {
		if lit, ok := e.(*litExpr); op != "||" && kindOf(e.typ()) == storage.KindString && !(ok && lit.v.IsNull()) {
			return 0, fmt.Errorf("cannot apply %s to %v", op, e.typ())
		}
	}
	switch lt, rt := l.typ(), r.typ(); {
	case op == "||":
		return schema.Varchar, nil
	case op == "/" || !intish(lt) || !intish(rt):
		return schema.Decimal, nil
	case op != "*" && (lt == schema.Date) != (rt == schema.Date):
		return schema.Date, nil
	}
	return schema.Integer, nil
}

// promote types a value from an expression of type t or u (CASE
// branches, COALESCE arguments, UNION ALL blocks): a string, else a
// decimal, else the common type, else an integer.
func promote(t, u schema.Type) schema.Type {
	isStr := func(t schema.Type) bool { return t == schema.Char || t == schema.Varchar }
	switch {
	case t == u:
		return t
	case isStr(t) || isStr(u):
		return schema.Varchar
	case t == schema.Decimal || u == schema.Decimal:
		return schema.Decimal
	}
	return schema.Integer
}

// promoteAll promotes the types of es, skipping nil entries and NULL
// literals, which fit any type; all NULL is a NULL literal's type.
func promoteAll(es []bexpr) schema.Type {
	t, seen := schema.Char, false
	for _, e := range es {
		if l, ok := e.(*litExpr); e == nil || ok && l.v.IsNull() {
			continue
		}
		if seen {
			t = promote(t, e.typ())
		} else {
			t, seen = e.typ(), true
		}
	}
	return t
}

// bind converts an AST expression to an executable one. Aggregates and
// windows are only legal when pre-registered as slots (post-aggregation
// binding); encountering one otherwise is an error.
func (b *binder) bind(e sql.Expr) (bexpr, error) {
	if b.slots != nil {
		if s, ok := b.slots[e.Render()]; ok {
			return s, nil
		}
	}
	switch v := e.(type) {
	case *sql.ColRef:
		return b.resolveColumn(v)
	case *sql.Lit:
		return bindLit(v)
	case *sql.BinOp:
		l, err := b.bind(v.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bind(v.R)
		if err != nil {
			return nil, err
		}
		t := schema.Integer // booleans
		if isComparison(v.Op) {
			l2 := coerceDate(r, l)
			r2 := coerceDate(l, r)
			l, r = l2, r2
			if err := checkComparable(v.Op, l, r); err != nil {
				return nil, err
			}
		} else if v.Op != "AND" && v.Op != "OR" {
			at, err := arithType(v.Op, l, r)
			if err != nil {
				return nil, err
			}
			return foldConst(&binExpr{op: v.Op, l: l, r: r, t: at}, l, r), nil
		}
		return &binExpr{op: v.Op, l: l, r: r, t: t}, nil
	case *sql.UnaryOp:
		x, err := b.bind(v.X)
		if err != nil {
			return nil, err
		}
		if v.Op == "NOT" {
			return &notExpr{x: x}, nil
		}
		return foldConst(&negExpr{x: x}, x), nil
	case *sql.Between:
		x, err := b.bind(v.X)
		if err != nil {
			return nil, err
		}
		lo, err := b.bind(v.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bind(v.Hi)
		if err != nil {
			return nil, err
		}
		return &betweenExpr{x: x, lo: coerceDate(x, lo), hi: coerceDate(x, hi), not: v.Not}, nil
	case *sql.In:
		x, err := b.bind(v.X)
		if err != nil {
			return nil, err
		}
		in := &inExpr{x: x, set: map[string]bool{}, not: v.Not}
		if v.Sub != nil {
			res, _, err := b.subqueryResult(v.Sub)
			if err != nil {
				return nil, fmt.Errorf("IN subquery: %w", err)
			}
			if len(res.Columns) != 1 {
				return nil, fmt.Errorf("IN subquery must return one column, got %d", len(res.Columns))
			}
			for _, row := range res.Rows {
				b.qc.tick()
				if row[0].IsNull() {
					in.hasNull = true
					continue
				}
				in.set[row[0].GroupKey()] = true
				in.vals = append(in.vals, row[0])
			}
			return in, nil
		}
		for _, le := range v.List {
			lv, err := b.bind(le)
			if err != nil {
				return nil, err
			}
			lv = coerceDate(x, lv)
			lit, ok := lv.(*litExpr)
			if !ok {
				return nil, fmt.Errorf("IN list members must be literals")
			}
			if lit.v.IsNull() {
				in.hasNull = true
				continue
			}
			in.set[lit.v.GroupKey()] = true
			in.vals = append(in.vals, lit.v)
		}
		return in, nil
	case *sql.Like:
		x, err := b.bind(v.X)
		if err != nil {
			return nil, err
		}
		return &likeExpr{x: x, pattern: v.Pattern, not: v.Not}, nil
	case *sql.IsNull:
		x, err := b.bind(v.X)
		if err != nil {
			return nil, err
		}
		return &isNullExpr{x: x, not: v.Not}, nil
	case *sql.CaseExpr:
		c := &caseExpr{}
		for _, w := range v.Whens {
			cond, err := b.bind(w.Cond)
			if err != nil {
				return nil, err
			}
			res, err := b.bind(w.Result)
			if err != nil {
				return nil, err
			}
			c.conds = append(c.conds, cond)
			c.results = append(c.results, res)
		}
		if v.Else != nil {
			el, err := b.bind(v.Else)
			if err != nil {
				return nil, err
			}
			c.elseE = el
		}
		c.t = promoteAll(append(c.results[:len(c.results):len(c.results)], c.elseE))
		return c, nil
	case *sql.FuncCall:
		if sql.IsAggregate(v.Name) {
			return nil, fmt.Errorf("aggregate %s not allowed in this context", v.Name)
		}
		sf, ok := scalarFuncs[v.Name]
		if !ok {
			return nil, fmt.Errorf("unknown function %s", v.Name)
		}
		f := &funcExpr{name: v.Name, t: sf.t}
		for _, a := range v.Args {
			ba, err := b.bind(a)
			if err != nil {
				return nil, err
			}
			f.args = append(f.args, ba)
		}
		if len(f.args) == 0 || len(f.args) == 1 && strings.HasPrefix(v.Name, "SUBSTR") {
			return nil, fmt.Errorf("function %s requires more arguments", v.Name)
		}
		switch {
		case v.Name == "COALESCE":
			f.t = promoteAll(f.args)
		case sf.t == 0: // same-as-argument functions
			f.t = f.args[0].typ()
		}
		return foldConst(f, f.args...), nil
	case *sql.Window:
		return nil, fmt.Errorf("window function not allowed in this context")
	case *sql.SubQuery:
		res, types, err := b.subqueryResult(v.Select)
		if err != nil {
			return nil, fmt.Errorf("scalar subquery: %w", err)
		}
		if len(res.Columns) != 1 {
			return nil, fmt.Errorf("scalar subquery must return one column")
		}
		if len(res.Rows) > 1 {
			return nil, fmt.Errorf("scalar subquery returned %d rows", len(res.Rows))
		}
		val := storage.Null
		if len(res.Rows) == 1 {
			val = conform(res.Rows[0][0], kindOf(types[0]))
		}
		return &litExpr{v: val, t: types[0]}, nil
	default:
		return nil, fmt.Errorf("unsupported expression %T", e)
	}
}

// foldConst replaces a value expression whose operands are all literals
// (arithmetic, date ± days, a scalar function) by the literal it
// evaluates to, so `x BETWEEN [P] AND [P] + 30` reaches the kernels
// with literal bounds. bind folds bottom-up, so a column-free tree of
// any depth collapses. Evaluating literals cannot fail — division by
// zero and a bad date are NULL, bind checked the argument count — so a
// panic here is an executor bug and fails the query, as a row would.
func foldConst(e bexpr, operands ...bexpr) bexpr {
	for _, o := range operands {
		if _, ok := o.(*litExpr); !ok {
			return e
		}
	}
	return &litExpr{v: e.eval(nil), t: e.typ()}
}

// conjuncts flattens an AND tree.
func conjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.BinOp); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// exprContainsAggregate reports whether the AST contains an aggregate or
// window call (deciding whether a query is an aggregation).
func exprContainsAggregate(e sql.Expr) bool {
	switch v := e.(type) {
	case *sql.FuncCall:
		if sql.IsAggregate(v.Name) {
			return true
		}
		for _, a := range v.Args {
			if exprContainsAggregate(a) {
				return true
			}
		}
	case *sql.Window:
		return true
	case *sql.BinOp:
		return exprContainsAggregate(v.L) || exprContainsAggregate(v.R)
	case *sql.UnaryOp:
		return exprContainsAggregate(v.X)
	case *sql.Between:
		return exprContainsAggregate(v.X) || exprContainsAggregate(v.Lo) || exprContainsAggregate(v.Hi)
	case *sql.In:
		return exprContainsAggregate(v.X)
	case *sql.Like:
		return exprContainsAggregate(v.X)
	case *sql.IsNull:
		return exprContainsAggregate(v.X)
	case *sql.CaseExpr:
		for _, w := range v.Whens {
			if exprContainsAggregate(w.Cond) || exprContainsAggregate(w.Result) {
				return true
			}
		}
		if v.Else != nil {
			return exprContainsAggregate(v.Else)
		}
	}
	return false
}

// outputName derives a result column name for a select item.
func outputName(item sql.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if c, ok := item.Expr.(*sql.ColRef); ok {
		return c.Name
	}
	return strings.ToLower(item.Expr.Render())
}
