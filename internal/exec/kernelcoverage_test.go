package exec

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// describeExpr renders a bound expression for the kernel-coverage list:
// columns by name, literals by kind, so the rendering does not move
// with the substitution values.
func describeExpr(b *binder, e bexpr) string {
	list := func(es []bexpr) string {
		parts := make([]string, len(es))
		for i, x := range es {
			parts[i] = describeExpr(b, x)
		}
		return strings.Join(parts, ", ")
	}
	not := func(n bool) string {
		if n {
			return "NOT "
		}
		return ""
	}
	switch v := e.(type) {
	case *colExpr:
		for ti := range b.tables {
			inst := &b.tables[ti]
			if c := v.off - inst.offset; c >= 0 && c < inst.width() {
				return inst.tab.Def.Columns[c].Name
			}
		}
		return fmt.Sprintf("col#%d", v.off)
	case *litExpr:
		return map[storage.Kind]string{storage.KindNull: "<null>", storage.KindInt: "<int>",
			storage.KindFloat: "<float>", storage.KindDate: "<date>", storage.KindString: "<str>"}[v.v.K]
	case *binExpr:
		return "(" + describeExpr(b, v.l) + " " + v.op + " " + describeExpr(b, v.r) + ")"
	case *notExpr:
		return "NOT " + describeExpr(b, v.x)
	case *negExpr:
		return "-" + describeExpr(b, v.x)
	case *betweenExpr:
		return describeExpr(b, v.x) + " " + not(v.not) + "BETWEEN " + describeExpr(b, v.lo) + " AND " + describeExpr(b, v.hi)
	case *inExpr:
		return describeExpr(b, v.x) + " " + not(v.not) + "IN (...)"
	case *likeExpr:
		return describeExpr(b, v.x) + " " + not(v.not) + "LIKE <str>"
	case *isNullExpr:
		return describeExpr(b, v.x) + " IS " + not(v.not) + "NULL"
	case *caseExpr:
		return "CASE(" + list(v.conds) + ")"
	case *funcExpr:
		return v.name + "(" + list(v.args) + ")"
	}
	return fmt.Sprintf("%T", e)
}

// nestedSelects collects the SELECT statements nested in the
// expressions under v (IN and scalar subqueries), without descending
// into them.
func nestedSelects(v reflect.Value, out *[]*sql.SelectStmt) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			nestedSelects(v.Elem(), out)
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if s, ok := v.Interface().(*sql.SelectStmt); ok {
			*out = append(*out, s)
			return
		}
		nestedSelects(v.Elem(), out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			nestedSelects(v.Field(i), out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			nestedSelects(v.Index(i), out)
		}
	}
}

// localPred is one local predicate of a SELECT block: a WHERE conjunct
// that reads one table, bound by the block's binder.
type localPred struct {
	b    *binder
	ti   int
	cond sql.Expr // the conjunct as written; Render gives its SQL
	p    bexpr
}

// predLister visits every SELECT block of a statement the way
// runStatement reaches them — CTE bodies in scope order, union blocks,
// expression subqueries — and binds each block's local predicates.
type predLister struct {
	t     *testing.T
	e     *Engine
	qc    *qctx
	preds []localPred
}

func (w *predLister) statement(stmt *sql.SelectStmt, outer map[string]*storage.Table) {
	ctes := map[string]*storage.Table{}
	for k, v := range outer {
		ctes[k] = v
	}
	for _, cte := range stmt.With {
		w.statement(cte.Select, ctes)
		tab, err := w.e.materializeCTE(w.qc, cte, ctes)
		if err != nil {
			w.t.Fatalf("WITH %s: %v", cte.Name, err)
		}
		ctes[cte.Name] = tab
	}
	for cur := stmt; cur != nil; cur = cur.UnionAll {
		w.block(cur, ctes)
	}
}

func (w *predLister) block(stmt *sql.SelectStmt, ctes map[string]*storage.Table) {
	block := *stmt
	block.With, block.UnionAll = nil, nil
	var subs []*sql.SelectStmt
	nestedSelects(reflect.ValueOf(block), &subs)
	for _, sub := range subs {
		w.statement(sub, ctes)
	}
	b := newBinder(w.e, w.qc, ctes)
	for _, ref := range stmt.From {
		if err := b.addTable(ref); err != nil {
			w.t.Fatal(err)
		}
	}
	for _, c := range conjuncts(stmt.Where) {
		be, err := b.bind(c)
		if err != nil {
			w.t.Fatalf("bind %s: %v", c.Render(), err)
		}
		if m := be.mask(); bits.OnesCount64(m) == 1 {
			w.preds = append(w.preds, localPred{b: b, ti: bitIndex(m), cond: c, p: be})
		}
	}
}

// templatePreds returns the local predicates of tpl's SELECT blocks
// under one representative substitution, bound over e's database.
func templatePreds(t *testing.T, e *Engine, tpl qgen.Template) []localPred {
	return streamPreds(t, e, tpl, 0)
}

// streamPreds is templatePreds under query stream stream's substitution.
func streamPreds(t *testing.T, e *Engine, tpl qgen.Template, stream int) []localPred {
	text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, stream, tpl.ID))
	if err != nil {
		t.Fatalf("query %d: %v", tpl.ID, err)
	}
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("query %d: %v", tpl.ID, err)
	}
	w := &predLister{t: t, e: e, qc: e.newQctx(context.Background())}
	w.statement(e.rewrite(w.qc, stmt), nil)
	return w.preds
}

// TestKernelCoverageAllTemplates runs the 99 templates under one
// representative substitution and lists every expression, of any
// operator, that has no vector program — the compiler's "no vector
// program for …" failure — against testdata/unvectorized.golden, which
// is empty: every expression the templates bind compiles. A new
// expression shape without a program shows as a reviewable diff
// (regenerate with `go test ./internal/exec -run TestKernelCoverage -update`).
// It also logs how many distinct expressions ran through programs.
func TestKernelCoverageAllTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 program coverage skipped in -short")
	}
	eng := New(templateDB())
	ran := map[string]bool{}
	eng.vecHook = func(b *binder, e bexpr, _ *frame, _ []int32, _ view, _ []int8) { ran[describeExpr(b, e)] = true }
	var sb strings.Builder
	for _, tpl := range queries.All() {
		text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
		if err != nil {
			t.Fatalf("query %d: %v", tpl.ID, err)
		}
		if _, err := eng.Query(text); err != nil {
			msg := err.Error()
			if i := strings.Index(msg, "no vector program"); i >= 0 {
				fmt.Fprintf(&sb, "q%02d %s\n", tpl.ID, msg[i:])
				continue
			}
			t.Fatalf("query %d: %v", tpl.ID, err)
		}
	}
	t.Logf("%d distinct expressions ran through vector programs", len(ran))
	got := sb.String()
	golden := filepath.Join("testdata", "unvectorized.golden")
	if *updateGoldens {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("expressions without a vector program changed (regenerate with -update once reviewed):\n--- golden\n%s--- got\n%s", want, got)
	}
}
