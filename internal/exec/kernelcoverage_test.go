package exec

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tpcds/internal/datagen"
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

// slowLister visits every SELECT block of a statement the way
// runStatement reaches them — CTE bodies in scope order, union blocks,
// expression subqueries — binds the block's WHERE clause, compiles each
// table's local filter and records what compileFilter left in
// tableFilter.slow.
type slowLister struct {
	t    *testing.T
	e    *Engine
	qc   *qctx
	slow map[string]bool
}

func (w *slowLister) statement(stmt *sql.SelectStmt, outer map[string]*storage.Table) {
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

func (w *slowLister) block(stmt *sql.SelectStmt, ctes map[string]*storage.Table) {
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
	preds := make([][]bexpr, len(b.tables))
	for _, c := range conjuncts(stmt.Where) {
		be, err := b.bind(c)
		if err != nil {
			w.t.Fatalf("bind %s: %v", c.Render(), err)
		}
		if m := be.mask(); bits.OnesCount64(m) == 1 {
			preds[bitIndex(m)] = append(preds[bitIndex(m)], be)
		}
	}
	for ti, ps := range preds {
		for _, p := range b.compileFilter(ti, ps).slow {
			w.slow[b.tableAt(ti).binding+": "+describeExpr(b, p)] = true
		}
	}
}

// TestKernelCoverageAllTemplates lists, for the 99 templates under one
// representative substitution, every local predicate that compiles to
// no kernel and is evaluated row-at-a-time, and compares the list with
// testdata/slow_predicates.golden: a predicate shape that falls off the
// kernels — or a new kernel that takes one on — shows as a reviewable
// diff (regenerate with `go test ./internal/exec -run TestKernelCoverage -update`).
func TestKernelCoverageAllTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("all-99 kernel coverage skipped in -short")
	}
	eng := New(datagen.New(0.0005, 7).GenerateAll())
	eng.SetParallelism(1)
	var sb strings.Builder
	for _, tpl := range queries.All() {
		text, err := qgen.Instantiate(tpl, qgen.StreamSeed(1, 0, tpl.ID))
		if err != nil {
			t.Fatalf("query %d: %v", tpl.ID, err)
		}
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("query %d: %v", tpl.ID, err)
		}
		w := &slowLister{t: t, e: eng, qc: eng.newQctx(context.Background()), slow: map[string]bool{}}
		w.statement(eng.rewrite(w.qc, stmt), nil)
		lines := make([]string, 0, len(w.slow))
		for l := range w.slow {
			lines = append(lines, l)
		}
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Fprintf(&sb, "q%02d %s\n", tpl.ID, l)
		}
	}
	got := sb.String()
	golden := filepath.Join("testdata", "slow_predicates.golden")
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
		t.Errorf("local predicates without a kernel changed (regenerate with -update once reviewed):\n--- golden\n%s--- got\n%s", want, got)
	}
}
