package templatecheck_test

import (
	"strings"
	"testing"

	"tpcds/internal/lint/templatecheck"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/schema"
)

// TestAllTemplatesClean is the workload half of the dslint gate as a
// plain test: every shipped template substitutes, parses, and resolves
// against the schema catalog without findings.
func TestAllTemplatesClean(t *testing.T) {
	for _, d := range templatecheck.CheckAll(queries.All()) {
		t.Errorf("%s", d)
	}
}

// render joins diagnostics into one newline-separated string.
func render(diags []templatecheck.Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestSyntheticCorruptions checks the exact diagnostic (message and
// template position) for each corruption class the checker exists to
// catch; the name and type classes are the engine binder's errors. The
// SQL strings start with a newline like the real templates, so findings
// land on line 2.
func TestSyntheticCorruptions(t *testing.T) {
	cases := []struct {
		name string
		tmpl qgen.Template
		want []string
	}{
		{
			name: "unknown column",
			tmpl: qgen.Template{ID: 901, SQL: "\nSELECT ss_bogus FROM store_sales\n"},
			want: []string{`q901.sql:2:8: unknown column "ss_bogus"`},
		},
		{
			name: "unknown table",
			tmpl: qgen.Template{ID: 902, SQL: "\nSELECT 1 FROM no_such_table\n"},
			want: []string{`q902.sql:2:15: unknown table "no_such_table"`},
		},
		{
			name: "unbound substitution parameter",
			tmpl: qgen.Template{ID: 903, SQL: "\nSELECT ss_quantity FROM store_sales WHERE ss_quantity > [BOGUS]\n"},
			want: []string{`q903.sql:2:57: undefined substitution parameter [BOGUS]: no such token kind`},
		},
		{
			name: "join without declared relationship",
			tmpl: qgen.Template{ID: 904, SQL: "\nSELECT ss_item_sk FROM store_sales, customer_address WHERE ss_store_sk = ca_address_sk\n"},
			want: []string{`q904.sql:2:60: join store_sales.ss_store_sk = customer_address.ca_address_sk follows no declared foreign key, fact link, or conformed dimension`},
		},
		{
			name: "string compared with numeric",
			tmpl: qgen.Template{ID: 905, SQL: "\nSELECT ss_quantity FROM store_sales WHERE ss_quantity = 'abc'\n"},
			want: []string{`q905.sql:2:43: cannot compare integer with char (operator =)`},
		},
		{
			name: "aggregate over string column",
			tmpl: qgen.Template{ID: 906, SQL: "\nSELECT SUM(c_first_name) FROM customer\n"},
			want: []string{`q906.sql:2:12: cannot apply SUM to char`},
		},
		{
			name: "union arity mismatch",
			tmpl: qgen.Template{ID: 907, SQL: "\nSELECT ss_item_sk, ss_quantity FROM store_sales UNION ALL SELECT sr_item_sk FROM store_returns\n"},
			want: []string{`q907.sql:2:82: UNION ALL block has 1 columns, first block has 2`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := render(templatecheck.CheckTemplate(tc.tmpl))
			want := strings.Join(tc.want, "\n") + "\n"
			if got != want {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestConstantPredicates exercises the constant-predicate lint: after
// representative substitution a fully-literal predicate has one fixed
// truth value, which the checker must fold and flag — and predicates
// that merely look constant (columns, NULLs, subqueries) must not fold.
func TestConstantPredicates(t *testing.T) {
	cases := []struct {
		name string
		tmpl qgen.Template
		want []string
	}{
		{
			name: "always-true comparison",
			tmpl: qgen.Template{ID: 911, SQL: "\nSELECT ss_quantity FROM store_sales WHERE ss_quantity > 0 AND 1 = 1\n"},
			want: []string{`q911.sql:2:25: predicate (1 = 1) is always true after substitution`},
		},
		{
			name: "always-false comparison with folded arithmetic",
			tmpl: qgen.Template{ID: 912, SQL: "\nSELECT ss_quantity FROM store_sales WHERE 2 + 2 < 4\n"},
			want: []string{`q912.sql:2:25: predicate ((2 + 2) < 4) is always false after substitution`},
		},
		{
			name: "empty BETWEEN range",
			tmpl: qgen.Template{ID: 913, SQL: "\nSELECT ss_quantity FROM store_sales WHERE ss_quantity BETWEEN 10 AND 5\n"},
			want: []string{`q913.sql:2:43: BETWEEN range 10 .. 5 is empty: predicate is always false after substitution`},
		},
		{
			name: "empty NOT BETWEEN range is a tautology",
			tmpl: qgen.Template{ID: 914, SQL: "\nSELECT ss_quantity FROM store_sales WHERE ss_quantity NOT BETWEEN 10 AND 5\n"},
			want: []string{`q914.sql:2:43: BETWEEN range 10 .. 5 is empty: predicate is always true after substitution`},
		},
		{
			name: "empty date BETWEEN range",
			tmpl: qgen.Template{ID: 915, SQL: "\nSELECT ss_quantity FROM store_sales, date_dim WHERE ss_sold_date_sk = d_date_sk AND d_date BETWEEN '2001-12-31' AND '2001-01-01'\n"},
			want: []string{`q915.sql:2:85: BETWEEN range '2001-12-31' .. '2001-01-01' is empty: predicate is always false after substitution`},
		},
		{
			name: "literal BETWEEN over an ordered range",
			tmpl: qgen.Template{ID: 916, SQL: "\nSELECT ss_quantity FROM store_sales WHERE 7 BETWEEN 1 AND 5\n"},
			want: []string{`q916.sql:2:25: predicate (7 BETWEEN 1 AND 5) is always false after substitution`},
		},
		{
			name: "literal IN list",
			tmpl: qgen.Template{ID: 917, SQL: "\nSELECT ss_quantity FROM store_sales WHERE 3 IN (1, 2, 3)\n"},
			want: []string{`q917.sql:2:25: predicate (3 IN (1, 2, 3)) is always true after substitution`},
		},
		{
			name: "constant leaf inside OR and HAVING",
			tmpl: qgen.Template{ID: 918, SQL: "\nSELECT ss_store_sk, SUM(ss_quantity) FROM store_sales WHERE ss_quantity > 0 OR 0 = 1 GROUP BY ss_store_sk HAVING 2 > 1\n"},
			want: []string{
				`q918.sql:2:43: predicate (0 = 1) is always false after substitution`,
				`q918.sql:2:43: predicate (2 > 1) is always true after substitution`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := render(templatecheck.CheckTemplate(tc.tmpl))
			want := strings.Join(tc.want, "\n") + "\n"
			if got != want {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
	clean := []struct {
		name string
		sql  string
	}{
		{"column keeps the predicate live", "\nSELECT ss_quantity FROM store_sales WHERE ss_quantity > 5\n"},
		{"NULL never folds", "\nSELECT ss_quantity FROM store_sales WHERE NULL = 1\n"},
		{"token substitution is not constant against a column", "\nSELECT d_year FROM date_dim WHERE d_year = [YEAR]\n"},
		{"division by literal zero does not fold", "\nSELECT ss_quantity FROM store_sales WHERE ss_quantity > 1 / 0\n"},
	}
	for _, tc := range clean {
		t.Run(tc.name, func(t *testing.T) {
			if got := render(templatecheck.CheckTemplate(qgen.Template{ID: 919, SQL: tc.sql})); got != "" {
				t.Errorf("clean shape flagged:\n%s", got)
			}
		})
	}
}

// TestCorruptedRealTemplate corrupts a copy of a shipped template and
// asserts the checker localizes the damage: a clean template plus one
// typo'd column must yield exactly the unknown-column findings for the
// typo (one per occurrence).
func TestCorruptedRealTemplate(t *testing.T) {
	var victim qgen.Template
	for _, tpl := range queries.All() {
		if strings.Contains(tpl.SQL, "ss_sold_date_sk") {
			victim = tpl
			break
		}
	}
	if victim.ID == 0 {
		t.Fatal("no template references ss_sold_date_sk")
	}
	if diags := templatecheck.CheckTemplate(victim); len(diags) != 0 {
		t.Fatalf("template %d not clean before corruption: %v", victim.ID, diags)
	}
	corrupted := victim
	corrupted.SQL = strings.Replace(victim.SQL, "ss_sold_date_sk", "ss_bogus_sk", 1)
	diags := templatecheck.CheckTemplate(corrupted)
	if len(diags) == 0 {
		t.Fatalf("checker missed the corrupted column in template %d", victim.ID)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "ss_bogus_sk") {
			t.Errorf("unexpected cascade finding: %s", d)
		}
	}
}

// TestJoinThroughCTEAlias holds the join check to q78's two joins
// through the CTE column alias `cust`: both pass as shipped, and a join
// of `st.cust` (store_sales.ss_customer_sk) to a customer's address key
// is flagged.
func TestJoinThroughCTEAlias(t *testing.T) {
	var q78 qgen.Template
	for _, tpl := range queries.All() {
		if tpl.ID == 78 {
			q78 = tpl
		}
	}
	const join = "st.cust = c_customer_sk"
	if !strings.Contains(q78.SQL, join) || !strings.Contains(q78.SQL, "st.cust = cat.cust") {
		t.Fatalf("q78 no longer joins through cust:\n%s", q78.SQL)
	}
	if diags := templatecheck.CheckTemplate(q78); len(diags) != 0 {
		t.Fatalf("q78 not clean: %v", diags)
	}
	seeded := q78
	seeded.SQL = strings.Replace(q78.SQL, join, "st.cust = c_current_addr_sk", 1)
	got := render(templatecheck.CheckTemplate(seeded))
	want := "join store_sales.ss_customer_sk = customer.c_current_addr_sk follows no declared foreign key, fact link, or conformed dimension"
	if !strings.Contains(got, want) || strings.Count(got, "\n") != 1 {
		t.Errorf("seeded q78: got\n%swant one finding: %s", got, want)
	}
}

// TestCatalogColumnNamesUnique pins what the join check's by-name
// resolution rests on: no two catalog tables share a column name.
func TestCatalogColumnNamesUnique(t *testing.T) {
	seen := map[string]string{}
	for _, tbl := range schema.Tables() {
		for _, col := range tbl.Columns {
			if other, dup := seen[col.Name]; dup {
				t.Errorf("column %s is in both %s and %s", col.Name, other, tbl.Name)
			}
			seen[col.Name] = tbl.Name
		}
	}
}
