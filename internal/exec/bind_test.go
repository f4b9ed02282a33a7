package exec

import (
	"errors"
	"strings"
	"testing"

	"tpcds/internal/schema"
	"tpcds/internal/sql"
	"tpcds/internal/storage"
)

// TestBindRejectsNonNumericAndNonStringOperands holds the binder to the
// operand types evaluation needs. Each case used to answer silently:
// SUM, AVG and STDDEV_SAMP of a string column summed 0, ROUND of one
// rounded 0, ABS of one was NULL, LIKE, SUBSTR, UPPER and LOWER over a
// number or a date worked on its text, and TO_DATE of a number was
// NULL. Each is a bind error naming the function or
// operator, at the offset of the offending column.
func TestBindRejectsNonNumericAndNonStringOperands(t *testing.T) {
	db := storage.NewDB()
	for _, tbl := range schema.Tables() {
		db.Create(tbl)
	}
	e := New(db)
	cases := []struct{ query, op, col string }{
		{"SELECT SUM(c_first_name) FROM customer", "SUM", "c_first_name"},
		{"SELECT AVG(c_first_name) FROM customer", "AVG", "c_first_name"},
		{"SELECT STDDEV_SAMP(c_first_name) FROM customer", "STDDEV_SAMP", "c_first_name"},
		{"SELECT c_birth_year, SUM(c_last_name) FROM customer GROUP BY c_birth_year", "SUM", "c_last_name"},
		{"SELECT ABS(c_first_name) FROM customer", "ABS", "c_first_name"},
		{"SELECT ROUND(c_first_name, 1) FROM customer", "ROUND", "c_first_name"},
		{"SELECT COUNT(*) FROM store_sales WHERE ss_quantity LIKE '1%'", "LIKE", "ss_quantity"},
		{"SELECT COUNT(*) FROM store_sales WHERE ss_quantity NOT LIKE '1%'", "NOT LIKE", "ss_quantity"},
		{"SELECT COUNT(*) FROM store_sales WHERE ss_net_paid LIKE '1%'", "LIKE", "ss_net_paid"},
		{"SELECT COUNT(*) FROM store_sales WHERE ss_net_paid NOT LIKE '1%'", "NOT LIKE", "ss_net_paid"},
		{"SELECT COUNT(*) FROM date_dim WHERE d_date LIKE '2000%'", "LIKE", "d_date"},
		{"SELECT COUNT(*) FROM date_dim WHERE d_date NOT LIKE '2000%'", "NOT LIKE", "d_date"},
		{"SELECT SUBSTR(ss_quantity, 1, 1) FROM store_sales", "SUBSTR", "ss_quantity"},
		{"SELECT SUBSTRING(ss_net_paid, 2) FROM store_sales", "SUBSTRING", "ss_net_paid"},
		{"SELECT UPPER(d_date) FROM date_dim", "UPPER", "d_date"},
		{"SELECT LOWER(c_birth_year) FROM customer", "LOWER", "c_birth_year"},
		{"SELECT TO_DATE(ss_net_paid) FROM store_sales", "TO_DATE", "ss_net_paid"},
		{"SELECT COUNT(*) FROM date_dim WHERE TO_DATE(d_date_sk) = d_date", "TO_DATE", "d_date_sk"},
	}
	for _, tc := range cases {
		_, err := e.Query(tc.query)
		var se *sql.Error
		if !errors.As(err, &se) || !se.Bind {
			t.Errorf("%s: got %v, want a bind error", tc.query, err)
			continue
		}
		if want := "cannot apply " + tc.op + " to "; !strings.HasPrefix(se.Msg, want) {
			t.Errorf("%s: message %q does not start %q", tc.query, se.Msg, want)
		}
		if want := strings.Index(tc.query, tc.col); se.Offset != want {
			t.Errorf("%s: offset %d, want %d (%s)", tc.query, se.Offset, want, tc.col)
		}
	}
	for _, ok := range []string{
		"SELECT COUNT(c_first_name), MIN(c_first_name), MAX(c_last_name) FROM customer",
		"SELECT COUNT(*) FROM customer WHERE c_first_name LIKE 'J%' AND c_last_name NOT LIKE 'S%'",
		"SELECT SUM(NULL), AVG(ss_net_paid) FROM store_sales",
		"SELECT ABS(ss_net_paid), ROUND(ss_net_paid, 1) FROM store_sales",
		"SELECT SUBSTR(ca_zip, 1, 2), UPPER(ca_city), LOWER(NULL) FROM customer_address",
		"SELECT TO_DATE('2000-01-01'), TO_DATE(d_date) FROM date_dim",
	} {
		if _, err := e.Query(ok); err != nil {
			t.Errorf("%s: %v", ok, err)
		}
	}
}
