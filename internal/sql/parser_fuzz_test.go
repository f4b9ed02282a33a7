package sql_test

import (
	"testing"

	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/sql"
)

// FuzzParse drives the SQL parser with mutations of the full generated
// workload: all 99 templates, instantiated with the benchmark's default
// seed, plus a few degenerate shapes. The parser's contract is to
// return *Error — never to panic, loop, or report a position
// outside the input — no matter how the text is mangled.
func FuzzParse(f *testing.F) {
	for _, t := range queries.All() {
		q, err := qgen.Instantiate(t, qgen.StreamSeed(1, 0, t.ID))
		if err != nil {
			f.Fatalf("instantiating template %d: %v", t.ID, err)
		}
		f.Add(q)
	}
	f.Add("")
	f.Add("SELECT")
	f.Add("SELECT * FROM t WHERE (((")
	f.Add("SELECT 'unterminated FROM t")

	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sql.Parse(src)
		if err != nil {
			pe, ok := err.(*sql.Error)
			if !ok || pe.Bind {
				t.Fatalf("Parse returned %T, want a parse *sql.Error: %v", err, err)
			}
			if pe.Offset < 0 || pe.Offset > len(src) {
				t.Fatalf("Error offset %d outside input of length %d", pe.Offset, len(src))
			}
			return
		}
		if stmt == nil {
			t.Fatal("Parse returned nil statement and nil error")
		}
	})
}
