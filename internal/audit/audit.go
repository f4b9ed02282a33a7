// Package audit implements the validation checks a TPC-DS result would
// face in the audit: database population checks (row counts against the
// scaling model, referential integrity, SCD invariants, the seasonal
// data distribution) and execution checks (ACID-adjacent sanity after
// data maintenance). TPC results are audited before publication; this
// package makes the checks available to the driver and the command-line
// tools rather than burying them in tests.
package audit

import (
	"fmt"
	"strings"

	"tpcds/internal/dist"
	"tpcds/internal/scaling"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// Finding is one audit observation.
type Finding struct {
	Check   string
	Table   string
	Message string
}

func (f Finding) String() string {
	if f.Table != "" {
		return fmt.Sprintf("[%s] %s: %s", f.Check, f.Table, f.Message)
	}
	return fmt.Sprintf("[%s] %s", f.Check, f.Message)
}

// Report is the outcome of an audit run.
type Report struct {
	Checks   int
	Findings []Finding
}

// Passed reports whether the audit found no violations.
func (r *Report) Passed() bool { return len(r.Findings) == 0 }

func (r *Report) add(check, table, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{
		Check: check, Table: table, Message: fmt.Sprintf(format, args...),
	})
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "audit: %d checks, %d findings\n", r.Checks, len(r.Findings))
	for _, f := range r.Findings {
		sb.WriteString("  " + f.String() + "\n")
	}
	return sb.String()
}

// Options selects which checks run and their parameters.
type Options struct {
	// SF, when positive, enables row count validation against the
	// scaling model. Leave zero after data maintenance (counts shift).
	SF float64
	// SkipSeasonality disables the Figure 2 distribution check (tiny
	// development databases are too noisy for it).
	SkipSeasonality bool
}

// Run audits the database.
func Run(db *storage.DB, opts Options) *Report {
	r := &Report{}
	checkTablesPresent(db, r)
	if opts.SF > 0 {
		checkRowCounts(db, opts.SF, r)
	}
	checkReferentialIntegrity(db, r)
	checkSCDInvariants(db, r)
	checkFactLinks(db, r)
	if !opts.SkipSeasonality {
		checkSeasonality(db, r)
	}
	return r
}

func checkTablesPresent(db *storage.DB, r *Report) {
	r.Checks++
	for _, def := range schema.Tables() {
		t := db.Table(def.Name)
		if t == nil {
			r.add("tables-present", def.Name, "table missing")
			continue
		}
		if t.NumRows() == 0 {
			r.add("tables-present", def.Name, "table empty")
		}
	}
}

func checkRowCounts(db *storage.DB, sf float64, r *Report) {
	r.Checks++
	for _, def := range schema.Tables() {
		t := db.Table(def.Name)
		if t == nil {
			continue
		}
		want := scaling.Rows(def.Name, sf)
		got := int64(t.NumRows())
		if got != want {
			r.add("row-counts", def.Name, "%d rows, scaling model requires %d at SF %v",
				got, want, sf)
		}
	}
}

func checkReferentialIntegrity(db *storage.DB, r *Report) {
	r.Checks++
	for _, def := range schema.Tables() {
		t := db.Table(def.Name)
		if t == nil {
			continue
		}
		for _, fk := range def.ForeignKeys {
			ref := db.Table(fk.Ref)
			if ref == nil {
				r.add("referential-integrity", def.Name, "FK %s references missing table %s",
					fk.Column, fk.Ref)
				continue
			}
			// Surrogate keys are dense 1..N in every dimension; a value
			// outside that range dangles. (An exact key-set check would
			// also catch holes; dense ranges make the cheap check exact.)
			maxSK := collectMaxSK(ref)
			col := def.ColumnIndex(fk.Column)
			vals, nulls := t.ScanInt64(col)
			bad := 0
			for i, v := range vals {
				if !storage.IsNull(nulls, i) && (v < 1 || v > maxSK) {
					bad++
				}
			}
			if bad > 0 {
				r.add("referential-integrity", def.Name, "%d dangling values in %s -> %s",
					bad, fk.Column, fk.Ref)
			}
		}
	}
}

func collectMaxSK(t *storage.Table) int64 {
	pk := t.Def.ColumnIndex(t.Def.PrimaryKey[0])
	vals, nulls := t.ScanInt64(pk)
	var max int64
	for i, v := range vals {
		if !storage.IsNull(nulls, i) && v > max {
			max = v
		}
	}
	return max
}

func checkSCDInvariants(db *storage.DB, r *Report) {
	r.Checks++
	for _, def := range schema.Tables() {
		if def.SCD != schema.HistoryKeeping {
			continue
		}
		t := db.Table(def.Name)
		if t == nil {
			continue
		}
		bkCol := def.ColumnIndex(def.BusinessKey)
		endCol := -1
		startCol := -1
		for i, c := range def.Columns {
			if strings.HasSuffix(c.Name, "rec_end_date") {
				endCol = i
			}
			if strings.HasSuffix(c.Name, "rec_start_date") {
				startCol = i
			}
		}
		open := map[string]int{}
		for row := 0; row < t.NumRows(); row++ {
			bk := t.Get(row, bkCol).S
			if t.Get(row, endCol).IsNull() {
				open[bk]++
			} else if storage.Compare(t.Get(row, endCol), t.Get(row, startCol)) < 0 {
				r.add("scd-invariants", def.Name, "row %d: rec_end before rec_start", row)
			}
		}
		for bk, n := range open {
			if n != 1 {
				r.add("scd-invariants", def.Name, "business key %s has %d open revisions, want 1", bk, n)
			}
		}
	}
}

func checkFactLinks(db *storage.DB, r *Report) {
	r.Checks++
	for _, link := range schema.FactLinks() {
		from := db.Table(link.From)
		to := db.Table(link.To)
		if from == nil || to == nil {
			continue
		}
		pairs := map[[2]int64]bool{}
		toDef := to.Def
		ic := toDef.ColumnIndex(toDef.PrimaryKey[0])
		oc := toDef.ColumnIndex(toDef.PrimaryKey[1])
		for row := 0; row < to.NumRows(); row++ {
			pairs[[2]int64{to.Get(row, ic).AsInt(), to.Get(row, oc).AsInt()}] = true
		}
		fi := from.Def.ColumnIndex(link.Columns[0])
		fo := from.Def.ColumnIndex(link.Columns[1])
		misses := 0
		for row := 0; row < from.NumRows(); row++ {
			if !pairs[[2]int64{from.Get(row, fi).AsInt(), from.Get(row, fo).AsInt()}] {
				misses++
			}
		}
		// Data maintenance intentionally deletes sales in a date range
		// while their returns (dated later) survive, so a small orphan
		// fraction is legitimate after a refresh; flag only wholesale
		// breakage.
		if from.NumRows() > 0 && misses*5 > from.NumRows() {
			r.add("fact-links", link.From, "%d/%d rows do not join to %s",
				misses, from.NumRows(), link.To)
		}
	}
}

func checkSeasonality(db *storage.DB, r *Report) {
	r.Checks++
	ss := db.Table("store_sales")
	if ss == nil || ss.NumRows() < 1000 {
		return // too small to judge
	}
	dateCol := ss.Def.ColumnIndex("ss_sold_date_sk")
	counts := make([]float64, 13)
	vals, nulls := ss.ScanInt64(dateCol)
	total := 0.0
	for i, v := range vals {
		if storage.IsNull(nulls, i) {
			continue
		}
		_, m, _ := storage.YMDFromDays(storage.DaysFromSK(v))
		counts[m]++
		total++
	}
	if total == 0 {
		r.add("seasonality", "store_sales", "no dated sales rows")
		return
	}
	// December must exceed the average low-zone month by a clear margin
	// (the census-derived zones of Figure 2).
	var low float64
	for _, m := range dist.ZoneLow.Months() {
		low += counts[m]
	}
	low /= float64(len(dist.ZoneLow.Months()))
	if counts[12] < low*1.2 {
		r.add("seasonality", "store_sales",
			"December share %.1f%% not above low-zone months %.1f%%: zones missing",
			counts[12]/total*100, low/total*100)
	}
}
