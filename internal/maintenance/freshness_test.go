package maintenance

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tpcds/internal/exec"
	"tpcds/internal/obs"
	"tpcds/internal/plan"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// probe is a query and the tables it reads.
type probe struct {
	sql   string
	reads []string
}

// coverProbe returns a query that reads every column of table def
// through an equi-join on an integer key, so that the engine answers it
// from its hash index on that key: a dimension joins itself on its
// surrogate key, a fact (or inventory) joins item.
func coverProbe(def *schema.Table) probe {
	cols := make([]string, len(def.Columns))
	for i, c := range def.Columns {
		cols[i] = "a." + c.Name
	}
	list := strings.Join(cols, ", ")
	if len(def.PrimaryKey) == 1 {
		pk := def.PrimaryKey[0]
		return probe{fmt.Sprintf("SELECT %s FROM %s a, %s b WHERE a.%s = b.%s ORDER BY a.%s",
			list, def.Name, def.Name, pk, pk, pk), []string{def.Name}}
	}
	for _, fk := range def.ForeignKeys {
		if fk.Ref == "item" {
			return probe{fmt.Sprintf("SELECT %s, i_item_id FROM %s a, item WHERE a.%s = i_item_sk ORDER BY %s, i_item_id",
				list, def.Name, fk.Column, list), []string{def.Name, "item"}}
		}
	}
	panic("no cover query for " + def.Name)
}

// TestWarmEqualsColdAfterEachOperation applies the 12 maintenance
// operations one at a time to a warm engine, with no call into the
// engine between, and holds every structure the engine derives from a
// table to that table's own epoch. Before each operation the engine
// holds hash indexes, catalog_sales' postings, value postings,
// statistics and plans for every query below. After it:
//   - every table whose cells the operation changed has a new epoch;
//   - each query over a changed table is planned anew on the warm engine
//     and answers there as on a cold engine and a cold hash-only engine;
//   - the queries over tables it left alone hash no row and plan nothing
//     anew: their structures stayed warm.
func TestWarmEqualsColdAfterEachOperation(t *testing.T) {
	warm := freshEngine(t)
	reg := obs.NewRegistry()
	warm.SetMetrics(reg)
	db := warm.DB()
	rs, err := GenerateRefresh(db, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// At this scale a generated delete range can miss every sale of its
	// channel, and the store channel's misses every inventory snapshot
	// (operation 12 replaces the snapshots inside it). Start the store
	// range at inventory's first two weeks, and stretch every range to the
	// first sale of its channel on or after its start.
	dates, _ := db.Table("inventory").ScanInt64(0)
	rs.DeleteRange["store"] = [2]int64{dates[0], dates[0] + 13}
	for ch, rng := range rs.DeleteRange {
		sold, nulls := db.Table(channelTables[ch][0]).ScanInt64(0)
		first := int64(-1)
		for r, d := range sold {
			if !storage.IsNull(nulls, r) && d >= rng[0] && (first < 0 || d < first) {
				first = d
			}
		}
		rs.DeleteRange[ch] = [2]int64{rng[0], max(rng[1], first)}
	}

	keys := dimKeys{}
	type op struct {
		name  string
		apply func() (int, error)
	}
	ops := []op{
		{"update_history_dims", func() (int, error) { return applyDimUpdates(db, rs, schema.HistoryKeeping, keys) }},
		{"update_nonhistory_dims", func() (int, error) { return applyDimUpdates(db, rs, schema.NonHistory, keys) }},
	}
	channels := []string{"store", "catalog", "web"}
	for _, ch := range channels {
		ops = append(ops, op{"delete_" + ch, func() (int, error) { return deleteChannel(db, ch, rs) }})
	}
	for _, ch := range channels {
		ops = append(ops, op{"insert_" + ch + "_sales", func() (int, error) { return insertSales(db, ch, rs, keys) }})
	}
	for _, ch := range channels {
		ops = append(ops, op{"insert_" + ch + "_returns", func() (int, error) { return insertReturns(db, ch, rs, keys) }})
	}
	ops = append(ops, op{"refresh_inventory", func() (int, error) { return refreshInventory(db, rs) }})

	// A query over every table maintenance may change, a star over
	// catalog_sales (its postings) and a query the value postings of
	// customer_demographics answer.
	var probes []probe
	var maintained []string
	for _, name := range db.Names() {
		if def := db.Table(name).Def; def.Kind != schema.Dimension || def.SCD != schema.StaticDim {
			maintained = append(maintained, name)
			probes = append(probes, coverProbe(def))
		}
	}
	probes = append(probes,
		probe{`SELECT cs_order_number, cs_item_sk, i_item_id, d_date FROM catalog_sales, item, date_dim
			WHERE cs_item_sk = i_item_sk AND cs_sold_date_sk = d_date_sk AND d_year = 2000 AND d_moy = 12
			AND i_category IN ('Music', 'Books', 'Home') ORDER BY cs_order_number, cs_item_sk, i_item_id, d_date`,
			[]string{"catalog_sales", "item", "date_dim"}},
		probe{`SELECT cd_demo_sk, cd_education_status FROM customer_demographics
			WHERE cd_education_status IN ('Unknown', 'Primary') AND cd_marital_status = 'W'
			AND cd_gender = 'M' AND cd_credit_rating = 'High Risk' ORDER BY cd_demo_sk`,
			[]string{"customer_demographics"}})
	run := func(eng *exec.Engine, q string) *exec.Result {
		t.Helper()
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%v\n%s", err, q)
		}
		return res
	}
	counters := func() (builds, misses int64) {
		_, misses = warm.PlanCacheStats()
		return reg.Counter("exec_hash_build_rows").Value(), misses
	}
	for _, fk := range db.Table("catalog_sales").Def.ForeignKeys {
		warm.WarmBitmapIndex("catalog_sales", fk.Column)
	}
	for _, p := range probes {
		run(warm, p.sql)
	}
	builds, misses := counters()
	for _, p := range probes {
		run(warm, p.sql)
	}
	if b, m := counters(); b != builds || m != misses {
		t.Fatalf("a repeat of the warm-up hashed %d rows and planned %d times; these queries are meant to probe cached structures", b-builds, m-misses)
	}

	type state struct {
		epoch uint64
		cells uint64
	}
	snapshot := func() map[string]state {
		s := map[string]state{}
		for _, name := range db.Names() {
			tab := db.Table(name)
			s[name] = state{epoch: tab.Epoch()}
			if slices.Contains(maintained, name) {
				s[name] = state{epoch: tab.Epoch(), cells: cellHash(tab)}
			}
		}
		return s
	}
	for _, op := range ops {
		before := snapshot()
		if _, err := op.apply(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		changed := map[string]bool{}
		for name, now := range snapshot() {
			was := before[name]
			if now.cells != was.cells && now.epoch == was.epoch {
				t.Errorf("%s changed %s but left its epoch at %d", op.name, name, now.epoch)
			}
			if now != was {
				changed[name] = true
			}
		}
		if len(changed) == 0 {
			t.Fatalf("%s changed no table; the check below would prove nothing", op.name)
		}
		touches := func(p probe) bool {
			return slices.ContainsFunc(p.reads, func(name string) bool { return changed[name] })
		}

		cold, coldHash := exec.New(db), exec.New(db)
		coldHash.SetMode(plan.ForceHashJoin)
		covered := map[string]bool{}
		for _, p := range probes {
			if !touches(p) {
				continue
			}
			_, misses := counters()
			got, want, hash := run(warm, p.sql), run(cold, p.sql), run(coldHash, p.sql)
			if _, m := counters(); m == misses {
				t.Errorf("%s: the warm engine served a plan made before the change\n%s", op.name, p.sql)
			}
			if len(want.Rows) == 0 {
				t.Fatalf("%s: empty result proves nothing\n%s", op.name, p.sql)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("%s: warm engine (%d rows) differs from cold engine (%d rows)\n%s", op.name, len(got.Rows), len(want.Rows), p.sql)
			}
			if !reflect.DeepEqual(hash.Rows, want.Rows) {
				t.Errorf("%s: cold hash-only engine (%d rows) differs from cold engine (%d rows)\n%s", op.name, len(hash.Rows), len(want.Rows), p.sql)
			}
			for _, name := range p.reads {
				covered[name] = true
			}
		}
		for name := range changed {
			if !covered[name] {
				t.Errorf("%s changed %s, which no query reads", op.name, name)
			}
		}

		builds, misses := counters()
		for _, p := range probes {
			if !touches(p) {
				run(warm, p.sql)
			}
		}
		if b, m := counters(); b != builds || m != misses {
			t.Errorf("%s: the queries over unchanged tables hashed %d rows and planned %d times; their structures were rebuilt", op.name, b-builds, m-misses)
		}
		var names []string
		for name := range changed {
			names = append(names, name)
		}
		slices.Sort(names)
		t.Logf("%s changed %v", op.name, names)
	}
}
