package maintenance

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tpcds/internal/datagen"
	"tpcds/internal/exec"
	"tpcds/internal/storage"
)

var updateFingerprint = flag.Bool("update", false, "rewrite the post-maintenance fingerprint in testdata")

const fingerprintFile = "refresh_sf0.002_seed7.txt"

// refreshHash digests a refresh set: every staged row, delete range and
// dimension update in a fixed order (channels and changed columns
// sorted).
func refreshHash(rs *RefreshSet) uint64 {
	h := fnv.New64a()
	for _, ch := range []string{"catalog", "store", "web"} {
		fmt.Fprintf(h, "%s %v\n", ch, rs.DeleteRange[ch])
		for _, s := range rs.Sales[ch] {
			fmt.Fprintf(h, "%+v\n", s)
		}
		for _, r := range rs.Returns[ch] {
			fmt.Fprintf(h, "%+v\n", r)
		}
	}
	for _, u := range rs.DimUpdates {
		fmt.Fprintf(h, "%s %q", u.Table, u.BusinessKey)
		cols := make([]string, 0, len(u.Set))
		for c := range u.Set {
			cols = append(cols, c)
		}
		slices.Sort(cols)
		for _, c := range cols {
			fmt.Fprintf(h, " %s=%#v", c, u.Set[c])
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintln(h, rs.UpdateDateSK)
	return h.Sum64()
}

// tableFingerprint describes one table: its row count and epoch, per
// column the layout (int, float, a dictionary with its size, or plain
// strings) and whether it carries a null vector, and its cellHash.
func tableFingerprint(b *strings.Builder, tb *storage.Table) {
	fmt.Fprintf(b, "%s rows=%d epoch=%d\n", tb.Def.Name, tb.NumRows(), tb.Epoch())
	for c := range tb.NumCols() {
		kind, _, _, _, _, dict, nulls := tb.Col(c).Raw()
		layout := kind.String()
		switch {
		case kind != storage.KindString:
		case dict != nil:
			layout = fmt.Sprintf("dict(%d)", len(dict))
		default:
			layout = "plain"
		}
		if nulls != nil {
			layout += " nulls"
		}
		fmt.Fprintf(b, "  %s %s\n", tb.Def.Columns[c].Name, layout)
	}
	fmt.Fprintf(b, "  cells %016x\n", cellHash(tb))
}

// cellHash is an FNV-1a hash of every cell of tb in row order.
func cellHash(tb *storage.Table) uint64 {
	type raw struct {
		ints  []int64
		flts  []float64
		strs  []string
		codes []uint16
		dict  []string
		nulls []bool
	}
	cols := make([]raw, tb.NumCols())
	for c := range cols {
		_, ints, flts, strs, codes, dict, nulls := tb.Col(c).Raw()
		cols[c] = raw{ints, flts, strs, codes, dict, nulls}
	}
	h := fnv.New64a()
	var buf []byte
	for r := 0; r < tb.NumRows(); r++ {
		for _, c := range cols {
			buf = buf[:0]
			switch {
			case storage.IsNull(c.nulls, r):
				buf = append(buf, 0)
			case c.ints != nil:
				buf = binary.LittleEndian.AppendUint64(append(buf, 'i'), uint64(c.ints[r]))
			case c.flts != nil:
				buf = binary.LittleEndian.AppendUint64(append(buf, 'f'), math.Float64bits(c.flts[r]))
			case c.dict != nil:
				buf = append(append(buf, 's'), c.dict[c.codes[r]]...)
			default:
				buf = append(append(buf, 's'), c.strs[r]...)
			}
			h.Write(append(buf, 0xff))
		}
	}
	return h.Sum64()
}

// TestRefreshFingerprint pins the data maintenance end to end: at SF
// 0.002, seed 7, three refresh sets generated and applied one after the
// other on one engine must hash as recorded in testdata, and leave every
// table with the recorded rows, epoch, column layouts and cells. The
// query digests cannot show a cell moved in a column no template reads.
// Run with -update to record a deliberate change.
func TestRefreshFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("generates SF 0.002 and hashes every cell")
	}
	eng := exec.New(datagen.New(0.002, 7).GenerateAll())
	var b strings.Builder
	for n := 1; n <= 3; n++ {
		rs, err := GenerateRefresh(eng.DB(), 7, n)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "refresh %d %016x\n", n, refreshHash(rs))
		if _, err := Run(eng, rs); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range eng.DB().Names() {
		tableFingerprint(&b, eng.DB().Table(name))
	}
	got := b.String()
	path := filepath.Join("testdata", fingerprintFile)
	if *updateFingerprint {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("fingerprint differs at line %d: %q, recorded %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("fingerprint has %d lines, recorded %d", len(gl), len(wl))
	}
}
