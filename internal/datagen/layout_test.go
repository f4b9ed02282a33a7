package datagen

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tpcds/internal/storage"
)

var updateLayout = flag.Bool("update", false, "rewrite the layout fingerprint in testdata")

const layoutFile = "layout_sf0.002_seed7.txt"

// layoutFingerprint describes the in-memory layout of every table of
// db, which the flat files cannot show: per table its row count and
// epoch, per column its payload layout (int, float, a dictionary with
// its size, or plain strings) and whether it carries a null vector.
func layoutFingerprint(db *storage.DB) string {
	var b strings.Builder
	for _, name := range db.Names() {
		tb := db.Table(name)
		fmt.Fprintf(&b, "%s rows=%d epoch=%d\n", name, tb.NumRows(), tb.Epoch())
		for c := 0; c < tb.NumCols(); c++ {
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
			fmt.Fprintf(&b, "  %s %s\n", tb.Def.Columns[c].Name, layout)
		}
	}
	return b.String()
}

// TestGeneratedLayout: GenerateAll at SF 0.002, seed 7, leaves the
// layout recorded in testdata — the same dictionaries, the same plain
// columns, a null vector exactly where one was, and the same epochs.
// Equal flat files do not imply it: a writer could emit the same bytes
// from a column that lost its dictionary or gained a null vector.
// Run with -update to record a deliberate change.
func TestGeneratedLayout(t *testing.T) {
	got := layoutFingerprint(New(0.002, 7).GenerateAll())
	path := filepath.Join("testdata", layoutFile)
	if *updateLayout {
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
				t.Fatalf("layout differs at line %d: %q, recorded %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("layout has %d lines, recorded %d", len(gl), len(wl))
	}
}
