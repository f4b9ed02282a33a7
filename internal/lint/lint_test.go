package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// fixtures are the known-bad packages under testdata/src; each is
// type-checked under a virtual import path so path-conditional rules
// (taintdet's package list, cancelcheck's internal/exec condition)
// fire without the fixtures living in the real tree.
var fixtures = []struct {
	name        string
	virtualPath string
	// rule overrides the rule name TestFixturesAreDetected expects at
	// least one finding of; empty means the fixture name is the rule.
	rule string
}{
	{name: "cancelcheck", virtualPath: "tpcds/internal/exec"},
	{name: "errcheck", virtualPath: "tpcds/internal/errfix"},
	{name: "panics", virtualPath: "tpcds/internal/panicfix"},
	{name: "strayio", virtualPath: "tpcds/internal/strayfix"},
	{name: "directive", virtualPath: "tpcds/internal/dirfix"},
	{name: "lockcheck", virtualPath: "tpcds/internal/lockfix"},
	{name: "goleak", virtualPath: "tpcds/internal/goleakfix"},
	{name: "ctxflow", virtualPath: "tpcds/internal/ctxfix"},
	{name: "taintdet", virtualPath: "tpcds/internal/datagen"},
	// obssanction exercises taintdet at the observability boundary:
	// clock values flowing only into obs are clean, values reaching
	// storage (or read back out of obs) are flagged.
	{name: "obssanction", virtualPath: "tpcds/internal/datagen", rule: "taintdet"},
	// taintinter holds clock and rand reads in helpers and closures,
	// each reported once, at the read. It poses as internal/sql, so a
	// helper outside the generator and exec packages is in scope.
	{name: "taintinter", virtualPath: "tpcds/internal/sql", rule: "taintdet"},
	// The nilness rules: nilcheck poses as internal/storage, errcontract
	// as internal/plan. Each fixture pairs known-bad shapes with clean
	// ones that must stay silent.
	{name: "nilcheck", virtualPath: "tpcds/internal/storage"},
	{name: "errcontract", virtualPath: "tpcds/internal/plan"},
}

// TestFixtureGoldens runs the analyzers over each known-bad fixture and
// compares the rendered diagnostics (plus the suppression count) against
// testdata/<name>.golden. Regenerate with: go test ./internal/lint -run
// Golden -update
func TestFixtureGoldens(t *testing.T) {
	loader, _, err := Module(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", fx.name))
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := loader.LoadDir(dir, fx.virtualPath)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			res := Check([]*Package{pkg})
			var sb strings.Builder
			for _, d := range res.Diagnostics {
				fmt.Fprintln(&sb, d)
			}
			fmt.Fprintf(&sb, "suppressed: %d\n", res.Suppressed)
			got := sb.String()

			golden := filepath.Join("testdata", fx.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestFixturesAreDetected guards against an analyzer silently going
// dead: every fixture except the directive one must produce at least
// one finding of its own rule.
func TestFixturesAreDetected(t *testing.T) {
	loader, _, err := Module(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		dir, err := filepath.Abs(filepath.Join("testdata", "src", fx.name))
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(dir, fx.virtualPath)
		if err != nil {
			t.Fatalf("%s: loading fixture: %v", fx.name, err)
		}
		rule := fx.rule
		if rule == "" {
			rule = fx.name
		}
		res := Check([]*Package{pkg})
		found := false
		for _, d := range res.Diagnostics {
			if d.Rule == rule {
				found = true
			}
		}
		if !found {
			t.Errorf("fixture %s produced no %q findings: %v", fx.name, rule, res.Diagnostics)
		}
	}
}

// TestLiveTreeClean asserts the real module passes its own gate — the
// same invariant CI enforces by running cmd/dslint. Skipped in -short
// mode: type-checking the whole module from source takes seconds.
func TestLiveTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide type check is slow; the dslint CI job covers it")
	}
	_, pkgs, err := Module(".")
	if err != nil {
		t.Fatal(err)
	}
	res := Check(pkgs)
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
	if !res.Clean() {
		t.Errorf("live tree has %d findings; fix them or add //lint:ignore with a reason", len(res.Diagnostics))
	}
}
