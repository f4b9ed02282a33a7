package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// renderProgram flattens a Program into one deterministic string: every
// node with its summary and resolved callees, in node order.
func renderProgram(pr *Program) string {
	var sb strings.Builder
	for _, n := range pr.Nodes {
		fmt.Fprintf(&sb, "%s: %+v", n.Name, *n.sum)
		for _, c := range n.Calls {
			fmt.Fprintf(&sb, " -> %s", c.Name)
		}
		if n.CallsUnknown {
			sb.WriteString(" [unknown]")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCallGraphDeterminism pins the property the CI byte-diff check
// relies on: two independent builds over the same packages produce
// identical node order, edges, and summaries.
func TestCallGraphDeterminism(t *testing.T) {
	_, pkgs, err := Module(".")
	if err != nil {
		t.Fatal(err)
	}
	a := renderProgram(buildProgram(pkgs))
	b := renderProgram(buildProgram(pkgs))
	if a != b {
		t.Errorf("two call-graph builds differ:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// loadFixture type-checks one testdata package under a virtual path.
func loadFixture(t *testing.T, name, virtualPath string) *Package {
	t.Helper()
	loader, _, err := Module(".")
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, virtualPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// TestSummaryFacts checks the computed summaries of fixture functions
// with known-by-construction behavior, including the mutually
// recursive pair that exercises the SCC fixpoint.
func TestSummaryFacts(t *testing.T) {
	taint := buildProgram([]*Package{loadFixture(t, "taintinter", "tpcds/internal/datagen")})

	find := func(pr *Program, name string) *FuncNode {
		t.Helper()
		for _, n := range pr.Nodes {
			if strings.HasSuffix(n.Name, "."+name) {
				return n
			}
		}
		t.Fatalf("no node %q", name)
		return nil
	}

	if s := find(taint, "stamp").sum; !s.TaintsReturn || s.TaintSrc != "time.Now" {
		t.Errorf("stamp: want taints-return from time.Now, got %v", s)
	}
	if s := find(taint, "emit").sum; s.ParamToSink&1 == 0 {
		t.Errorf("emit: want param 0 to sink, got %v", s)
	}
	// The SCC fixpoint must terminate on walkEven<->walkOdd and carry
	// param 1 (t) to the return of both members.
	for _, name := range []string{"walkEven", "walkOdd"} {
		if s := find(taint, name).sum; s.ParamToRet&2 == 0 {
			t.Errorf("%s: want param 1 to return through the recursion, got %v", name, s)
		}
	}
	if s := find(taint, "rowsFor").sum; s.CallsUnknown || s.MutatesParam != 0 || s.MutatesRecv {
		t.Errorf("rowsFor: want a fully-resolved effect-free summary, got %v", s)
	}

	if s := find(taint, "rename").sum; s.MutatesParam&1 == 0 {
		t.Errorf("rename: want mutation of param 0, got %v", s)
	}
}
