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
		fmt.Fprintf(&sb, "%s: %s", n.Name, n.Summary())
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
	pub := buildProgram([]*Package{loadFixture(t, "pubfreeze", "tpcds/internal/pubfix")})

	find := func(pr *Program, name string) *FuncNode {
		t.Helper()
		n, candidates := pr.FindNode(name)
		if n == nil {
			t.Fatalf("no node %q (candidates: %v)", name, candidates)
		}
		return n
	}

	if s := find(taint, "stamp").Summary(); !s.TaintsReturn || s.TaintSrc != "time.Now" {
		t.Errorf("stamp: want taints-return from time.Now, got %v", s)
	}
	if s := find(taint, "emit").Summary(); s.ParamToSink&1 == 0 {
		t.Errorf("emit: want param 0 to sink, got %v", s)
	}
	// The SCC fixpoint must terminate on walkEven<->walkOdd and carry
	// param 1 (t) to the return of both members.
	for _, name := range []string{"walkEven", "walkOdd"} {
		if s := find(taint, name).Summary(); s.ParamToRet&2 == 0 {
			t.Errorf("%s: want param 1 to return through the recursion, got %v", name, s)
		}
	}
	if s := find(taint, "rowsFor").Summary(); s.CallsUnknown || s.MutatesParam != 0 || s.MutatesRecv {
		t.Errorf("rowsFor: want a fully-resolved effect-free summary, got %v", s)
	}

	if s := find(pub, "rename").Summary(); s.MutatesParam&1 == 0 {
		t.Errorf("rename: want mutation of param 0, got %v", s)
	}
}

// TestFindNode covers the -summary name resolution: exact display
// names, unique suffixes, and ambiguity reporting.
func TestFindNode(t *testing.T) {
	pr := buildProgram([]*Package{loadFixture(t, "pubfreeze", "tpcds/internal/pubfix")})

	if n, _ := pr.FindNode("pubfix.rename"); n == nil || n.Name != "pubfix.rename" {
		t.Errorf("exact lookup failed: %v", n)
	}
	if n, _ := pr.FindNode("putThenPatch"); n == nil || n.Name != "pubfix.putThenPatch" {
		t.Errorf("suffix lookup failed: %v", n)
	}
	// Two Put methods (planCache, statsCache): the bare suffix is
	// ambiguous and must list both candidates.
	if n, candidates := pr.FindNode("Put"); n != nil || len(candidates) != 2 {
		t.Errorf("ambiguous lookup: node=%v candidates=%v", n, candidates)
	}
	if n, candidates := pr.FindNode("(planCache).Put"); n == nil || len(candidates) != 0 {
		t.Errorf("qualified suffix lookup: node=%v candidates=%v", n, candidates)
	}
}
