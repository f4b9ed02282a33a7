// Package lint implements dslint, the repo's static-analysis gate. It
// enforces engine invariants the Go compiler cannot check, at analysis
// time rather than after a multi-minute benchmark run:
//
//   - cancelcheck: row-scale loops in internal/exec must poll the
//     per-query cancellation helpers (qctx tick/done/checkNow) so
//     timeouts and aborts keep bounded latency;
//   - errcheck: no call may silently discard an error result;
//   - panics: library panics must be package-prefixed invariant
//     messages (the query-boundary recover attributes them) or the
//     sanctioned qctx cancellation sentinel;
//   - strayio: fmt.Print*/os.Stdout/os.Stderr are reserved for main
//     packages — library code writes to an injected io.Writer.
//
// On top of the statement-level rules sits a flow-sensitive tier built
// on an intraprocedural CFG (cfg.go) and a generic forward worklist
// solver (dataflow.go):
//
//   - lockcheck: every sync.Mutex/RWMutex Lock is Unlocked on every
//     path to return (defer-aware), no double-Lock on a path, and no
//     channel operation while a lock is held;
//   - goleak: every `go` statement has a provable join — WaitGroup
//     Add/Done/Wait pairing with Wait on all paths from the spawn to
//     return, or a cancellation-driven exit;
//   - ctxflow: context.Background()/TODO() are banned in library
//     packages, and a function holding a ctx must thread it into every
//     callee that accepts one;
//   - taintdet: a forward taint analysis that reports a wall-clock,
//     global-rand, environment or obs read-back value where it is read,
//     once, when it escapes its function — by a return or as an
//     argument of a call outside obs, time and the builtins — in every
//     internal library package but obs, driver and lint;
//   - nilcheck and errcontract: definite-nil dereferences, and (T,
//     error) results used before their error is checked or wrapped so
//     the chain breaks — both on the nilness lattice of nilness.go.
//
// Every rule is one pass over one package, and no rule looks into the
// body of a function a call reaches: a call's effects are unknown
// unless its callee is one the rule models.
//
// Each rule catches a seeded defect nothing else in CI catches
// (EXPERIMENTS.md "seeded-defect study at one goroutine per query").
//
// False positives are suppressed, never silently: a
// "//lint:ignore <rule> <reason>" comment on the flagged line or the
// line above suppresses one rule there, is counted in the result, and
// becomes itself a finding when it stops matching anything or names no
// rule.
//
// The implementation is pure standard library (go/parser, go/ast,
// go/types); see load.go for how module packages are type-checked from
// source without x/tools.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, positioned like a compiler error.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// MarshalJSON flattens the position so the -json output of cmd/dslint
// is a stable, machine-readable record per finding.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Rule    string `json:"rule"`
		Message string `json:"message"`
	}{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message})
}

// Result is the outcome of checking a set of packages.
type Result struct {
	Diagnostics []Diagnostic
	Suppressed  int // findings silenced by matching //lint:ignore directives

	// SuppressedByRule splits Suppressed per rule: the input of the
	// suppression-ratchet baseline (cmd/dslint -baseline).
	SuppressedByRule map[string]int

	// Timings is the cumulative wall time per analyzer across all
	// packages (cmd/dslint -timings). Whichever of nilcheck and
	// errcontract runs first absorbs their shared per-package pass; the
	// other reads its cache.
	Timings map[string]time.Duration
}

// Clean reports whether no findings survived.
func (r *Result) Clean() bool { return len(r.Diagnostics) == 0 }

// analyzers lists the source rules: the four statement-level analyzers
// followed by the flow-sensitive ones.
var analyzers = []struct {
	name string
	fn   func(*Package) []Diagnostic
}{
	{"cancelcheck", analyzeCancelCheck},
	{"errcheck", analyzeErrCheck},
	{"panics", analyzePanics},
	{"strayio", analyzeStrayIO},
	{"lockcheck", analyzeLockCheck},
	{"goleak", analyzeGoLeak},
	{"ctxflow", analyzeCtxFlow},
	{"taintdet", analyzeTaintDet},
	{"nilcheck", analyzeNilCheck},
	{"errcontract", analyzeErrContract},
}

// KnownRule reports whether name is a registered analyzer.
func KnownRule(name string) bool {
	for _, a := range analyzers {
		if a.name == name {
			return true
		}
	}
	return false
}

// Check runs every analyzer over every package, applies //lint:ignore
// directives, and returns the surviving findings sorted by position.
func Check(pkgs []*Package) *Result {
	res := &Result{SuppressedByRule: map[string]int{}, Timings: map[string]time.Duration{}}
	for _, p := range pkgs {
		dirs, dirDiags := collectDirectives(p)
		res.Diagnostics = append(res.Diagnostics, dirDiags...)
		var raw []Diagnostic
		for _, a := range analyzers {
			start := time.Now()
			raw = append(raw, a.fn(p)...)
			res.Timings[a.name] += time.Since(start)
		}
		for _, d := range raw {
			if suppress(dirs, d) {
				res.Suppressed++
				res.SuppressedByRule[d.Rule]++
				continue
			}
			res.Diagnostics = append(res.Diagnostics, d)
		}
		for _, ds := range dirs {
			for _, dir := range ds {
				if dir.used {
					continue
				}
				msg := fmt.Sprintf("//lint:ignore %s directive suppresses nothing (stale?)", dir.rule)
				if !KnownRule(dir.rule) {
					msg = fmt.Sprintf("//lint:ignore %s names no dslint rule", dir.rule)
				}
				res.Diagnostics = append(res.Diagnostics, Diagnostic{Pos: dir.pos, Rule: "directive", Message: msg})
			}
		}
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return res
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	rule   string
	reason string
	line   int
	pos    token.Position
	used   bool
}

// collectDirectives parses every //lint:ignore comment of the package,
// keyed by filename. Malformed directives (missing rule or reason) are
// findings themselves: an unexplained suppression is worse than the
// finding it hides.
func collectDirectives(p *Package) (map[string][]*directive, []Diagnostic) {
	dirs := map[string][]*directive{}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Pos:     pos,
						Rule:    "directive",
						Message: "malformed //lint:ignore: want \"//lint:ignore <rule> <reason>\"",
					})
					continue
				}
				dirs[pos.Filename] = append(dirs[pos.Filename], &directive{
					rule:   fields[0],
					reason: strings.Join(fields[1:], " "),
					line:   pos.Line,
					pos:    pos,
				})
			}
		}
	}
	return dirs, diags
}

// suppress reports whether a directive covers the diagnostic: same
// file, same rule, on the flagged line or the line immediately above.
func suppress(dirs map[string][]*directive, d Diagnostic) bool {
	for _, dir := range dirs[d.Pos.Filename] {
		if dir.rule == d.Rule && (dir.line == d.Pos.Line || dir.line == d.Pos.Line-1) {
			dir.used = true
			return true
		}
	}
	return false
}

// diag builds a Diagnostic at a node's position.
func (p *Package) diag(n ast.Node, rule, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:     p.Fset.Position(n.Pos()),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}
