package lint

// obssanction.go — the observability carve-out of the determinism
// rules. Generator packages are banned from reading the wall clock
// because a clock reading that reaches generated data breaks the
// bit-repeatability contract (§3.2). Observability instrumentation,
// however, legitimately measures wall time: a datagen phase span or a
// build-duration histogram must read the clock and must never touch
// the data. The sanction encodes exactly that boundary:
//
//	start := time.Now()                   // sanctioned …
//	t := gen()
//	reg.Histogram("ns").ObserveDuration(time.Since(start)) // … because
//	                                      // every read of start lands in
//	                                      // an obs recording call
//
// A wall-clock value is sanctioned only when every use of it flows
// into internal/obs; one additional use that escapes toward storage —
// or anywhere else — keeps the ban in force. The converse leak, a
// value read BACK from obs instruments (a span duration, a counter
// value) flowing into generated data, is caught by taintdet, which
// treats those reads as taint sources (see taintSource).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// obsPkgPath is the observability package whose recording calls are
// the one sanctioned destination for wall-clock values.
const obsPkgPath = "tpcds/internal/obs"

// isObsCall reports whether call invokes a function or method defined
// in internal/obs (Registry.Histogram, Histogram.ObserveDuration,
// Span.SetAttrInt, …).
func (p *Package) isObsCall(call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == obsPkgPath
}

// posRange is a half-open source interval [lo, hi).
type posRange struct{ lo, hi token.Pos }

func containsPos(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}

// obsSanctionedRanges computes the source ranges of one file whose
// wall-clock reads are sanctioned: the argument lists of obs calls,
// plus — by fixpoint — the assignment sources of every local variable
// whose reads all land inside already-sanctioned ranges. The fixpoint
// runs backward through def-use chains: sanctioning ObserveDuration's
// argument sanctions `elapsed`, which sanctions `elapsed :=
// time.Since(start)`, which sanctions `start`, which sanctions `start
// := time.Now()`. A variable with even one escaping read never becomes
// sanctioned, so a value reaching both obs and storage stays banned.
func (p *Package) obsSanctionedRanges(f *ast.File) []posRange {
	var ranges []posRange
	// Seed: every argument of every obs call.
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && p.isObsCall(call) {
			for _, a := range call.Args {
				ranges = append(ranges, posRange{a.Pos(), a.End()})
			}
		}
		return true
	})
	if len(ranges) == 0 {
		return nil
	}

	// Def-use index of the file's local variables: read positions
	// (excluding plain-assignment writes) and assignment sources.
	type varInfo struct {
		reads []token.Pos
		rhs   []ast.Expr
	}
	vars := map[types.Object]*varInfo{}
	local := map[types.Object]bool{}
	info := func(obj types.Object) *varInfo {
		vi := vars[obj]
		if vi == nil {
			vi = &varInfo{}
			vars[obj] = vi
		}
		return vi
	}
	writes := map[token.Pos]bool{}
	recordAssign := func(lhs []ast.Expr, rhs []ast.Expr, tok token.Token) {
		if len(lhs) != len(rhs) {
			// Multi-value unpacking (a, b := f()): no per-variable
			// source attribution; conservatively leave unsanctioned.
			return
		}
		for i, l := range lhs {
			id, ok := unparen(l).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := p.Info.Defs[id]
			if obj == nil {
				obj = p.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			info(obj).rhs = append(info(obj).rhs, rhs[i])
			if tok == token.ASSIGN {
				// Plain reassignment: the LHS ident is a write, not a
				// read. Compound tokens (+=) read the old value and are
				// left as reads.
				writes[id.Pos()] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			recordAssign(v.Lhs, v.Rhs, v.Tok)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(v.Names))
			for i, name := range v.Names {
				lhs[i] = name
			}
			recordAssign(lhs, v.Values, token.DEFINE)
		case *ast.Ident:
			if obj := p.Info.Defs[v]; obj != nil {
				local[obj] = true
			}
			if obj := p.Info.Uses[v]; obj != nil && local[obj] {
				info(obj).reads = append(info(obj).reads, v.Pos())
			}
		}
		return true
	})

	// Fixpoint: sanction variables whose every read is sanctioned.
	sanctioned := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for obj, vi := range vars {
			if sanctioned[obj] || len(vi.reads) == 0 {
				continue
			}
			ok := true
			for _, pos := range vi.reads {
				if !writes[pos] && !containsPos(ranges, pos) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			sanctioned[obj] = true
			changed = true
			for _, r := range vi.rhs {
				ranges = append(ranges, posRange{r.Pos(), r.End()})
			}
		}
	}
	return ranges
}
