package lint

// nilcheck.go flags the definite-nil bugs nilness.go's lattice proves:
// dereferencing a pointer known nil on this path (star deref or field
// access through it) and writing to a map known nil. "Known nil" means
// every path reaching the use leaves the value nil — zero-value
// declarations, explicit nil assignments, or the nil arm of an
// `if x != nil` branch. May-be-nil results of (T, error) calls are
// errcontract's business (use before the error check), not nilcheck's,
// so no finding is reported by both rules.
//
// Scope: internal/exec, internal/plan, internal/storage, internal/obs —
// the packages whose error and early-return paths run rarely enough
// that a latent nil dereference survives the test suite.

import (
	"go/ast"
	"go/types"
)

// analyzeNilCheck is the nilcheck analyzer entry.
func analyzeNilCheck(pr *Program, p *Package) []Diagnostic {
	return nilAnalyze(pr, p)["nilcheck"]
}

// nilPointer reports whether x is a pointer nil on every path here.
func (nf *nilFlow) nilPointer(env *nilEnv, x ast.Expr) bool {
	t := nf.p.typeOf(x)
	if t == nil {
		return false
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return false
	}
	return env.nl[nf.p.canonKey(x)] == nlNil
}

// checkNilDeref flags *x when x is nil on every path here.
func (nf *nilFlow) checkNilDeref(env *nilEnv, v *ast.StarExpr) {
	if nf.nilPointer(env, v.X) {
		nf.emit(v, "nilcheck", "dereference of nil pointer %s", displayExpr(v.X))
	}
}

// checkNilField flags x.f (a field access, which dereferences) when x
// is a pointer known nil. Method calls are exempt: methods may accept
// nil receivers by design.
func (nf *nilFlow) checkNilField(env *nilEnv, v *ast.SelectorExpr) {
	if sel := nf.p.Info.Selections[v]; sel != nil && sel.Kind() == types.FieldVal && nf.nilPointer(env, v.X) {
		nf.emit(v, "nilcheck", "field access through nil pointer %s", displayExpr(v.X))
	}
}

// checkNilMapWrite flags m[k] = v when m is nil on every path here (a
// nil map read is defined; the write panics).
func (nf *nilFlow) checkNilMapWrite(env *nilEnv, v *ast.IndexExpr) {
	if env.nl[nf.p.canonKey(v.X)] == nlNil {
		nf.emit(v, "nilcheck", "write to nil map %s", displayExpr(v.X))
	}
}
