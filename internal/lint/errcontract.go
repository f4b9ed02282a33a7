package lint

// errcontract.go enforces the (T, error) contract flow-sensitively:
//
//   - a call result guarded by a companion error must not be consumed
//     (dereferenced, indexed, sliced, ranged, or selected through) on a
//     path where the error has not been excluded — the nilness of the
//     error key must be nil at the use;
//   - error wrapping must preserve the original: an error formatted
//     into fmt.Errorf must use the %w verb, and a return constructing a
//     fresh error while a live error value is non-nil must mention it.
//
// Consuming uses are restricted to pointer-shaped operations: scalar
// arithmetic on an (int, error) result (`n, err := w.Write(b); total +=
// n`) is fine by design — only uses that can panic or read through the
// result count.
//
// A callee's body is not consulted: every pointer-shaped result of a
// (T, error) call is guarded by its error until a branch excludes it.

import (
	"go/ast"
	"go/constant"
	"sort"
	"strings"
)

// analyzeErrContract is the errcontract analyzer entry.
func analyzeErrContract(p *Package) []Diagnostic {
	return nilAnalyze(p)["errcontract"]
}

// checkConsume flags a pointer-shaped use of a companion-guarded result
// while its error is not excluded.
func (nf *nilFlow) checkConsume(env *nilEnv, base ast.Expr) {
	key := nf.p.canonKey(base)
	errKey, ok := env.comp[key]
	if !ok || env.nl[key] == nlNonNil {
		return // no companion, or independently proven non-nil
	}
	switch env.nl[errKey] {
	case nlNil:
		// The error is excluded on this path.
	case nlNonNil:
		nf.emit(base, "errcontract", "%s used although %s is non-nil", displayExpr(base), keyDisplay(errKey))
	default:
		nf.emit(base, "errcontract", "%s used before %s is checked", displayExpr(base), keyDisplay(errKey))
	}
}

// checkReturn enforces the wrap obligations at one return site.
func (nf *nilFlow) checkReturn(env *nilEnv, ret *ast.ReturnStmt) {
	for _, r := range ret.Results {
		nf.checkExpr(env, r)
	}
	for _, r := range ret.Results {
		call, ok := unparen(r).(*ast.CallExpr)
		if !ok {
			continue
		}
		switch externalErrCtor(nf.p, call) {
		case "fmt.Errorf":
			nf.checkErrorfWrap(call)
			nf.checkDropsOriginal(env, ret, call)
		case "errors.New":
			nf.checkDropsOriginal(env, ret, call)
		}
	}
}

// externalErrCtor classifies a call as fmt.Errorf / errors.New, else "".
func externalErrCtor(p *Package, call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch name := obj.Pkg().Path() + "." + obj.Name(); name {
	case "fmt.Errorf", "errors.New":
		return name
	}
	return ""
}

// checkErrorfWrap flags an error value formatted with a verb other than
// %w: %v (or %s) erases the chain errors.Is/As walks.
func (nf *nilFlow) checkErrorfWrap(call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	tv, ok := nf.p.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	verbs, ok := formatVerbs(constant.StringVal(tv.Value))
	if !ok {
		return // indexed or otherwise exotic format: no claim
	}
	for i, arg := range call.Args[1:] {
		if t := nf.p.typeOf(arg); t == nil || !isErrorType(t) {
			continue
		}
		if i >= len(verbs) {
			break
		}
		if verbs[i] != 'w' {
			nf.emit(arg, "errcontract", "error %s wrapped with %%%c: use %%w to preserve it", displayExpr(arg), verbs[i])
		}
	}
}

// formatVerbs extracts the verb letters of a format string in argument
// order. ok=false when the format uses explicit argument indexes.
func formatVerbs(format string) ([]byte, bool) {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		if format[i] == '[' {
			return nil, false
		}
		for i < len(format) && strings.IndexByte("#0- +.123456789", format[i]) >= 0 {
			i++
		}
		if i < len(format) {
			verbs = append(verbs, format[i])
		}
	}
	return verbs, true
}

// checkDropsOriginal flags a return that constructs a fresh error while
// a live error value is non-nil and unmentioned in any result — the
// original failure is silently discarded.
func (nf *nilFlow) checkDropsOriginal(env *nilEnv, ret *ast.ReturnStmt, ctor *ast.CallExpr) {
	var live []string
	for key := range nf.errKeys {
		if env.nl[key] == nlNonNil {
			live = append(live, key)
		}
	}
	if len(live) == 0 {
		return
	}
	sort.Strings(live)
	mentioned := map[string]bool{}
	for _, r := range ret.Results {
		ast.Inspect(r, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := objOf(nf.p, id); obj != nil {
					mentioned[objKey(obj)] = true
				}
			}
			return true
		})
	}
	for _, key := range live {
		if !mentioned[key] {
			nf.emit(ctor, "errcontract", "returned error drops the original %s", keyDisplay(key))
			return // one finding per return suffices
		}
	}
}
