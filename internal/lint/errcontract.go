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
// The interprocedural half lives in the two Summary fields computed by
// computeErrFacts after summary.go's bottom-up fixpoint, callees before
// callers: ReturnsNilErrOn marks error results nil on every return,
// NonNilResultWhenNilErr marks results non-nil whenever the trailing
// error is nil — the fact that promotes `if err != nil { return }` into
// a non-nil proof for the companion result.

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// analyzeErrContract is the errcontract analyzer entry.
func analyzeErrContract(pr *Program, p *Package) []Diagnostic {
	return nilAnalyze(pr, p)["errcontract"]
}

// checkConsume flags a pointer-shaped use of a companion-guarded result
// while its error is not excluded.
func (nf *nilFlow) checkConsume(env *nilEnv, base ast.Expr) {
	key := nf.p.canonKey(base)
	c, ok := env.comp[key]
	if !ok || env.nl[key] == nlNonNil {
		return // no companion, or independently proven non-nil
	}
	switch env.nl[c.errKey] {
	case nlNil:
		// The error is excluded on this path.
	case nlNonNil:
		nf.emit(base, "errcontract", "%s used although %s is non-nil", displayExpr(base), keyDisplay(c.errKey))
	default:
		nf.emit(base, "errcontract", "%s used before %s is checked", displayExpr(base), keyDisplay(c.errKey))
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

// ---- interprocedural error facts ----

// computeErrFacts fills ReturnsNilErrOn / NonNilResultWhenNilErr on
// every summary, callees before callers (sccs order), by running the
// engine over each body and reading the state at every return.
func (pr *Program) computeErrFacts() {
	for _, comp := range pr.sccs() {
		for _, n := range comp {
			pr.errFactsFor(n)
		}
	}
}

// errFactsFor computes the two bitmasks for one function.
func (pr *Program) errFactsFor(n *FuncNode) {
	fd := n.Decl
	if fd.Type.Results == nil {
		return
	}
	var resObjs []types.Object
	var resTypes []types.Type
	for _, f := range fd.Type.Results.List {
		t := n.Pkg.Info.Types[f.Type].Type
		if len(f.Names) == 0 {
			resObjs, resTypes = append(resObjs, nil), append(resTypes, t)
		}
		for _, nm := range f.Names {
			resObjs, resTypes = append(resObjs, n.Pkg.Info.Defs[nm]), append(resTypes, t)
		}
	}
	nres := len(resTypes)
	if nres == 0 || nres > 32 {
		return
	}
	errIdx := -1 // the trailing error result
	for i, t := range resTypes {
		if t != nil && isErrorType(t) {
			errIdx = i
		}
	}
	var okMask uint32 // results that may carry the non-nil-on-success bit
	for i, t := range resTypes {
		if i != errIdx && nilable(t) {
			okMask |= 1 << uint(i)
		}
	}
	if errIdx < 0 && okMask == 0 {
		return
	}
	nf := &nilFlow{pr: pr, p: n.Pkg}
	g, ins := nf.solve(funcScope{name: fd.Name.Name, decl: fd, body: fd.Body})
	errAlwaysNil := errIdx >= 0
	sawReturn := false
	for _, blk := range g.Blocks {
		env := ins[blk].clone()
		for _, node := range blk.Nodes {
			if ret, ok := node.(*ast.ReturnStmt); ok {
				sawReturn = true
				vals := nf.returnValues(env, ret, resObjs, resTypes)
				errNl := nlUnknown
				if errIdx >= 0 {
					errNl = vals[errIdx]
					if errNl != nlNil {
						errAlwaysNil = false
					}
				}
				if errNl != nlNonNil {
					// The error can be nil on this return: every result
					// keeping its bit must be non-nil here.
					for i := 0; i < nres; i++ {
						if vals[i] != nlNonNil {
							okMask &^= 1 << uint(i)
						}
					}
				}
			}
			nf.transfer(env, node)
		}
	}
	sum := pr.summaryOf(n)
	// A function with no normal return (panic, endless loop) keeps the
	// conservative zero: the fact would be vacuous.
	if errAlwaysNil && sawReturn {
		sum.ReturnsNilErrOn |= 1 << uint(errIdx)
	}
	sum.NonNilResultWhenNilErr = okMask
}

// returnValues computes the nilness of each result at one return.
func (nf *nilFlow) returnValues(env *nilEnv, ret *ast.ReturnStmt, resObjs []types.Object, resTypes []types.Type) []nil3 {
	nres := len(resTypes)
	vals := make([]nil3, nres)
	switch {
	case len(ret.Results) == 0:
		for i, obj := range resObjs {
			if obj != nil {
				vals[i] = env.nl[objKey(obj)]
			}
		}
	case len(ret.Results) == nres:
		for i, r := range ret.Results {
			vals[i] = nf.returnNilness(env, r)
		}
	case len(ret.Results) == 1:
		// return f(): forward the callee's facts. Its non-nil-on-success
		// bit is an unconditional fact only when no error rides along.
		call, ok := unparen(ret.Results[0]).(*ast.CallExpr)
		if !ok {
			break
		}
		cn := nf.pr.calleeNode(nf.p, call)
		if cn == nil || cn.sum == nil {
			break
		}
		hasErr := false
		for _, t := range resTypes {
			hasErr = hasErr || (t != nil && isErrorType(t))
		}
		for i := 0; i < nres; i++ {
			switch {
			case resTypes[i] != nil && isErrorType(resTypes[i]):
				if cn.sum.ReturnsNilErrOn&(1<<uint(i)) != 0 {
					vals[i] = nlNil
				}
			case cn.sum.NonNilResultWhenNilErr&(1<<uint(i)) != 0 && !hasErr:
				vals[i] = nlNonNil
			}
		}
	}
	return vals
}

// returnNilness resolves one returned expression's nilness: syntax and
// the state first, then the error-constructor model (errors.New and
// fmt.Errorf never return nil), then a single-result callee's summary.
func (nf *nilFlow) returnNilness(env *nilEnv, e ast.Expr) nil3 {
	if n := nf.nilFact(env, e); n != nlUnknown {
		return n
	}
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return nlUnknown
	}
	if externalErrCtor(nf.p, call) != "" {
		return nlNonNil
	}
	cn := nf.pr.calleeNode(nf.p, call)
	t := nf.p.typeOf(e)
	if cn == nil || cn.sum == nil || t == nil {
		return nlUnknown
	}
	if isErrorType(t) {
		if cn.sum.ReturnsNilErrOn&1 != 0 {
			return nlNil
		}
		return nlUnknown
	}
	if nilable(t) && cn.sum.NonNilResultWhenNilErr&1 != 0 {
		// Only unconditional for a single-result callee.
		if sig, ok := nf.p.typeOf(call.Fun).(*types.Signature); ok && sig.Results().Len() == 1 {
			return nlNonNil
		}
	}
	return nlUnknown
}
