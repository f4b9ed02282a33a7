package lint

// sharecap checks the engine's closure-sharing contracts: a closure
// that runs concurrently with its creator — passed to a `go` statement,
// handed to forEachMorsel/parallelFor as the worker body, or compiled
// into a batch kernel shared by every morsel worker — may capture only
// state that is
//
//   - immutable after construction (read-only from the closure), or
//   - per-worker-owned: writes land in a slice/array slot whose index
//     is derived entirely from the closure's own locals and parameters
//     (counts[worker], results[stream] — each worker owns its slot), or
//   - synchronized: the write happens with a mutex provably held, or
//     goes through sync/atomic, or through a callee whose summary says
//     its mutation is internally synchronized.
//
// Kernels are stricter: a compiled kernel is invoked by every worker
// with no synchronization whatsoever, so ANY mutation of a captured
// value is flagged — per-worker slots and locks do not exist there.
//
// The check is summary-driven: a call inside the closure that passes a
// captured value to an in-graph function consults that function's
// MutatesParam/MutatesRecv bits (plain vs synchronized), so mutation
// hidden behind a helper is still caught. Calls through captured
// function VALUES are resolved when the capture's unique binding is a
// visible literal (probeOne/match in the join operators); an
// unresolvable function-value call is treated as safe with respect to
// its arguments — each kernel/closure is checked at its own creation
// site, which keeps the rule compositional instead of flagging every
// combinator.
//
// Scope: the packages that run morsel/stream parallelism.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var sharecapPkgs = map[string]bool{
	"tpcds/internal/exec":    true,
	"tpcds/internal/datagen": true,
	"tpcds/internal/driver":  true,
}

// workerPoolFuncs are the in-repo fork-join entry points whose worker
// closures run on multiple goroutines.
var workerPoolFuncs = map[string]bool{
	"forEachMorsel": true,
	"inMorsels":     true,
	"parallelFor":   true,
}

func analyzeShareCap(pr *Program, p *Package) []Diagnostic {
	if pr == nil || !sharecapPkgs[p.Path] {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, fs := range funcScopes(f) {
			sc := &shareCheck{pr: pr, p: p, scope: fs, reported: map[token.Pos]map[string]bool{}}
			out = append(out, sc.checkScope()...)
		}
	}
	return out
}

type shareCheck struct {
	pr    *Program
	p     *Package
	scope funcScope

	diags    []Diagnostic
	reported map[token.Pos]map[string]bool // mutation pos -> capture name
}

// checkScope finds the concurrent-closure sites in one function body
// and checks each closure.
func (sc *shareCheck) checkScope() []Diagnostic {
	p := sc.p
	inspectShallow(sc.scope.body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			if lit := sc.litOf(v.Call.Fun); lit != nil {
				sc.checkClosure(lit, lit, "goroutine closure", false, map[*ast.FuncLit]bool{})
			}
		case *ast.CallExpr:
			if name, ok := calleeIdentName(v.Fun); ok && workerPoolFuncs[name] {
				for _, arg := range v.Args {
					if lit := sc.litOf(arg); lit != nil {
						sc.checkClosure(lit, lit, "worker closure passed to "+name, false, map[*ast.FuncLit]bool{})
					}
				}
			}
		case *ast.ReturnStmt:
			for i, res := range v.Results {
				if lit, ok := unparen(res).(*ast.FuncLit); ok && sc.isKernelContext(i) {
					sc.checkClosure(lit, lit, "shared kernel", true, map[*ast.FuncLit]bool{})
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				lit, ok := unparen(rhs).(*ast.FuncLit)
				if !ok || i >= len(v.Lhs) {
					continue
				}
				if named := namedOf(p.typeOf(v.Lhs[i])); named != nil && sc.isLocalFuncType(named) {
					sc.checkClosure(lit, lit, "shared kernel", true, map[*ast.FuncLit]bool{})
				}
			}
		}
		return true
	})
	return sc.diags
}

// calleeIdentName extracts the bare or selector function name of a call
// target.
func calleeIdentName(fun ast.Expr) (string, bool) {
	switch v := unparen(fun).(type) {
	case *ast.Ident:
		return v.Name, true
	case *ast.SelectorExpr:
		return v.Sel.Name, true
	}
	return "", false
}

// isKernelContext reports whether result i of the enclosing scope has a
// locally declared named function type (triFn and friends) — the shape
// of a compiled kernel factory.
func (sc *shareCheck) isKernelContext(i int) bool {
	var sig *types.Signature
	if sc.scope.decl != nil {
		if obj, ok := sc.p.Info.Defs[sc.scope.decl.Name].(*types.Func); ok {
			sig, _ = obj.Type().(*types.Signature)
		}
	} else if sc.scope.lit != nil {
		sig, _ = sc.p.typeOf(sc.scope.lit).(*types.Signature)
	}
	if sig == nil || i >= sig.Results().Len() {
		return false
	}
	named := namedOf(sig.Results().At(i).Type())
	return named != nil && sc.isLocalFuncType(named)
}

// isLocalFuncType reports whether named is a function type declared in
// the analyzed package.
func (sc *shareCheck) isLocalFuncType(named *types.Named) bool {
	if named.Obj().Pkg() != sc.p.Types {
		return false
	}
	_, isFunc := named.Underlying().(*types.Signature)
	return isFunc
}

// litOf resolves an expression to a function literal: directly, or
// through an identifier whose unique binding in the enclosing scope is
// a literal.
func (sc *shareCheck) litOf(e ast.Expr) *ast.FuncLit {
	switch v := unparen(e).(type) {
	case *ast.FuncLit:
		return v
	case *ast.Ident:
		if obj := objOf(sc.p, v); obj != nil {
			return sc.bindingLit(obj)
		}
	}
	return nil
}

// bindingLit finds the unique function-literal binding of obj within
// the enclosing scope body (probeOne := func(...) {...}). Multiple or
// non-literal bindings yield nil.
func (sc *shareCheck) bindingLit(obj types.Object) *ast.FuncLit {
	var lit *ast.FuncLit
	count := 0
	ast.Inspect(sc.scope.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok || objOf(sc.p, id) != obj {
				continue
			}
			count++
			if i < len(as.Rhs) {
				if fl, ok := unparen(as.Rhs[i]).(*ast.FuncLit); ok {
					lit = fl
				}
			}
		}
		return true
	})
	if count == 1 {
		return lit
	}
	return nil
}

// checkClosure verifies one concurrently-running literal. boundary is
// the outermost concurrent literal: objects declared inside it are
// owned by the running worker (safe to mutate), objects declared
// outside it are shared captures. kernel selects the stricter rule.
// visited breaks cycles through mutually recursive local closures.
func (sc *shareCheck) checkClosure(lit, boundary *ast.FuncLit, kind string, kernel bool, visited map[*ast.FuncLit]bool) {
	if visited[lit] {
		return
	}
	visited[lit] = true
	p := sc.p

	g := buildCFG(lit.Body, p.terminatesStmt)
	solveForward(g, lockSet{}, newLockSet, cloneLockSet, joinLockSets,
		func(blk *Block, in lockSet) lockSet {
			held := cloneLockSet(in)
			for _, node := range blk.Nodes {
				p.lockEffects(node, held)
				sc.closureNode(node, boundary, kind, kernel, len(held) > 0, visited)
			}
			return held
		})
	// Literals nested inside this closure run on the same worker (defer,
	// recover, callbacks): same boundary, locks re-derived from their own
	// bodies.
	for _, nested := range directLits(lit.Body) {
		sc.checkClosure(nested, boundary, kind, kernel, visited)
	}
}

// directLits returns the function literals directly inside body (not
// those nested in deeper literals).
func directLits(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if fl, ok := m.(*ast.FuncLit); ok && m != n {
				out = append(out, fl)
				return false
			}
			return true
		})
	}
	walk(body)
	return out
}

// owned reports whether obj is declared inside the boundary literal —
// per-worker state the closure may freely mutate.
func (sc *shareCheck) owned(obj types.Object, boundary *ast.FuncLit) bool {
	return obj.Pos() >= boundary.Pos() && obj.Pos() <= boundary.End()
}

// sharedCapture reports whether obj is a captured local of an enclosing
// function: not owned by the worker, not a package-level variable
// (globals are the determinism rules' domain), not a named function or
// type.
func (sc *shareCheck) sharedCapture(obj types.Object, boundary *ast.FuncLit) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return false
	}
	return !sc.owned(obj, boundary)
}

// closureNode checks one CFG node of a concurrent closure.
func (sc *shareCheck) closureNode(node ast.Node, boundary *ast.FuncLit, kind string, kernel, held bool, visited map[*ast.FuncLit]bool) {
	inspectShallow(node, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				sc.checkWrite(lhs, boundary, kind, kernel, held)
			}
		case *ast.IncDecStmt:
			sc.checkWrite(v.X, boundary, kind, kernel, held)
		case *ast.CallExpr:
			sc.checkCall(v, boundary, kind, kernel, held, visited)
		}
		return true
	})
}

// checkWrite classifies one store inside a concurrent closure.
func (sc *shareCheck) checkWrite(lhs ast.Expr, boundary *ast.FuncLit, kind string, kernel, held bool) {
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := objOf(sc.p, root)
	if obj == nil || !sc.sharedCapture(obj, boundary) {
		return
	}
	if kernel {
		sc.report(lhs, obj.Name(), "%s captures %q and writes it; kernels shared by all workers may capture only immutable values", kind, obj.Name())
		return
	}
	if sc.ownedSlotWrite(lhs, boundary) {
		return // per-worker slice slot
	}
	if held {
		return // synchronized
	}
	sc.report(lhs, obj.Name(),
		"%s captures %q and writes it without synchronization; worker-shared captures must be immutable, per-worker-owned, or lock-protected", kind, obj.Name())
}

// ownedSlotWrite reports whether the store path indexes a slice or
// array with an index derived entirely from worker-owned values —
// the per-worker-slot idiom (counts[worker], results[stream]).
// Map indexing never qualifies: concurrent map writes race on the map
// itself no matter how the keys partition.
func (sc *shareCheck) ownedSlotWrite(lhs ast.Expr, boundary *ast.FuncLit) bool {
	for {
		switch v := unparen(lhs).(type) {
		case *ast.IndexExpr:
			if t := sc.p.typeOf(v.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Array:
					if sc.ownedExpr(v.Index, boundary) {
						return true
					}
				case *types.Pointer:
					if pt, ok := t.Underlying().(*types.Pointer); ok {
						if _, isArr := pt.Elem().Underlying().(*types.Array); isArr && sc.ownedExpr(v.Index, boundary) {
							return true
						}
					}
				}
			}
			lhs = v.X
		case *ast.SelectorExpr:
			lhs = v.X
		case *ast.StarExpr:
			lhs = v.X
		default:
			return false
		}
	}
}

// ownedExpr reports whether every identifier in e resolves to a
// worker-owned object (or a constant).
func (sc *shareCheck) ownedExpr(e ast.Expr, boundary *ast.FuncLit) bool {
	ok := true
	inspectShallow(e, func(x ast.Node) bool {
		id, isIdent := x.(*ast.Ident)
		if !isIdent {
			return ok
		}
		obj := objOf(sc.p, id)
		if obj == nil {
			return ok
		}
		switch obj.(type) {
		case *types.Const, *types.TypeName, *types.Builtin, *types.PkgName, *types.Func:
			return ok
		}
		if !sc.owned(obj, boundary) {
			ok = false
		}
		return ok
	})
	return ok
}

// checkCall folds callee effects on captured arguments into the check.
func (sc *shareCheck) checkCall(call *ast.CallExpr, boundary *ast.FuncLit, kind string, kernel, held bool, visited map[*ast.FuncLit]bool) {
	p := sc.p
	// A call through a captured function value whose binding is a
	// visible literal: check that literal as part of this worker (its
	// own locals are per-invocation, hence owned).
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if obj := objOf(p, id); obj != nil {
			if _, isVar := obj.(*types.Var); isVar {
				if bound := sc.bindingLit(obj); bound != nil {
					sc.checkClosure(bound, bound, kind+" (via "+obj.Name()+")", kernel, visited)
				}
				return // unresolvable function value: checked at its own creation site
			}
		}
	}
	if callee := sc.pr.calleeNode(p, call); callee != nil {
		cs := sc.pr.summaryOf(callee)
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && p.Info.Selections[sel] != nil {
			if cs.MutatesRecv || (kernel && cs.MutatesRecvSync) {
				sc.flagCalleeMutation(sel.X, boundary, kind, kernel, held, callee.Name)
			}
		}
		nparams := calleeParamCount(callee)
		for i, arg := range call.Args {
			j := i
			if nparams > 0 && j >= nparams {
				j = nparams - 1
			}
			if j >= 32 {
				continue
			}
			plain := cs.MutatesParam&(1<<j) != 0
			synced := cs.MutatesParamSync&(1<<j) != 0
			if plain || (kernel && synced) {
				sc.flagCalleeMutation(arg, boundary, kind, kernel, held, callee.Name)
			}
		}
		return
	}
	// External call with a modeled effect.
	eff := p.externalCallEffect(call)
	if eff.known {
		if eff.mutRecv && (!eff.syncRecv || kernel) {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				name, _ := calleeIdentName(call.Fun)
				sc.flagCalleeMutation(sel.X, boundary, kind, kernel, held && !kernel, name)
			}
		}
		for _, i := range eff.mutArgs {
			if i < len(call.Args) {
				name, _ := calleeIdentName(call.Fun)
				sc.flagCalleeMutation(call.Args[i], boundary, kind, kernel, held, name)
			}
		}
		return
	}
	// Unmodeled external call: conservatively assume pointer-like
	// captured arguments may be mutated.
	for _, arg := range call.Args {
		if pointerLike(p.typeOf(arg)) {
			name, _ := calleeIdentName(call.Fun)
			sc.flagCalleeMutation(arg, boundary, kind, kernel, held, name)
		}
	}
}

// flagCalleeMutation reports a captured value mutated through a call,
// applying the same owned/synchronized escapes as direct writes.
func (sc *shareCheck) flagCalleeMutation(arg ast.Expr, boundary *ast.FuncLit, kind string, kernel, held bool, callee string) {
	root := rootIdent(arg)
	if root == nil {
		return
	}
	obj := objOf(sc.p, root)
	if obj == nil || !sc.sharedCapture(obj, boundary) {
		return
	}
	if kernel {
		sc.report(arg, obj.Name(), "%s captures %q and mutates it via %s; kernels shared by all workers may capture only immutable values", kind, obj.Name(), callee)
		return
	}
	if sc.ownedSlotWrite(arg, boundary) {
		return
	}
	if held {
		return
	}
	sc.report(arg, obj.Name(),
		"%s captures %q and mutates it via %s without synchronization; worker-shared captures must be immutable, per-worker-owned, or lock-protected", kind, obj.Name(), callee)
}

// report emits one finding per (position, capture) pair.
func (sc *shareCheck) report(n ast.Node, capture, format string, args ...any) {
	at := n.Pos()
	if sc.reported[at] == nil {
		sc.reported[at] = map[string]bool{}
	}
	if sc.reported[at][capture] {
		return
	}
	sc.reported[at][capture] = true
	sc.diags = append(sc.diags, sc.p.diag(n, "sharecap", format, args...))
}
