package lint

// pubfreeze checks the publication-freeze contract: a value inserted
// into a shared cache — the plan cache, the stats cache, a sync.Map, or
// any map stored into under a held lock — is visible to other
// goroutines the moment the publishing call returns, so the publisher
// must not modify it afterwards. The lock that protected the insert
// does not help: readers get the value out and use it unlocked.
//
// Publish sites recognized:
//
//   - x.Put(key, v, ...) where x's named type ends in "Cache";
//   - sync.Map Store / LoadOrStore;
//   - any method named Publish;
//   - m[k] = v with a mutex provably held (the lock-guarded map idiom
//     the stats cache uses).
//
// Only values that can alias are tracked: a published struct copy with
// no pointer-like component (all-scalar stats entries) cannot be
// changed retroactively, so writes to the local afterwards are fine.
// For a published VALUE with pointer-like components, only writes that
// reach shared memory — through a pointer, slice or map in the access
// path — are flagged; overwriting the local variable itself re-binds it
// and ends tracking (strong update).
//
// Mutation through calls is summary-driven: passing a published value
// to a function whose summary mutates that parameter (synchronized or
// not — the contract is "unmodified", not "data-race-free") is flagged.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pubInfo records one published object.
type pubInfo struct {
	name string // source spelling, for the message
	sink string // where it was published, for the message
}

// pubState is the dataflow fact: held locks (intersection-joined) plus
// the published set (union-joined).
type pubState struct {
	locks lockSet
	pub   map[types.Object]pubInfo
}

func newPubState() pubState {
	return pubState{locks: lockSet{}, pub: map[types.Object]pubInfo{}}
}

func clonePubState(s pubState) pubState {
	c := pubState{locks: cloneLockSet(s.locks), pub: make(map[types.Object]pubInfo, len(s.pub))}
	for k, v := range s.pub {
		c.pub[k] = v
	}
	return c
}

func joinPubStates(dst, src pubState) bool {
	changed := joinLockSets(dst.locks, src.locks)
	for k, v := range src.pub {
		if _, ok := dst.pub[k]; !ok {
			dst.pub[k] = v
			changed = true
		}
	}
	return changed
}

func analyzePubFreeze(pr *Program, p *Package) []Diagnostic {
	if pr == nil {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, fs := range funcScopes(f) {
			pf := &pubCheck{pr: pr, p: p, reported: map[token.Pos]bool{}}
			out = append(out, pf.checkScope(fs)...)
		}
	}
	return out
}

type pubCheck struct {
	pr *Program
	p  *Package

	diags    []Diagnostic
	reported map[token.Pos]bool
}

func (pf *pubCheck) checkScope(fs funcScope) []Diagnostic {
	// Cheap pre-pass: no publish site, nothing to track.
	found := false
	inspectShallow(fs.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && pf.publishCall(call) != "" {
			found = true
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if ie, ok := unparen(lhs).(*ast.IndexExpr); ok {
					if t := pf.p.typeOf(ie.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							found = true
						}
					}
				}
			}
		}
		return !found
	})
	if !found {
		return nil
	}
	g := buildCFG(fs.body, pf.p.terminatesStmt)
	solveForward(g, newPubState(), newPubState, clonePubState, joinPubStates,
		func(blk *Block, in pubState) pubState {
			st := clonePubState(in)
			for _, node := range blk.Nodes {
				pf.p.lockEffects(node, st.locks)
				pf.transferNode(node, st)
			}
			return st
		})
	return pf.diags
}

// publishCall classifies a call as a publish site, returning the sink
// description ("" when it is not one).
func (pf *pubCheck) publishCall(call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s := pf.p.Info.Selections[sel]
	if s == nil {
		return ""
	}
	named := namedOf(s.Recv())
	if named == nil {
		return ""
	}
	rname := named.Obj().Name()
	switch sel.Sel.Name {
	case "Put":
		if strings.HasSuffix(rname, "Cache") {
			return displayExpr(sel.X)
		}
	case "Store", "LoadOrStore":
		if rname == "Map" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" {
			return displayExpr(sel.X)
		}
	case "Publish":
		return displayExpr(sel.X)
	}
	return ""
}

// transferNode checks mutations against the pre-state, then records new
// publications.
func (pf *pubCheck) transferNode(node ast.Node, st pubState) {
	// Mutations of already-published values.
	inspectShallow(node, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				pf.checkWrite(lhs, v.Tok, st)
			}
		case *ast.IncDecStmt:
			pf.checkWrite(v.X, token.ASSIGN, st)
		case *ast.CallExpr:
			pf.checkCallMutation(v, st)
		}
		return true
	})
	// New publications.
	inspectShallow(node, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.CallExpr:
			if sink := pf.publishCall(v); sink != "" {
				args := v.Args
				if len(args) > 1 {
					args = args[1:] // first arg is the key
				}
				for _, arg := range args {
					pf.publish(arg, sink, st)
				}
			}
		case *ast.AssignStmt:
			// m[k] = v with a lock held: the lock-guarded shared-map idiom.
			if len(st.locks) == 0 {
				return true
			}
			for i, lhs := range v.Lhs {
				ie, ok := unparen(lhs).(*ast.IndexExpr)
				if !ok || i >= len(v.Rhs) {
					continue
				}
				t := pf.p.typeOf(ie.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pf.publish(v.Rhs[i], displayExpr(ie.X), st)
				}
			}
		}
		return true
	})
}

// publish starts tracking arg when it is a plain identifier whose type
// can alias shared memory.
func (pf *pubCheck) publish(arg ast.Expr, sink string, st pubState) {
	id, ok := unparen(arg).(*ast.Ident)
	if !ok {
		return
	}
	obj := objOf(pf.p, id)
	if obj == nil || !canAlias(obj.Type()) {
		return
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return
	}
	st.pub[obj] = pubInfo{name: id.Name, sink: sink}
}

// canAlias reports whether a value of type t shares mutable state with
// copies of itself: pointer-like itself, or a struct/array with a
// pointer-like component.
func canAlias(t types.Type) bool {
	return canAliasDepth(t, 0)
}

func canAliasDepth(t types.Type, depth int) bool {
	if t == nil || depth > 6 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if canAliasDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return canAliasDepth(u.Elem(), depth+1)
	}
	return false
}

// checkWrite flags a store that reaches a published value's shared
// memory; a plain re-bind ends tracking instead.
func (pf *pubCheck) checkWrite(lhs ast.Expr, tok token.Token, st pubState) {
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := objOf(pf.p, root)
	if obj == nil {
		return
	}
	info, published := st.pub[obj]
	if !published {
		return
	}
	if id, ok := unparen(lhs).(*ast.Ident); ok && id == root {
		// Re-binding the variable: the published value is unreachable from
		// it now.
		if tok == token.ASSIGN || tok == token.DEFINE {
			delete(st.pub, obj)
		}
		return
	}
	// Pointer-typed published values share everything; value-typed ones
	// only share through pointer-like components in the path.
	if pointerLike(obj.Type()) || pathThroughAlias(pf.p, lhs, root) {
		pf.report(lhs, "%q is modified after publication to %s; published entries must be deep-immutable", info.name, info.sink)
	}
}

// pathThroughAlias reports whether the access path from root to the
// full lhs passes through a pointer, slice or map — i.e. the write
// lands in memory the published copy shares.
func pathThroughAlias(p *Package, lhs ast.Expr, root *ast.Ident) bool {
	for {
		e := unparen(lhs)
		if e == ast.Expr(root) {
			return false
		}
		switch v := e.(type) {
		case *ast.StarExpr:
			return true
		case *ast.SelectorExpr:
			if t := p.typeOf(v.X); t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					return true
				}
			}
			lhs = v.X
		case *ast.IndexExpr:
			if t := p.typeOf(v.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					return true
				}
			}
			lhs = v.X
		default:
			return false
		}
	}
}

// checkCallMutation flags a published value passed where the callee's
// summary (or the modeled external effect) mutates it. Synchronized
// mutation counts too: the contract is "unmodified after publication".
func (pf *pubCheck) checkCallMutation(call *ast.CallExpr, st pubState) {
	p := pf.p
	lookup := func(e ast.Expr) (types.Object, pubInfo, bool) {
		root := rootIdent(e)
		if root == nil {
			return nil, pubInfo{}, false
		}
		obj := objOf(p, root)
		if obj == nil {
			return nil, pubInfo{}, false
		}
		info, ok := st.pub[obj]
		return obj, info, ok
	}
	if callee := pf.pr.calleeNode(p, call); callee != nil {
		cs := pf.pr.summaryOf(callee)
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && p.Info.Selections[sel] != nil {
			if cs.MutatesRecv || cs.MutatesRecvSync {
				if _, info, ok := lookup(sel.X); ok {
					pf.report(sel.X, "%q is mutated via %s after publication to %s; published entries must be deep-immutable", info.name, callee.Name, info.sink)
				}
			}
		}
		nparams := calleeParamCount(callee)
		for i, arg := range call.Args {
			j := i
			if nparams > 0 && j >= nparams {
				j = nparams - 1
			}
			if j >= 32 || (cs.MutatesParam&(1<<j) == 0 && cs.MutatesParamSync&(1<<j) == 0) {
				continue
			}
			if _, info, ok := lookup(arg); ok {
				pf.report(arg, "%q is mutated via %s after publication to %s; published entries must be deep-immutable", info.name, callee.Name, info.sink)
			}
		}
		return
	}
	eff := p.externalCallEffect(call)
	if eff.known {
		if eff.mutRecv {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				if _, info, ok := lookup(sel.X); ok {
					name, _ := calleeIdentName(call.Fun)
					pf.report(sel.X, "%q is mutated via %s after publication to %s; published entries must be deep-immutable", info.name, name, info.sink)
				}
			}
		}
		for _, i := range eff.mutArgs {
			if i < len(call.Args) {
				if _, info, ok := lookup(call.Args[i]); ok {
					name, _ := calleeIdentName(call.Fun)
					pf.report(call.Args[i], "%q is mutated via %s after publication to %s; published entries must be deep-immutable", info.name, name, info.sink)
				}
			}
		}
		return
	}
	// Unmodeled call: pointer-like published arguments may be mutated.
	for _, arg := range call.Args {
		if !pointerLike(p.typeOf(arg)) {
			continue
		}
		if _, info, ok := lookup(arg); ok {
			name, _ := calleeIdentName(call.Fun)
			pf.report(arg, "%q may be mutated by %s after publication to %s; published entries must be deep-immutable", info.name, name, info.sink)
		}
	}
}

func (pf *pubCheck) report(n ast.Node, format string, args ...any) {
	if pf.reported[n.Pos()] {
		return
	}
	pf.reported[n.Pos()] = true
	pf.diags = append(pf.diags, pf.p.diag(n, "pubfreeze", format, args...))
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
