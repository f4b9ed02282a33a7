package lint

// nilness.go is the engine under nilcheck and errcontract: a forward
// dataflow over cfg.go's graphs whose fact, per canonical key
// (dataflow.go's canonKey), is a three-point nilness value — nil,
// non-nil, unknown — plus, for the result of a (T, error) call, the key
// of the error that guards it. Facts come from syntax (&x, composite
// literals, make, new and func literals are non-nil; a pointer-shaped
// var declared without a value is nil) and from branch conditions (each
// edge of `if x != nil` carries its own answer). A call's own results
// are unknown: no rule looks into a callee's body.
// The lattice is finite, so dataflow.go's worklist solver reaches its
// fixpoint without widening.
//
// Modeled contracts, documented in DESIGN.md ("Nil and error-contract
// analysis"): a method body runs on a non-nil receiver (a nil receiver
// panics at the call site); a call forgets the facts of whatever it may
// change — what the model of a standard-library call names, and every
// pointer-like argument and the receiver of any other call, in-module
// calls included. A slice argument keeps its facts: the callee gets a
// copy of the header. Interface dynamic types, unsafe and reflection
// are out of scope.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// nilPkgs is nilcheck's scope, the packages whose error and early-return
// paths run rarely enough that a latent nil dereference survives the
// tests. errcontract covers the same set minus obs.
var nilPkgs = map[string]bool{
	"tpcds/internal/exec": true,
	"tpcds/internal/plan": true,
	storagePkgPath:        true,
	obsPkgPath:            true,
}

// nil3 is the nilness lattice value. The zero value is unknown (⊤).
type nil3 uint8

const (
	nlUnknown nil3 = iota
	nlNil
	nlNonNil
)

// nilable reports whether values of t carry a nilness fact: pointers,
// maps, slices, channels, functions and interfaces.
func nilable(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan,
		*types.Signature, *types.Interface:
		return true
	}
	return false
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(p *Package, e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := p.Info.Uses[id].(*types.Nil)
	return isNil
}

// nilEnv is the state at one program point. An absent key is unknown.
// comp ties a call result to its companion error: the result must not
// be consumed while that error can still be non-nil.
type nilEnv struct {
	nl   map[string]nil3
	comp map[string]string // result key -> error key
}

func newNilEnv() *nilEnv {
	return &nilEnv{nl: map[string]nil3{}, comp: map[string]string{}}
}

func (e *nilEnv) clone() *nilEnv {
	c := newNilEnv()
	for k, v := range e.nl {
		c.nl[k] = v
	}
	for k, v := range e.comp {
		c.comp[k] = v
	}
	return c
}

// join keeps the facts both paths agree on and reports a change.
func (e *nilEnv) join(src *nilEnv) bool {
	changed := false
	for k, a := range e.nl {
		if src.nl[k] != a {
			delete(e.nl, k)
			changed = true
		}
	}
	for k, a := range e.comp {
		if b, ok := src.comp[k]; !ok || b != a {
			delete(e.comp, k)
			changed = true
		}
	}
	return changed
}

// kill forgets key k: its own facts, the results k guards, and every
// field path rooted at k.
func (e *nilEnv) kill(k string) {
	delete(e.nl, k)
	delete(e.comp, k)
	prefix := k + "."
	for key := range e.nl {
		if strings.HasPrefix(key, prefix) {
			delete(e.nl, key)
		}
	}
	for key, errKey := range e.comp {
		if errKey == k || strings.HasPrefix(key, prefix) {
			delete(e.comp, key)
		}
	}
}

// nilFlow is the per-package engine state.
type nilFlow struct {
	p        *Package
	errKeys  map[string]bool // keys holding error values in the current scope
	diags    map[string][]Diagnostic
	reported map[string]bool // rule+position dedup
}

// nilAnalyze checks every function of p once; nilcheck and errcontract
// share the pass through the cache on the package.
func nilAnalyze(p *Package) map[string][]Diagnostic {
	if p.nilDiags != nil {
		return p.nilDiags
	}
	nf := &nilFlow{p: p, diags: map[string][]Diagnostic{}, reported: map[string]bool{}}
	if nilPkgs[p.Path] {
		for _, f := range p.Files {
			for _, fs := range funcScopes(f) {
				nf.checkScope(fs)
			}
		}
	}
	p.nilDiags = nf.diags
	return nf.diags
}

// checkScope runs the fixpoint over fs's CFG, then replays every block
// from its in-state, checking each node before pushing the state
// through it. The edges out of a branch carry the state narrowed by
// the condition's value on that edge.
func (nf *nilFlow) checkScope(fs funcScope) {
	nf.errKeys = map[string]bool{}
	g := buildCFG(fs.body, nf.p.terminatesStmt)
	transfer := func(blk *Block, in *nilEnv) *nilEnv {
		out := in.clone()
		for _, node := range blk.Nodes {
			nf.transfer(out, node)
		}
		return out
	}
	edge := func(blk, succ *Block, out *nilEnv) *nilEnv {
		if blk.Cond == nil || (succ != blk.TrueSucc && succ != blk.FalseSucc) {
			return out
		}
		narrowed := out.clone()
		nf.refine(narrowed, blk.Cond, succ == blk.TrueSucc)
		return narrowed
	}
	ins := solveForwardEdges(g, nf.boundary(fs), newNilEnv, (*nilEnv).clone, (*nilEnv).join, transfer, edge)
	for _, blk := range g.Blocks {
		env := ins[blk].clone()
		for _, node := range blk.Nodes {
			nf.checkNode(env, node)
			nf.transfer(env, node)
		}
	}
}

// boundary is a scope's entry state: a method's receiver is non-nil, a
// named result holds its zero value, and error-typed parameters and
// results are error keys.
func (nf *nilFlow) boundary(fs funcScope) *nilEnv {
	env := newNilEnv()
	var ftype *ast.FuncType
	if fs.decl == nil {
		ftype = fs.lit.Type
	} else {
		ftype = fs.decl.Type
		if fs.decl.Recv != nil {
			for _, f := range fs.decl.Recv.List {
				for _, nm := range f.Names {
					if obj := nf.p.Info.Defs[nm]; obj != nil && nilable(obj.Type()) {
						env.nl[objKey(obj)] = nlNonNil
					}
				}
			}
		}
	}
	for _, fl := range []*ast.FieldList{ftype.Params, ftype.Results} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, nm := range f.Names {
				obj := nf.p.Info.Defs[nm]
				if obj == nil {
					continue
				}
				if fl == ftype.Results && nilable(obj.Type()) {
					env.nl[objKey(obj)] = nlNil
				}
				if isErrorType(obj.Type()) {
					nf.errKeys[objKey(obj)] = true
				}
			}
		}
	}
	return env
}

// refine narrows env by cond evaluating to truth: `x == nil` and
// `x != nil` under any nesting of !, && (on its true side) and || (on
// its false side).
func (nf *nilFlow) refine(env *nilEnv, cond ast.Expr, truth bool) {
	switch v := unparen(cond).(type) {
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			nf.refine(env, v.X, !truth)
		}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND, token.LOR:
			if truth == (v.Op == token.LAND) {
				nf.refine(env, v.X, truth)
				nf.refine(env, v.Y, truth)
			}
		case token.EQL, token.NEQ:
			other := v.X
			if isNilIdent(nf.p, v.X) {
				other = v.Y
			} else if !isNilIdent(nf.p, v.Y) {
				return
			}
			key := nf.p.canonKey(other)
			if key == "" {
				return
			}
			if (v.Op == token.EQL) != truth {
				env.nl[key] = nlNonNil
			} else {
				env.nl[key] = nlNil
			}
		}
	}
}

// ---- transfer ----

// transfer pushes env through one CFG node: first what its calls may
// change, then what it binds.
func (nf *nilFlow) transfer(env *nilEnv, node ast.Node) {
	inspectShallow(node, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			nf.clobber(env, call)
		}
		return true
	})
	switch v := node.(type) {
	case *ast.AssignStmt:
		nf.assign(env, v)
	case *ast.IncDecStmt:
		nf.killStore(env, v.X)
	case *ast.DeclStmt:
		gd, ok := v.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, nm := range vs.Names {
				switch {
				case len(vs.Values) == len(vs.Names):
					nf.assignOne(env, nm, vs.Values[i])
				case len(vs.Values) == 0 && nm.Name != "_":
					if obj := objOf(nf.p, nm); obj != nil {
						env.kill(objKey(obj))
						if nilable(obj.Type()) {
							env.nl[objKey(obj)] = nlNil
						}
					}
				}
			}
		}
	case *ast.RangeStmt:
		// The loop variables rebind every iteration.
		for _, e := range []ast.Expr{v.Key, v.Value} {
			if id, ok := unparen(e).(*ast.Ident); ok && id.Name != "_" {
				nf.killStore(env, id)
			}
		}
	}
}

// killStore forgets what a store to lhs may change. An element store
// has no canonical key and changes no nilness fact.
func (nf *nilFlow) killStore(env *nilEnv, lhs ast.Expr) {
	if k := nf.p.canonKey(lhs); k != "" {
		env.kill(k)
	}
}

func (nf *nilFlow) assign(env *nilEnv, as *ast.AssignStmt) {
	switch {
	case len(as.Lhs) > 1 && len(as.Rhs) == 1:
		nf.assignTuple(env, as)
	case len(as.Lhs) != len(as.Rhs):
	case as.Tok == token.ASSIGN || as.Tok == token.DEFINE:
		for i := range as.Lhs {
			nf.assignOne(env, as.Lhs[i], as.Rhs[i])
		}
	default:
		for _, lhs := range as.Lhs {
			nf.killStore(env, lhs)
		}
	}
}

// assignOne transfers `lhs = rhs`: the facts of rhs under the state
// before the store, then the strong update of lhs.
func (nf *nilFlow) assignOne(env *nilEnv, lhs, rhs ast.Expr) {
	if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	key := nf.p.canonKey(lhs)
	if key == "" {
		return
	}
	t := nf.p.typeOf(lhs)
	nl := nf.nilFact(env, rhs)
	comp, hasComp := "", false
	if rid, ok := unparen(rhs).(*ast.Ident); ok {
		comp, hasComp = env.comp[nf.p.canonKey(rid)]
	}
	env.kill(key)
	if nl != nlUnknown {
		env.nl[key] = nl
	}
	if hasComp {
		env.comp[key] = comp
	}
	if t != nil && isErrorType(t) {
		nf.errKeys[key] = true
	}
}

// assignTuple transfers `a, b, ... := rhs`. For a call it records the
// companion-error facts: every pointer-shaped result is guarded by the
// error result.
func (nf *nilFlow) assignTuple(env *nilEnv, as *ast.AssignStmt) {
	keys := make([]string, len(as.Lhs))
	typs := make([]types.Type, len(as.Lhs))
	for i, lhs := range as.Lhs {
		if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		if k := nf.p.canonKey(lhs); k != "" {
			keys[i], typs[i] = k, nf.p.typeOf(lhs)
			env.kill(k)
		}
	}
	if _, ok := unparen(as.Rhs[0]).(*ast.CallExpr); !ok {
		return // v, ok := m[k] / x.(T) / <-ch: nothing beyond the kill
	}
	errIdx := -1
	for i, t := range typs {
		if t != nil && isErrorType(t) {
			errIdx = i
		}
	}
	if errIdx < 0 || keys[errIdx] == "" {
		return
	}
	errKey := keys[errIdx]
	nf.errKeys[errKey] = true
	for i, k := range keys {
		if k != "" && i != errIdx && nilable(typs[i]) {
			env.comp[k] = errKey
		}
	}
}

// nilFact is the nilness of e under env.
func (nf *nilFlow) nilFact(env *nilEnv, e ast.Expr) nil3 {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		if isNilIdent(nf.p, v) {
			return nlNil
		}
		return env.nl[nf.p.canonKey(v)]
	case *ast.SelectorExpr:
		return env.nl[nf.p.canonKey(v)]
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return nlNonNil
		}
	case *ast.CompositeLit, *ast.FuncLit:
		return nlNonNil
	case *ast.CallExpr:
		id, ok := unparen(v.Fun).(*ast.Ident)
		if !ok {
			break
		}
		if _, builtin := nf.p.Info.Uses[id].(*types.Builtin); !builtin {
			break
		}
		switch id.Name {
		case "make", "new":
			return nlNonNil
		case "append":
			if len(v.Args) > 1 {
				return nlNonNil // appended at least one element
			}
			return nf.nilFact(env, v.Args[0])
		}
	}
	return nlUnknown
}

// clobber forgets what a call may change: for a modeled library call,
// what the model names; for anything else, in-module calls included,
// every pointer-like argument and the receiver.
func (nf *nilFlow) clobber(env *nilEnv, call *ast.CallExpr) {
	p := nf.p
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := p.Info.Uses[id].(*types.Builtin); builtin {
			return
		}
	}
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	sel, _ := unparen(call.Fun).(*ast.SelectorExpr)
	method := false
	if sel != nil {
		s := p.Info.Selections[sel]
		method = s != nil && s.Kind() == types.MethodVal
	}
	if eff := p.externalCallEffect(call); eff.known {
		for _, i := range eff.mutArgs {
			if i < len(call.Args) {
				nf.havoc(env, call.Args[i])
			}
		}
		if eff.mutRecv && sel != nil {
			nf.killStore(env, sel.X)
		}
		return
	}
	for _, arg := range call.Args {
		if pointerLike(p.typeOf(arg)) {
			nf.havoc(env, arg)
		}
	}
	if method {
		nf.killStore(env, sel.X)
	}
}

// havoc forgets one argument a callee may change. A slice argument is a
// copy of the header: the callee can write its elements, never the
// caller's binding.
func (nf *nilFlow) havoc(env *nilEnv, arg ast.Expr) {
	if t := nf.p.typeOf(arg); t != nil {
		if _, isSlice := t.Underlying().(*types.Slice); isSlice {
			return
		}
	}
	nf.killStore(env, arg)
}

// ---- checking ----

// checkNode checks one CFG node under the state before it.
func (nf *nilFlow) checkNode(env *nilEnv, node ast.Node) {
	switch v := node.(type) {
	case *ast.AssignStmt:
		for _, r := range v.Rhs {
			nf.checkExpr(env, r)
		}
		for _, l := range v.Lhs {
			nf.checkExpr(env, l)
			if ix, ok := unparen(l).(*ast.IndexExpr); ok {
				if t := nf.p.typeOf(ix.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						nf.checkNilMapWrite(env, ix)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		nf.checkReturn(env, v)
	case *ast.RangeStmt:
		nf.checkConsume(env, v.X)
		nf.checkExpr(env, v.X)
	case *ast.IncDecStmt:
		nf.checkExpr(env, v.X)
	case ast.Expr:
		nf.checkExpr(env, v)
	default:
		// Other statements (expression, send, defer, go, declaration,
		// case clauses): each top-level expression.
		inspectShallow(node, func(n ast.Node) bool {
			if n == node {
				return true
			}
			if e, ok := n.(ast.Expr); ok {
				nf.checkExpr(env, e)
				return false
			}
			return true
		})
	}
}

// checkExpr checks one expression tree. The right operand of && and ||
// runs only when the left one did not decide, so it is checked under
// the state the left operand's value implies.
func (nf *nilFlow) checkExpr(env *nilEnv, e ast.Expr) {
	if e == nil {
		return
	}
	switch v := unparen(e).(type) {
	case *ast.BinaryExpr:
		nf.checkExpr(env, v.X)
		if v.Op == token.LAND || v.Op == token.LOR {
			env = env.clone()
			nf.refine(env, v.X, v.Op == token.LAND)
		}
		nf.checkExpr(env, v.Y)
	case *ast.IndexExpr:
		nf.checkExpr(env, v.X)
		nf.checkExpr(env, v.Index)
		nf.checkConsume(env, v.X)
	case *ast.SliceExpr:
		nf.checkExpr(env, v.X)
		nf.checkExpr(env, v.Low)
		nf.checkExpr(env, v.High)
		nf.checkExpr(env, v.Max)
		nf.checkConsume(env, v.X)
	case *ast.StarExpr:
		nf.checkExpr(env, v.X)
		nf.checkConsume(env, v.X)
		nf.checkNilDeref(env, v)
	case *ast.SelectorExpr:
		nf.checkExpr(env, v.X)
		nf.checkConsume(env, v.X)
		nf.checkNilField(env, v)
	case *ast.CallExpr:
		nf.checkExpr(env, v.Fun)
		for _, a := range v.Args {
			nf.checkExpr(env, a)
		}
	case *ast.UnaryExpr:
		nf.checkExpr(env, v.X)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			nf.checkExpr(env, el)
		}
	case *ast.KeyValueExpr:
		nf.checkExpr(env, v.Key)
		nf.checkExpr(env, v.Value)
	case *ast.TypeAssertExpr:
		nf.checkExpr(env, v.X)
	}
	// A function literal's body is its own scope.
}

// emit records one finding, once per rule and position.
func (nf *nilFlow) emit(n ast.Node, rule, format string, args ...any) {
	if rule == "errcontract" && nf.p.Path == obsPkgPath {
		return
	}
	pos := nf.p.Fset.Position(n.Pos())
	if key := rule + "|" + pos.String(); !nf.reported[key] {
		nf.reported[key] = true
		nf.diags[rule] = append(nf.diags[rule], Diagnostic{Pos: pos, Rule: rule, Message: fmt.Sprintf(format, args...)})
	}
}

// typeOf returns the expression's type, nil when untyped. Identifiers
// fall back to their object: the lhs of a := define has no Types entry
// (it is a definition, not an evaluated expression).
func (p *Package) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := objOf(p, id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// objOf resolves an identifier to its object (use or def).
func objOf(p *Package, id *ast.Ident) types.Object {
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// pointerLike reports whether mutating a value of type t is observable
// through other references to it.
func pointerLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// extEffect is the modeled behaviour of a standard-library call.
type extEffect struct {
	known   bool  // modeled; do not degrade to the conservative default
	mutRecv bool  // the receiver is mutated
	mutArgs []int // indices of mutated arguments
}

// roFuncPkgs are standard-library packages whose top-level functions
// neither mutate nor retain their arguments in any way that matters to
// the nilness facts (sort is handled separately: half its API mutates).
var roFuncPkgs = map[string]bool{
	"strings": true, "strconv": true, "unicode": true, "unicode/utf8": true,
	"math": true, "math/bits": true, "errors": true, "path": true,
	"path/filepath": true, "time": true, "context": true, "slices": true,
	"os": true,
}

// externalCallEffect models a call into the standard library.
// known=false means "no model — assume the worst"; every in-module
// call is unmodeled.
func (p *Package) externalCallEffect(call *ast.CallExpr) extEffect {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return extEffect{}
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return extEffect{}
	}
	pkg, name := obj.Pkg().Path(), obj.Name()
	if s := p.Info.Selections[sel]; s != nil {
		// Method call: classify by receiver type.
		named := namedOf(s.Recv())
		if named == nil || named.Obj().Pkg() == nil {
			return extEffect{}
		}
		rpkg, rname := named.Obj().Pkg().Path(), named.Obj().Name()
		switch rpkg {
		case "sync", "sync/atomic":
			// The synchronization primitives themselves: mutation is the
			// point, and it is safe from any goroutine.
			return extEffect{known: true, mutRecv: true}
		case "time", "regexp", "context":
			return extEffect{known: true} // value types / internally synchronized
		case "strings", "bytes":
			if rname == "Builder" || rname == "Buffer" || rname == "Reader" {
				return extEffect{known: true, mutRecv: true}
			}
		}
		return extEffect{}
	}
	// Package-level function call.
	if roFuncPkgs[pkg] {
		return extEffect{known: true}
	}
	switch pkg {
	case "fmt":
		switch {
		case name == "Errorf", name == "Sprint", name == "Sprintf", name == "Sprintln":
			return extEffect{known: true}
		case name == "Fprint" || name == "Fprintf" || name == "Fprintln":
			return extEffect{known: true, mutArgs: []int{0}}
		case name == "Print" || name == "Printf" || name == "Println":
			return extEffect{known: true} // process streams; strayio's concern
		}
	case "sort":
		switch name {
		case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s":
			return extEffect{known: true, mutArgs: []int{0}}
		case "IsSorted", "SliceIsSorted", "StringsAreSorted", "IntsAreSorted",
			"Search", "SearchInts", "SearchStrings", "SearchFloat64s":
			return extEffect{known: true}
		}
	}
	return extEffect{}
}
