package lint

// summary.go computes the per-function summaries the interprocedural
// analyzers consume, bottom-up over the call graph of callgraph.go:
//
//   - mutation: does the function write memory reachable from its
//     receiver or parameters (directly, through sync/atomic, or through
//     a callee) — what the nilness engine forgets across a call;
//   - taint transfer: can a nondeterministic value (wall clock, rand,
//     environment — the taintdet sources) originate inside the function
//     and flow to a result, and can taint on parameter i reach a
//     result. These bits let taintdet follow nondeterminism through
//     helper calls without inlining anything.
//
// The mutation pass is flow-insensitive: every statement of the body
// and of its function literals contributes. The taint pass is the
// same forward may-taint fixpoint over the CFG that taintdet uses,
// seeded additionally with one pseudo-origin per parameter.
//
// The computation is a fixpoint across strongly connected components:
// components come in reverse-topological (callee-first) order, each
// component's members iterate until no summary changes. All facts are
// monotone bits over finite sets, so the iteration terminates (the
// SCC/recursion fixture pins this).
//
// Soundness caveats (documented in DESIGN.md): effects reached only
// through aliases laundered into locals are attributed to the local,
// not the parameter; unknown callees (interface methods, function
// values, unmodeled stdlib) conservatively mutate their pointer-like
// arguments and set CallsUnknown; reflection is not modeled.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Summary is the interprocedural abstract of one function. Parameter
// facts are bitsets over the flattened parameter list (receiver
// excluded — it has its own bits); functions with more than 32
// parameters saturate conservatively (none exist in this module).
type Summary struct {
	MutatesRecv  bool   // a write through the receiver, synchronized or not
	MutatesParam uint32 // param i's memory may be written

	TaintsReturn bool   // a result may derive from a nondeterminism source
	TaintSrc     string // the source description, for diagnostics
	ParamToRet   uint32 // taint on param i may reach a result
	RecvToRet    bool   // taint on the receiver may reach a result
	ParamToSink  uint32 // param i may flow into storage emission (transitively)
	RecvToSink   bool   // receiver state may flow into storage emission

	// Error-contract facts (computed flow-sensitively by
	// computeErrFacts after the bottom-up fixpoint, callees first).
	ReturnsNilErrOn        uint32 // error result r is nil on every return
	NonNilResultWhenNilErr uint32 // result i is non-nil whenever the trailing error is nil

	CallsUnknown bool // body contains a call the graph cannot resolve
}

// summaryOf returns n's current summary, computing nothing: during the
// SCC fixpoint partial summaries under-approximate and iteration closes
// the gap. A nil node yields the unknown-callee summary.
func (pr *Program) summaryOf(n *FuncNode) *Summary {
	if n == nil {
		return nil
	}
	if n.sum == nil {
		n.sum = &Summary{}
	}
	return n.sum
}

// computeSummaries runs the bottom-up fixpoint.
func (pr *Program) computeSummaries() {
	for _, comp := range pr.sccs() {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				next := pr.computeSummary(n)
				if n.sum == nil || *n.sum != *next {
					n.sum = next
					changed = true
				}
			}
		}
	}
	// Error facts need the finished summaries (the nilness engine
	// consults mutation bits) and run callees-first so `return f()`
	// forwards.
	pr.computeErrFacts()
}

// paramInfo maps a function's receiver and parameter objects to their
// summary indices.
type paramInfo struct {
	recv   types.Object
	params map[types.Object]int
}

func (p *Package) paramsOf(fd *ast.FuncDecl) paramInfo {
	pi := paramInfo{params: map[types.Object]int{}}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, nm := range f.Names {
				if obj := p.Info.Defs[nm]; obj != nil {
					pi.recv = obj
				}
			}
		}
	}
	i := 0
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 0 {
			i++ // unnamed parameter still occupies an index
			continue
		}
		for _, nm := range f.Names {
			if obj := p.Info.Defs[nm]; obj != nil && i < 32 {
				pi.params[obj] = i
			}
			i++
		}
	}
	return pi
}

// computeSummary recomputes one function's summary from its body and
// the current summaries of its callees.
func (pr *Program) computeSummary(n *FuncNode) *Summary {
	sum := &Summary{CallsUnknown: n.CallsUnknown}
	p := n.Pkg
	pi := p.paramsOf(n.Decl)

	// Mutation pass: the declared body, then every literal body, which
	// is charged to its creator.
	sw := &sumWalk{pr: pr, p: p, pi: pi, sum: sum}
	sw.effectsNode(n.Decl.Body)
	for _, lit := range nestedLits(n.Decl.Body) {
		sw.effectsNode(lit.Body)
	}

	// Taint-transfer pass (own CFG walk; see sumTaintFunc).
	pr.sumTaintFunc(n, pi, sum)
	return sum
}

// nestedLits collects every function literal under root, each once.
func nestedLits(root ast.Node) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(root, func(x ast.Node) bool {
		if fl, ok := x.(*ast.FuncLit); ok {
			out = append(out, fl)
		}
		return true
	})
	return out
}

// sumWalk accumulates mutation facts into sum.
type sumWalk struct {
	pr  *Program
	p   *Package
	pi  paramInfo
	sum *Summary
}

// effectsNode records the mutation effects of the statements under node
// (function literals excluded: computeSummary walks each on its own).
func (sw *sumWalk) effectsNode(node ast.Node) {
	inspectShallow(node, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				sw.recordWrite(lhs)
			}
		case *ast.IncDecStmt:
			sw.recordWrite(v.X)
		case *ast.CallExpr:
			sw.applyCall(v)
		}
		return true
	})
}

// recordWrite classifies one store destination.
func (sw *sumWalk) recordWrite(lhs ast.Expr) {
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	obj := sw.p.Info.Uses[root]
	if obj == nil {
		obj = sw.p.Info.Defs[root]
	}
	// A bare rebind of a local or parameter is frame-local; only writes
	// whose access path passes through a pointer, slice or map reach
	// memory the caller can observe.
	if obj == nil || unparen(lhs) == root || !sw.writeEscapesFrame(lhs) {
		return
	}
	sw.markMutated(obj)
}

// markMutated sets the mutation bit for obj when it is the receiver or
// a parameter.
func (sw *sumWalk) markMutated(obj types.Object) {
	if obj == sw.pi.recv && obj != nil {
		sw.sum.MutatesRecv = true
		return
	}
	if i, ok := sw.pi.params[obj]; ok {
		sw.sum.MutatesParam |= 1 << i
	}
}

// writeEscapesFrame reports whether the access path of lhs passes
// through a pointer dereference, slice element or map element — i.e.
// whether the store lands in memory that may be shared with the caller
// rather than in the local frame copy.
func (sw *sumWalk) writeEscapesFrame(lhs ast.Expr) bool {
	for {
		switch v := unparen(lhs).(type) {
		case *ast.StarExpr:
			return true
		case *ast.SelectorExpr:
			if tv, ok := sw.p.Info.Types[v.X]; ok && tv.Type != nil {
				if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
					return true
				}
			}
			lhs = v.X
		case *ast.IndexExpr:
			if tv, ok := sw.p.Info.Types[v.X]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
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

// applyCall folds one call's effects into the summary: a resolved
// callee contributes its own summary (substituting arguments for
// parameters), an external call contributes its modeled effect or the
// conservative default.
func (sw *sumWalk) applyCall(call *ast.CallExpr) {
	sum, p := sw.sum, sw.p
	if callee := sw.pr.calleeNode(p, call); callee != nil {
		cs := sw.pr.summaryOf(callee)
		if cs.CallsUnknown {
			sum.CallsUnknown = true
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && p.Info.Selections[sel] != nil && cs.MutatesRecv {
			if obj := sw.exprRootObj(sel.X); obj != nil {
				sw.markMutated(obj)
			}
		}
		nparams := calleeParamCount(callee)
		for i, arg := range call.Args {
			j := i
			if nparams > 0 && j >= nparams {
				j = nparams - 1 // variadic tail
			}
			if j < 32 && cs.MutatesParam&(1<<j) != 0 {
				if obj := sw.exprRootObj(arg); obj != nil {
					sw.markMutated(obj)
				}
			}
		}
		return
	}
	sw.applyExternalCall(call)
}

// calleeParamCount returns the declared parameter count of a node's
// signature (receiver excluded).
func calleeParamCount(n *FuncNode) int {
	sig, ok := n.Obj.Type().(*types.Signature)
	if !ok {
		return 0
	}
	return sig.Params().Len()
}

// exprRootObj resolves an argument/receiver expression to its root
// object when the value is pointer-like from the caller's perspective
// (so mutating it is observable), nil otherwise.
func (sw *sumWalk) exprRootObj(e ast.Expr) types.Object {
	root := rootIdent(e)
	if root == nil {
		return nil
	}
	obj := sw.p.Info.Uses[root]
	if obj == nil {
		obj = sw.p.Info.Defs[root]
	}
	return obj
}

// applyExternalCall models calls the graph cannot resolve: builtins,
// conversions, the understood corners of the standard library, and the
// conservative default for everything else.
func (sw *sumWalk) applyExternalCall(call *ast.CallExpr) {
	p, sum := sw.p, sw.sum
	eff := p.externalCallEffect(call)
	if eff.known {
		if eff.mutRecv {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				if obj := sw.exprRootObj(sel.X); obj != nil {
					sw.markMutated(obj)
				}
			}
		}
		for _, i := range eff.mutArgs {
			if i < len(call.Args) {
				if obj := sw.exprRootObj(call.Args[i]); obj != nil {
					sw.markMutated(obj)
				}
			}
		}
		return
	}
	// Conservative default: an unknown callee may mutate any
	// pointer-like argument (and receiver).
	sum.CallsUnknown = true
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && p.Info.Selections[sel] != nil {
		if obj := sw.exprRootObj(sel.X); obj != nil && pointerLike(p.typeOf(sel.X)) {
			sw.markMutated(obj)
		}
	}
	for _, arg := range call.Args {
		if pointerLike(p.typeOf(arg)) {
			if obj := sw.exprRootObj(arg); obj != nil {
				sw.markMutated(obj)
			}
		}
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

// extEffect is the modeled behaviour of a call into code outside the
// graph.
type extEffect struct {
	known   bool  // modeled; do not degrade to the conservative default
	mutRecv bool  // the receiver is mutated
	mutArgs []int // indices of mutated arguments
}

// roFuncPkgs are standard-library packages whose top-level functions
// neither mutate nor retain their arguments in any way that matters to
// the summary lattice (sort is handled separately: half its API
// mutates).
var roFuncPkgs = map[string]bool{
	"strings": true, "strconv": true, "unicode": true, "unicode/utf8": true,
	"math": true, "math/bits": true, "errors": true, "path": true,
	"path/filepath": true, "time": true, "context": true, "slices": true,
	"os": true, // os functions read process state; taintdet owns their determinism
}

// externalCallEffect classifies a call whose callee is outside the
// graph. known=false means "no model — assume the worst".
//
// Builtins: copy/clear/delete write their first argument. append is
// modeled as effect-free — it writes only at indices ≥ the old length,
// which no other alias can read (the re-sliced-down alias is the known
// caveat, documented in DESIGN.md).
func (p *Package) externalCallEffect(call *ast.CallExpr) extEffect {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "copy", "clear", "delete":
				return extEffect{known: true, mutArgs: []int{0}}
			}
			return extEffect{known: true}
		}
	}
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return extEffect{known: true} // type conversion
	}
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
		case "time", "regexp":
			return extEffect{known: true} // value types / internally synchronized
		case "strings", "bytes":
			if rname == "Builder" || rname == "Buffer" || rname == "Reader" {
				return extEffect{known: true, mutRecv: true}
			}
		case "context":
			return extEffect{known: true}
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

// ---- taint-transfer summary ----

// taintVal is the merged taint of one expression or object: an optional
// concrete source description plus the set of parameters whose incoming
// taint reaches it. recv tracks receiver-derived taint.
type taintVal struct {
	src    string
	pos    token.Pos
	params uint32
	recv   bool
}

func (v taintVal) zero() bool { return v.src == "" && v.params == 0 && !v.recv }

func mergeTaintVal(a, b taintVal) taintVal {
	out := a
	if out.src == "" {
		out.src, out.pos = b.src, b.pos
	}
	out.params |= b.params
	out.recv = out.recv || b.recv
	return out
}

type sumTaintFacts map[types.Object]taintVal

func cloneSumTaint(s sumTaintFacts) sumTaintFacts {
	c := make(sumTaintFacts, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func joinSumTaint(dst, src sumTaintFacts) bool {
	changed := false
	for k, v := range src {
		m := mergeTaintVal(dst[k], v)
		if m != dst[k] {
			dst[k] = m
			changed = true
		}
	}
	return changed
}

// sumTaintFunc runs the taint-transfer pass for one declaration,
// seeding every parameter (and the receiver) with its own pseudo-origin
// and recording which origins reach a return.
func (pr *Program) sumTaintFunc(n *FuncNode, pi paramInfo, sum *Summary) {
	p := n.Pkg
	boundary := sumTaintFacts{}
	if pi.recv != nil {
		boundary[pi.recv] = taintVal{recv: true}
	}
	for obj, i := range pi.params {
		boundary[obj] = taintVal{params: 1 << i}
	}
	st := &sumTaintWalk{pr: pr, p: p, sum: sum}
	st.solve(n.Decl.Body, boundary)
	// Literal bodies: a closure constructed here may run inside this
	// call (passed to an in-function iterator) and return through a
	// captured variable; the flow-insensitive approximation is to run
	// the literal statements against an open fact set once. Returns
	// inside literals return from the literal, not from n, so they are
	// not recorded — only their assignments to captured state propagate
	// via the solve above being re-run... (kept simple: literals are
	// walked for assignments only).
	for _, lit := range nestedLits(n.Decl.Body) {
		facts := cloneSumTaint(boundary)
		for i := 0; i < 2; i++ { // two passes: capture-write then re-read
			for _, s := range lit.Body.List {
				st.transferNodeNoReturn(s, facts)
			}
		}
	}
}

// litReturnTaint reports the nondeterminism source that can reach one
// of lit's own return statements: the taint a call of the function
// value returns.
func (pr *Program) litReturnTaint(p *Package, lit *ast.FuncLit) (string, bool) {
	sum := &Summary{}
	(&sumTaintWalk{pr: pr, p: p, sum: sum}).solve(lit.Body, sumTaintFacts{})
	return sum.TaintSrc, sum.TaintsReturn
}

// sumTaintWalk interprets nodes for the taint-transfer summary.
type sumTaintWalk struct {
	pr  *Program
	p   *Package
	sum *Summary
}

// solve runs the forward taint fixpoint over body's CFG from boundary,
// recording what reaches a return into st.sum.
func (st *sumTaintWalk) solve(body *ast.BlockStmt, boundary sumTaintFacts) {
	transfer := func(blk *Block, in sumTaintFacts) sumTaintFacts {
		facts := cloneSumTaint(in)
		for _, node := range blk.Nodes {
			st.transferNode(node, facts)
		}
		return facts
	}
	solveForward(buildCFG(body, st.p.terminatesStmt), boundary, func() sumTaintFacts { return sumTaintFacts{} },
		cloneSumTaint, joinSumTaint, transfer)
}

func (st *sumTaintWalk) transferNode(node ast.Node, facts sumTaintFacts) {
	if ret, ok := node.(*ast.ReturnStmt); ok {
		// The sink pass must still see calls inside the return expression:
		// `return storage.Int(v)` is the canonical emit shape.
		st.sinkPass(ret, facts)
		for _, res := range ret.Results {
			// obs instrument handles circulate freely through deterministic
			// code: recording into them is sanctioned, and the
			// nondeterministic read-backs (End/Value/…) are their own taint
			// sources. Returning the handle itself is not a taint flow.
			if obsHandleType(st.p.typeOf(res)) {
				continue
			}
			v := st.exprVal(res, facts)
			if v.src != "" && !st.sum.TaintsReturn {
				st.sum.TaintsReturn = true
				st.sum.TaintSrc = v.src
			}
			st.sum.ParamToRet |= v.params
			st.sum.RecvToRet = st.sum.RecvToRet || v.recv
		}
		return
	}
	st.transferNodeNoReturn(node, facts)
}

func (st *sumTaintWalk) transferNodeNoReturn(node ast.Node, facts sumTaintFacts) {
	st.sinkPass(node, facts)
	switch v := node.(type) {
	case *ast.AssignStmt:
		st.assign(v, facts)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if len(vs.Values) == len(vs.Names) {
						rhs = vs.Values[i]
					} else if len(vs.Values) == 1 {
						rhs = vs.Values[0]
					}
					if rhs == nil {
						continue
					}
					if val := st.exprVal(rhs, facts); !val.zero() {
						if obj := st.p.Info.Defs[name]; obj != nil {
							facts[obj] = mergeTaintVal(facts[obj], val)
						}
					}
				}
			}
		}
	case *ast.RangeStmt:
		if val := st.exprVal(v.X, facts); !val.zero() {
			for _, e := range []ast.Expr{v.Key, v.Value} {
				if e == nil {
					continue
				}
				if id, ok := unparen(e).(*ast.Ident); ok {
					if obj := objOf(st.p, id); obj != nil {
						facts[obj] = mergeTaintVal(facts[obj], val)
					}
				}
			}
		}
	default:
		// Other statements: walk for sub-assignments inside (if-init
		// statements appear as their own nodes already; nothing to do).
	}
}

func (st *sumTaintWalk) assign(as *ast.AssignStmt, facts sumTaintFacts) {
	assignOne := func(lhs ast.Expr, val taintVal) {
		switch l := unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				return
			}
			obj := objOf(st.p, l)
			if obj == nil {
				return
			}
			if !val.zero() {
				facts[obj] = mergeTaintVal(facts[obj], val)
			} else if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
				// Strong update — unless the object is a parameter/receiver
				// seed, which must keep its pseudo-origin... a reassigned
				// parameter genuinely loses its incoming value, so clearing
				// is correct here too.
				delete(facts, obj)
			}
		default:
			if val.zero() {
				return
			}
			if root := rootIdent(lhs); root != nil {
				if obj := st.p.Info.Uses[root]; obj != nil {
					facts[obj] = mergeTaintVal(facts[obj], val)
				}
			}
		}
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		for i, lhs := range as.Lhs {
			if i < len(as.Rhs) {
				if val := st.exprVal(as.Rhs[i], facts); !val.zero() {
					assignOne(lhs, val)
				}
			}
		}
		return
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		val := st.exprVal(as.Rhs[0], facts)
		for _, lhs := range as.Lhs {
			assignOne(lhs, val)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		assignOne(lhs, st.exprVal(as.Rhs[i], facts))
	}
}

// sinkPass runs sinkCheck over every call under node: parameters
// flowing into storage emission here (directly or through a callee
// whose summary says so) set the ParamToSink bits taintdet consults at
// the caller.
func (st *sumTaintWalk) sinkPass(node ast.Node, facts sumTaintFacts) {
	inspectShallow(node, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			st.sinkCheck(call, facts)
		}
		return true
	})
}

// sinkCheck records parameters reaching storage emission through this
// call: direct calls into the storage package, and calls to in-graph
// functions whose summary already proves a param→sink flow.
func (st *sumTaintWalk) sinkCheck(call *ast.CallExpr, facts sumTaintFacts) {
	record := func(v taintVal) {
		st.sum.ParamToSink |= v.params
		st.sum.RecvToSink = st.sum.RecvToSink || v.recv
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj := st.p.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == storagePkgPath {
			for _, arg := range call.Args {
				record(st.exprVal(arg, facts))
			}
			return
		}
	}
	callee := st.pr.calleeNode(st.p, call)
	if callee == nil {
		return
	}
	cs := st.pr.summaryOf(callee)
	if cs.ParamToSink == 0 && !cs.RecvToSink {
		return
	}
	if cs.RecvToSink {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && st.p.Info.Selections[sel] != nil {
			record(st.exprVal(sel.X, facts))
		}
	}
	nparams := calleeParamCount(callee)
	for i, arg := range call.Args {
		j := i
		if nparams > 0 && j >= nparams {
			j = nparams - 1
		}
		if j < 32 && cs.ParamToSink&(1<<j) != 0 {
			record(st.exprVal(arg, facts))
		}
	}
}

// exprVal computes the taint of an expression under facts. Calls with a
// resolved callee use the callee's transfer summary instead of blindly
// descending into the arguments — that is the whole point.
func (st *sumTaintWalk) exprVal(e ast.Expr, facts sumTaintFacts) taintVal {
	switch v := unparen(e).(type) {
	case *ast.CallExpr:
		return st.callVal(v, facts)
	case *ast.Ident:
		if obj := st.p.Info.Uses[v]; obj != nil {
			return facts[obj]
		}
		return taintVal{}
	case *ast.BinaryExpr:
		return mergeTaintVal(st.exprVal(v.X, facts), st.exprVal(v.Y, facts))
	case *ast.UnaryExpr:
		return st.exprVal(v.X, facts)
	case *ast.StarExpr:
		return st.exprVal(v.X, facts)
	case *ast.SelectorExpr:
		if id, ok := unparen(v.X).(*ast.Ident); ok {
			if _, isPkg := st.p.Info.Uses[id].(*types.PkgName); isPkg {
				return taintVal{} // qualified identifier, not a field read
			}
		}
		return st.exprVal(v.X, facts)
	case *ast.IndexExpr:
		return mergeTaintVal(st.exprVal(v.X, facts), st.exprVal(v.Index, facts))
	case *ast.SliceExpr:
		return st.exprVal(v.X, facts)
	case *ast.TypeAssertExpr:
		return st.exprVal(v.X, facts)
	case *ast.FuncLit:
		// A function value carries what its body can return, so a call
		// through a variable bound to it returns that taint.
		if src, ok := st.pr.litReturnTaint(st.p, v); ok {
			return taintVal{src: src, pos: v.Pos()}
		}
	case *ast.CompositeLit:
		out := taintVal{}
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = mergeTaintVal(out, st.exprVal(el, facts))
		}
		return out
	}
	return taintVal{}
}

// callVal computes the taint of a call result.
func (st *sumTaintWalk) callVal(call *ast.CallExpr, facts sumTaintFacts) taintVal {
	// A direct nondeterminism source.
	if src, ok := st.p.taintSource(call); ok {
		return taintVal{src: src, pos: call.Pos()}
	}
	if callee := st.pr.calleeNode(st.p, call); callee != nil {
		cs := st.pr.summaryOf(callee)
		out := taintVal{}
		if cs.TaintsReturn {
			out = taintVal{src: cs.TaintSrc + " (via " + callee.Name + ")", pos: call.Pos()}
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && st.p.Info.Selections[sel] != nil && cs.RecvToRet {
			out = mergeTaintVal(out, st.exprVal(sel.X, facts))
		}
		nparams := calleeParamCount(callee)
		for i, arg := range call.Args {
			j := i
			if nparams > 0 && j >= nparams {
				j = nparams - 1
			}
			if j < 32 && cs.ParamToRet&(1<<j) != 0 {
				out = mergeTaintVal(out, st.exprVal(arg, facts))
			}
		}
		return out
	}
	// Conversions preserve taint; unknown calls conservatively launder
	// every argument into the result (strconv.Itoa(tainted) is tainted),
	// and the callee expression too: a method value's receiver, or a
	// function value carrying its literal's return taint.
	out := st.exprVal(call.Fun, facts)
	for _, arg := range call.Args {
		out = mergeTaintVal(out, st.exprVal(arg, facts))
	}
	return out
}

// obsHandleType reports whether t is (a pointer to) a named type of the
// obs package — a span/tracer/metric handle, not a data value.
func obsHandleType(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == obsPkgPath
}

// objOf resolves an identifier to its object (use or def).
func objOf(p *Package, id *ast.Ident) types.Object {
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}
