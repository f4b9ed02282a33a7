package lint

// callgraph.go builds the module-wide call graph the interprocedural
// tier (summary.go, the interprocedural half of taintdet, the error
// facts of errcontract.go) runs on. The graph is computed
// over the same pure-stdlib load as everything else: nodes are the
// function and method declarations of the analyzed packages, edges are
// the statically resolvable calls between them.
//
// Resolution, in decreasing order of precision:
//
//   - direct calls (pkg.F(), F()) resolve through go/types Uses to the
//     callee's declaration;
//   - method calls (x.M()) resolve through the method-set object the
//     type checker recorded for the selector — for a concrete receiver
//     this is the declared method, so the edge is exact;
//   - interface method calls resolve to the *interface* method object,
//     which matches no declaration: the call is recorded as an unknown
//     callee (CallsUnknown), and every summary consulting it degrades
//     conservatively;
//   - calls through function values (variables, fields, parameters) are
//     unknown callees too.
//
// Function literals do NOT get their own nodes. A literal's effects are
// attributed to the enclosing declaration (its body is walked as part of
// the declaration's summary), which is conservative in the may-analysis
// direction: whatever a closure might do when invoked is charged to its
// creator. The flow-sensitive per-literal analyses (taintdet, nilcheck,
// errcontract) still examine literal bodies as separate scopes.
//
// Node and edge order is deterministic — nodes sort by position, edges
// by first call site — so two runs over the same tree produce
// byte-identical summaries and findings (the CI determinism check pins
// this).

import (
	"go/ast"
	"go/types"
	"sort"
)

// FuncNode is one declared function or method in the call graph.
type FuncNode struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func

	// Name is the display form: "pkg.Func" or "pkg.(T).Method".
	Name string

	// Calls lists the statically resolved in-graph callees, deduplicated,
	// in first-call-site order.
	Calls []*FuncNode

	// CallsUnknown records that the body contains at least one call the
	// graph cannot resolve (interface method, function value, or a
	// function outside the analyzed package set, stdlib included).
	CallsUnknown bool

	sum *Summary
}

// Program is the interprocedural view over one set of packages: the
// call graph plus the per-function summaries computed bottom-up over
// it. Built once per Check run by buildProgram.
type Program struct {
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
}

// buildProgram constructs the call graph over pkgs and computes
// summaries bottom-up.
func buildProgram(pkgs []*Package) *Program {
	pr := &Program{byObj: map[*types.Func]*FuncNode{}}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{Pkg: p, Decl: fd, Obj: obj, Name: funcDisplayName(p, fd)}
				pr.byObj[obj] = n
				pr.Nodes = append(pr.Nodes, n)
			}
		}
	}
	// Position order is load order is import-path order: deterministic.
	sort.Slice(pr.Nodes, func(i, j int) bool {
		a, b := pr.Nodes[i], pr.Nodes[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	for _, n := range pr.Nodes {
		pr.resolveCalls(n)
	}
	pr.computeSummaries()
	return pr
}

// funcDisplayName renders "pkg.Func" or "pkg.(T).Method".
func funcDisplayName(p *Package, fd *ast.FuncDecl) string {
	name := p.Name + "." + fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if se, ok := t.(*ast.StarExpr); ok {
			t = se.X
		}
		if id, ok := t.(*ast.Ident); ok {
			name = p.Name + ".(" + id.Name + ")." + fd.Name.Name
		}
	}
	return name
}

// resolveCalls fills n.Calls with every statically resolvable callee in
// n's body, including calls made inside its function literals (a
// literal's calls are its creator's: see the file comment).
func (pr *Program) resolveCalls(n *FuncNode) {
	seen := map[*FuncNode]bool{}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := pr.calleeNode(n.Pkg, call)
		if callee == nil {
			if !pr.knownLeafCall(n.Pkg, call) {
				n.CallsUnknown = true
			}
			return true
		}
		if !seen[callee] {
			seen[callee] = true
			n.Calls = append(n.Calls, callee)
		}
		return true
	})
}

// calleeNode resolves a call expression to its in-graph callee, nil if
// the callee is unknown or outside the analyzed set.
func (pr *Program) calleeNode(p *Package, call *ast.CallExpr) *FuncNode {
	if f := p.calleeFunc(call); f != nil {
		return pr.byObj[f]
	}
	return nil
}

// calleeFunc resolves a call to the *types.Func it invokes, when the
// callee is a statically known function or concrete method. Type
// conversions, builtins, function values and interface methods return
// nil (interface methods resolve to an object whose declaration the
// graph does not hold, so lookup fails the same way).
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := p.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// knownLeafCall reports whether an unresolved call is one the summary
// layer fully understands anyway, so it should not poison the caller
// with CallsUnknown: builtins and type conversions.
func (pr *Program) knownLeafCall(p *Package, call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		switch p.Info.Uses[fun].(type) {
		case *types.Builtin, *types.TypeName:
			return true
		}
	case *ast.SelectorExpr:
		if _, ok := p.Info.Uses[fun.Sel].(*types.TypeName); ok {
			return true
		}
	case *ast.ArrayType, *ast.MapType, *ast.FuncType, *ast.InterfaceType, *ast.StarExpr:
		return true // conversion to a composite type
	}
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	return false
}

// sccs partitions the call graph into strongly connected components in
// reverse topological order: every component appears after the
// components it calls into, which is exactly the bottom-up order the
// summary fixpoint wants. Iterative Tarjan (the recursion depth of a
// DFS over a deep call chain is unbounded).
func (pr *Program) sccs() [][]*FuncNode {
	index := map[*FuncNode]int{}
	low := map[*FuncNode]int{}
	onStack := map[*FuncNode]bool{}
	var stack []*FuncNode
	var out [][]*FuncNode
	next := 0

	type frame struct {
		n  *FuncNode
		ci int // next callee index to visit
	}
	for _, root := range pr.Nodes {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{n: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			fr := &work[len(work)-1]
			if fr.ci < len(fr.n.Calls) {
				c := fr.n.Calls[fr.ci]
				fr.ci++
				if _, seen := index[c]; !seen {
					index[c] = next
					low[c] = next
					next++
					stack = append(stack, c)
					onStack[c] = true
					work = append(work, frame{n: c})
				} else if onStack[c] && index[c] < low[fr.n] {
					low[fr.n] = index[c]
				}
				continue
			}
			n := fr.n
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].n
				if low[n] < low[parent] {
					low[parent] = low[n]
				}
			}
			if low[n] == index[n] {
				var comp []*FuncNode
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, top)
					if top == n {
						break
					}
				}
				// Deterministic member order within the component.
				sort.Slice(comp, func(i, j int) bool {
					a, b := comp[i], comp[j]
					if a.Pkg.Path != b.Pkg.Path {
						return a.Pkg.Path < b.Pkg.Path
					}
					return a.Decl.Pos() < b.Decl.Pos()
				})
				out = append(out, comp)
			}
		}
	}
	return out
}
