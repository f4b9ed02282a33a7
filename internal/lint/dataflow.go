package lint

// dataflow.go is the generic forward dataflow engine over the CFGs of
// cfg.go: a textbook worklist fixpoint, parameterized over the fact
// type. Analyzers supply three operations —
//
//   - bottom: the state of an unreached program point;
//   - join:   merge a predecessor's out-state into a block's in-state,
//     reporting whether anything changed (monotone, so the worklist
//     terminates on finite lattices);
//   - transfer: push a state through one block's nodes, emitting
//     diagnostics as side effects.
//
// solveForward returns the in-state of every block, which the caller
// inspects at the Exit block for at-return obligations (lockcheck's
// "unlocked on all paths", goleak's "joined before return").

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// solveForward runs transfer to fixpoint and returns each block's
// in-state. The first time a successor is reached, its in-state is a
// CLONE of the predecessor's out-state (not a join into bottom — that
// would destroy intersection-joined facts like lockcheck's deferred
// set). Blocks unreachable from entry (dead code) are still processed
// once from bottom so intra-block checks fire there too.
func solveForward[S any](g *CFG, boundary S, bottom func() S, clone func(S) S, join func(dst, src S) bool, transfer func(b *Block, in S) S) map[*Block]S {
	return solveForwardEdges(g, boundary, bottom, clone, join, transfer, nil)
}

// solveForwardEdges is solveForward with a per-edge hook: a non-nil
// edge maps a block's out-state to the state the edge to succ carries
// (nilness.go narrows each edge of a branch by its condition). edge
// must not modify out in place: every successor is handed the same one.
func solveForwardEdges[S any](g *CFG, boundary S, bottom func() S, clone func(S) S, join func(dst, src S) bool, transfer func(b *Block, in S) S, edge func(b, succ *Block, out S) S) map[*Block]S {
	in := map[*Block]S{g.Entry: boundary}
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := transfer(blk, in[blk])
		for _, s := range blk.Succs {
			o := out
			if edge != nil {
				o = edge(blk, s, out)
			}
			changed := false
			if st, ok := in[s]; ok {
				changed = join(st, o)
			} else {
				in[s] = clone(o)
				changed = true
			}
			if changed && !queued[s] {
				work = append(work, s)
				queued[s] = true
			}
		}
	}
	for _, blk := range g.Blocks {
		if _, ok := in[blk]; !ok {
			in[blk] = bottom()
			transfer(blk, in[blk])
		}
	}
	return in
}

// funcScope is one analyzed function: a declaration or a function
// literal. Literals are separate scopes because they run at an unknown
// time relative to their enclosing function (see cfg.go).
type funcScope struct {
	name string        // "pkg.Func", "method", or "func literal"
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	body *ast.BlockStmt
}

// funcScopes lists every function body of the file: declarations plus
// all function literals (each exactly once).
func funcScopes(f *ast.File) []funcScope {
	var out []funcScope
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, funcScope{name: fd.Name.Name, decl: fd, body: fd.Body})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			out = append(out, funcScope{name: "func literal", lit: fl, body: fl.Body})
		}
		return true
	})
	return out
}

// inspectShallow walks n but does not descend into function literals:
// their statements belong to a different funcScope.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m != n {
			if _, isLit := m.(*ast.FuncLit); isLit {
				return false
			}
		}
		return fn(m)
	})
}

// terminatesStmt reports whether a statement never returns: a call to
// the panic builtin, os.Exit, runtime.Goexit, or log.Fatal*. Used by
// the CFG builder for exit edges.
func (p *Package) terminatesStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			_, isBuiltin := p.Info.Uses[fun].(*types.Builtin)
			return isBuiltin
		}
	case *ast.SelectorExpr:
		obj := p.Info.Uses[fun.Sel]
		if obj == nil || obj.Pkg() == nil {
			return false
		}
		switch obj.Pkg().Path() {
		case "os":
			return obj.Name() == "Exit"
		case "runtime":
			return obj.Name() == "Goexit"
		case "log":
			return obj.Name() == "Fatal" || obj.Name() == "Fatalf" || obj.Name() == "Fatalln"
		}
	}
	return false
}

// canonKey canonicalizes an addressable expression (mu, e.mu, &wg,
// s.inner.mu) to a stable per-function identity string rooted at the
// declaring object, so the same variable reached through the same path
// compares equal. Returns "" for expressions with no stable identity
// (call results, index expressions with computed keys).
func (p *Package) canonKey(e ast.Expr) string {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		obj := p.Info.Uses[v]
		if obj == nil {
			obj = p.Info.Defs[v]
		}
		if obj == nil {
			return ""
		}
		return objKey(obj)
	case *ast.SelectorExpr:
		base := p.canonKey(v.X)
		if base == "" {
			return ""
		}
		return base + "." + v.Sel.Name
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return p.canonKey(v.X)
		}
	case *ast.StarExpr:
		return p.canonKey(v.X)
	}
	return ""
}

// objKey identifies a types.Object stably within one analysis run.
func objKey(obj types.Object) string {
	return obj.Name() + "@" + strconv.Itoa(int(obj.Pos()))
}

// displayExpr renders an expression for diagnostics (short form).
func displayExpr(e ast.Expr) string {
	return types.ExprString(e)
}

// keyDisplay strips canonKey's "name@pos" encoding back to the source
// spelling ("wg", "e.mu") for diagnostics.
func keyDisplay(key string) string {
	i := strings.IndexByte(key, '@')
	if i < 0 {
		return key
	}
	if j := strings.IndexByte(key[i:], '.'); j >= 0 {
		return key[:i] + key[i+j:]
	}
	return key[:i]
}
