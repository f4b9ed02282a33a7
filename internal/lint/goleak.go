package lint

// goleak proves every `go` statement has a join path, so the process
// never accumulates abandoned goroutines across the benchmark's
// thousands of queries (TestNoGoroutineLeakAfterTimeout is the dynamic
// spot check; this is the static guarantee). A spawn is accepted when
// the analyzer can prove one of:
//
//  1. WaitGroup pairing — the goroutine body calls Done (directly or
//     deferred) on a sync.WaitGroup W, a W.Add call precedes the go
//     statement in the spawning function, and W.Wait is unavoidable:
//     every CFG path from the spawn site to the function's exit passes
//     a W.Wait call (or a deferred W.Wait is registered). An early
//     return squeezing between `go` and `Wait` is exactly the leak
//     this rule exists to catch.
//  2. Cancellation-driven exit — the goroutine body demonstrably
//     terminates when the query/context is cancelled: it receives from
//     a Done() channel (`<-ctx.Done()`) or polls a niladic done()
//     predicate (the qctx pattern) in a loop that then returns. Such a
//     goroutine is owned by the cancellation scope rather than a
//     WaitGroup.
//
// Everything else — including `go namedFunc()` whose body the
// intraprocedural analysis cannot see, unless a WaitGroup is passed in
// and paired — is a finding. The fix is a real join; the escape hatch
// is a //lint:ignore carrying the ownership proof.

import (
	"go/ast"
	"go/token"
	"go/types"
)

func analyzeGoLeak(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, fs := range funcScopes(f) {
			out = append(out, p.goLeakFunc(fs)...)
		}
	}
	return out
}

func (p *Package) goLeakFunc(fs funcScope) []Diagnostic {
	// Collect this scope's own go statements (not those of nested
	// literals, which are their own scopes — but a go statement whose
	// callee IS a literal belongs here, spawning that literal).
	var gos []*ast.GoStmt
	inspectShallow(fs.body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			gos = append(gos, g)
		}
		return true
	})
	if len(gos) == 0 {
		return nil
	}

	g := buildCFG(fs.body, p.terminatesStmt)
	var diags []Diagnostic
	for _, spawn := range gos {
		if d, ok := p.checkGoStmt(fs, g, spawn); !ok {
			diags = append(diags, d)
		}
	}
	return diags
}

// checkGoStmt proves one spawn joined; on failure it returns the
// diagnostic explaining exactly which leg of the proof is missing.
func (p *Package) checkGoStmt(fs funcScope, g *CFG, spawn *ast.GoStmt) (Diagnostic, bool) {
	var body *ast.BlockStmt
	if lit, ok := unparen(spawn.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	}

	// Leg 1: WaitGroup pairing.
	var doneGroups []string
	if body != nil {
		doneGroups = p.waitGroupCalls(body, "Done")
	} else {
		// Named callee: accept a WaitGroup passed as an argument (the
		// callee owns the Done) — the spawner must still Add and Wait.
		for _, arg := range spawn.Call.Args {
			if key, ok := p.waitGroupExpr(arg); ok {
				doneGroups = append(doneGroups, key)
			}
		}
	}
	for _, wg := range doneGroups {
		addBefore := p.hasWaitGroupCallBefore(fs.body, wg, "Add", spawn.Pos())
		if !addBefore {
			return p.diag(spawn, "goleak",
				"goroutine signals %s.Done but the spawner never calls Add before the go statement", wgDisplay(wg)), false
		}
		if !p.waitOnAllPaths(g, spawn, wg) {
			return p.diag(spawn, "goleak",
				"a path from this go statement reaches return without %s.Wait; the goroutine can outlive its spawner", wgDisplay(wg)), false
		}
		return Diagnostic{}, true
	}

	// Leg 2: cancellation-driven exit.
	if body != nil && p.cancellationDriven(body) {
		return Diagnostic{}, true
	}

	if body == nil {
		return p.diag(spawn, "goleak",
			"cannot prove a join for go %s: spawn a func literal that pairs with a WaitGroup (Add/Done/Wait) or pass the WaitGroup to the callee", displayExpr(spawn.Call.Fun)), false
	}
	return p.diag(spawn, "goleak",
		"goroutine has no provable join: pair it with a WaitGroup (Add before, Done inside, Wait after) or give it a cancellation-driven exit (<-ctx.Done() / qctx done())"), false
}

// waitGroupCalls lists the canonical keys of WaitGroups that receive a
// call to method (Done/Wait/Add) anywhere under n.
func (p *Package) waitGroupCalls(n ast.Node, method string) []string {
	var keys []string
	seen := map[string]bool{}
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, ok := p.waitGroupMethod(call, method); ok && !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
		return true
	})
	return keys
}

// waitGroupMethod recognizes `X.<method>()` where X is a
// sync.WaitGroup and returns X's canonical key.
func (p *Package) waitGroupMethod(call *ast.CallExpr, method string) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return "", false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false
	}
	if key := p.canonKey(sel.X); key != "" {
		return key, true
	}
	return "", false
}

// waitGroupExpr reports whether e denotes a sync.WaitGroup (or pointer
// to one) with a stable identity.
func (p *Package) waitGroupExpr(e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return "", false
	}
	n := namedOf(tv.Type)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" || n.Obj().Name() != "WaitGroup" {
		return "", false
	}
	if key := p.canonKey(e); key != "" {
		return key, true
	}
	return "", false
}

// hasWaitGroupCallBefore reports whether wg.<method> is called in the
// scope body at a position before pos (the Add-before-go discipline:
// Add must be sequenced before the spawn, or the Wait may pass early).
func (p *Package) hasWaitGroupCallBefore(body *ast.BlockStmt, wg, method string, pos token.Pos) bool {
	found := false
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if key, ok := p.waitGroupMethod(call, method); ok && key == wg && call.Pos() < pos {
			found = true
		}
		return !found
	})
	return found
}

// waitOnAllPaths proves wg.Wait is unavoidable between the spawn and
// every function exit: a DFS from the spawn site that refuses to cross
// blocks containing Wait must not reach the exit block. A deferred
// wg.Wait anywhere in the scope also closes all paths.
func (p *Package) waitOnAllPaths(g *CFG, spawn *ast.GoStmt, wg string) bool {
	// Deferred Wait runs at every exit.
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if ds, ok := n.(*ast.DeferStmt); ok {
				if key, ok := p.waitGroupMethod(ds.Call, "Wait"); ok && key == wg {
					return true
				}
			}
		}
	}
	// Locate the spawn's block and node index.
	var start *Block
	startIdx := -1
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			if n == spawn || containsNode(n, spawn) {
				start, startIdx = blk, i
				break
			}
		}
		if start != nil {
			break
		}
	}
	if start == nil {
		return false // should not happen; fail safe (report)
	}
	blockWaits := func(blk *Block, from int) bool {
		for i := from; i < len(blk.Nodes); i++ {
			waits := false
			inspectShallow(blk.Nodes[i], func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if key, ok := p.waitGroupMethod(call, "Wait"); ok && key == wg {
						waits = true
					}
				}
				return !waits
			})
			if waits {
				return true
			}
		}
		return false
	}
	// DFS for a Wait-free path to exit.
	if blockWaits(start, startIdx+1) {
		return true
	}
	visited := map[*Block]bool{}
	var leak func(blk *Block) bool
	leak = func(blk *Block) bool {
		if blk == g.Exit {
			return true
		}
		if visited[blk] {
			return false
		}
		visited[blk] = true
		if blk != start && blockWaits(blk, 0) {
			return false // this path joins
		}
		for _, s := range blk.Succs {
			if leak(s) {
				return true
			}
		}
		return false
	}
	for _, s := range start.Succs {
		if leak(s) {
			return false
		}
	}
	return true
}

// containsNode reports whether needle appears under root.
func containsNode(root, needle ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == needle {
			found = true
		}
		return !found
	})
	return found
}

// cancellationDriven recognizes goroutine bodies whose exit is driven
// by cancellation: a receive from a Done() channel or a call to a
// niladic done() predicate, in a body that also returns or falls off
// its end (a worker `for !qc.done() { ... }` shape).
func (p *Package) cancellationDriven(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.UnaryExpr:
			// <-something.Done()
			if v.Op == token.ARROW {
				if call, ok := unparen(v.X).(*ast.CallExpr); ok {
					if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
						// Done() returning a channel (context.Context and
						// friends), not WaitGroup.Done (no result).
						if tv, ok := p.Info.Types[v.X]; ok && tv.Type != nil {
							if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
								found = true
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			// qc.done() — a niladic predicate named done returning bool.
			if sel, ok := unparen(v.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "done" && len(v.Args) == 0 {
				if tv, ok := p.Info.Types[ast.Expr(v)]; ok && tv.Type != nil &&
					types.Identical(tv.Type, types.Typ[types.Bool]) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// wgDisplay strips the key encoding for messages.
func wgDisplay(key string) string { return keyDisplay(key) }
