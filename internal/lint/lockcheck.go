package lint

// lockcheck proves, per function, that every sync.Mutex/RWMutex
// acquisition is released on every path to return — the invariant the
// engine's concurrent-streams contract (§5.2) rests on: one early
// return with e.mu held wedges every other stream at its next index
// lookup. The analysis is a forward dataflow over the function CFG:
//
//   - state: the set of locks currently held (mapped to the position
//     of the acquiring call) plus the set of locks with a registered
//     deferred release;
//   - join: held is unioned (a lock held on ANY incoming path is a
//     leak candidate), deferred is intersected (a release only counts
//     if it is registered on EVERY incoming path);
//   - obligations: at the exit block any held lock without a deferred
//     release is reported at its Lock() site; a second Lock of an
//     already-held lock is an immediate self-deadlock; a channel send
//     or receive while any lock is held is reported (a blocked
//     goroutine must never sit on a mutex).
//
// Function literals are analyzed as their own functions (a goroutine
// body acquiring a lock must release it itself).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// lockFacts is the dataflow state: held maps lock identity → position
// of the acquiring Lock call; deferred records registered deferred
// releases. The "R:" key prefix separates read locks: RLock/RUnlock
// pair independently of Lock/Unlock on the same RWMutex.
type lockFacts struct {
	held     map[string]token.Pos
	deferred map[string]bool
}

func newLockFacts() *lockFacts {
	return &lockFacts{held: map[string]token.Pos{}, deferred: map[string]bool{}}
}

// joinLockFacts merges src into dst: union of held, intersection of
// deferred. Reports whether dst changed.
func joinLockFacts(dst, src *lockFacts) bool {
	changed := false
	for k, pos := range src.held {
		if _, ok := dst.held[k]; !ok {
			dst.held[k] = pos
			changed = true
		}
	}
	for k := range dst.deferred {
		if !src.deferred[k] {
			delete(dst.deferred, k)
			changed = true
		}
	}
	return changed
}

func cloneLockFacts(s *lockFacts) *lockFacts {
	c := newLockFacts()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// analyzeLockCheck runs the lock dataflow over every function of the
// package.
func analyzeLockCheck(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, fs := range funcScopes(f) {
			out = append(out, p.lockCheckFunc(fs)...)
		}
	}
	return out
}

func (p *Package) lockCheckFunc(fs funcScope) []Diagnostic {
	// Cheap pre-pass: skip functions that never touch a mutex.
	touches := false
	inspectShallow(fs.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, _, ok := p.mutexOp(call); ok {
				touches = true
			}
		}
		return !touches
	})
	if !touches {
		return nil
	}

	var diags []Diagnostic
	reported := map[string]bool{} // dedupe: one report per lock site & kind
	report := func(pos token.Pos, kind, format string, args ...any) {
		k := kind + "@" + strconv.Itoa(int(pos))
		if reported[k] {
			return
		}
		reported[k] = true
		diags = append(diags, Diagnostic{
			Pos:     p.Fset.Position(pos),
			Rule:    "lockcheck",
			Message: fmt.Sprintf(format, args...),
		})
	}

	g := buildCFG(fs.body, p.terminatesStmt)
	transfer := func(blk *Block, in *lockFacts) *lockFacts {
		st := cloneLockFacts(in)
		for _, node := range blk.Nodes {
			p.lockTransferNode(node, st, report)
		}
		return st
	}
	in := solveForward(g, newLockFacts(), newLockFacts, cloneLockFacts, joinLockFacts, transfer)

	// Exit obligation, checked per exit EDGE rather than on the joined
	// exit in-state: joining would pair one path's held lock with
	// another path's missing defer and cry wolf. Re-running transfer is
	// safe — report dedupes by position.
	for _, blk := range g.Blocks {
		exits := false
		for _, s := range blk.Succs {
			if s == g.Exit {
				exits = true
			}
		}
		st, ok := in[blk]
		if !exits || !ok {
			continue
		}
		out := transfer(blk, st)
		for k, pos := range out.held {
			if !out.deferred[k] {
				report(pos, "leak", "%s is locked here but not unlocked on every path to return", lockDisplay(k))
			}
		}
	}
	return diags
}

// lockTransferNode interprets one CFG node against the lock state.
func (p *Package) lockTransferNode(node ast.Node, st *lockFacts, report func(pos token.Pos, kind, format string, args ...any)) {
	// defer mu.Unlock() (directly or via a literal wrapper) registers a
	// release that runs at every exit.
	if ds, ok := node.(*ast.DeferStmt); ok {
		for _, key := range p.deferredUnlocks(ds) {
			st.deferred[key] = true
		}
		// The deferred call's other effects happen at exit, not here.
		return
	}
	inspectShallow(node, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			op, recv, ok := p.mutexOp(v)
			if !ok {
				return true
			}
			key := p.canonKey(recv)
			if key == "" {
				return true // untrackable lock expression; stay silent
			}
			if op == "RLock" || op == "RUnlock" {
				key = "R:" + key
			}
			switch op {
			case "Lock", "RLock":
				if _, held := st.held[key]; held {
					report(v.Pos(), "double", "%s.%s while %s is already held on this path (self-deadlock)",
						displayExpr(recv), op, lockDisplay(key))
				}
				st.held[key] = v.Pos()
			case "Unlock", "RUnlock":
				if _, held := st.held[key]; !held && !st.deferred[key] {
					report(v.Pos(), "bare", "%s.%s without a matching %s on this path",
						displayExpr(recv), op, matchingLockOp(op))
				}
				delete(st.held, key)
			}
		case *ast.SendStmt:
			p.reportChannelOpWhileLocked(v.Pos(), "send", st, report)
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				p.reportChannelOpWhileLocked(v.Pos(), "receive", st, report)
			}
		}
		return true
	})
}

func (p *Package) reportChannelOpWhileLocked(pos token.Pos, op string, st *lockFacts, report func(pos token.Pos, kind, format string, args ...any)) {
	for k := range st.held {
		report(pos, "chan", "channel %s while holding %s; a blocked goroutine must not sit on a mutex", op, lockDisplay(k))
		return // one report per op is enough
	}
}

// deferredUnlocks extracts the lock keys released by a defer statement:
// `defer mu.Unlock()` or `defer func() { ...; mu.Unlock(); ... }()`.
func (p *Package) deferredUnlocks(ds *ast.DeferStmt) []string {
	var keys []string
	record := func(call *ast.CallExpr) {
		op, recv, ok := p.mutexOp(call)
		if !ok || (op != "Unlock" && op != "RUnlock") {
			return
		}
		key := p.canonKey(recv)
		if key == "" {
			return
		}
		if op == "RUnlock" {
			key = "R:" + key
		}
		keys = append(keys, key)
	}
	record(ds.Call)
	if lit, ok := unparen(ds.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				record(call)
			}
			return true
		})
	}
	return keys
}

// mutexOp recognizes a Lock/Unlock/RLock/RUnlock method call on a
// sync.Mutex or sync.RWMutex (possibly behind pointers/embedding) and
// returns the operation name and receiver expression.
func (p *Package) mutexOp(call *ast.CallExpr) (op string, recv ast.Expr, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", nil, false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", nil, false
	}
	// Method of sync: the receiver named type is Mutex or RWMutex.
	fn, isFunc := obj.(*types.Func)
	if !isFunc {
		return "", nil, false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", nil, false
	}
	n := namedOf(sig.Recv().Type())
	if n == nil {
		return "", nil, false
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
		return sel.Sel.Name, sel.X, true
	}
	return "", nil, false
}

func matchingLockOp(unlock string) string {
	if unlock == "RUnlock" {
		return "RLock"
	}
	return "Lock"
}

// lockDisplay strips the internal key encoding for messages.
func lockDisplay(key string) string {
	mode := "mutex"
	if rest, ok := strings.CutPrefix(key, "R:"); ok {
		key = rest
		mode = "read lock"
	}
	return mode + " " + keyDisplay(key)
}
