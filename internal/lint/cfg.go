package lint

// cfg.go builds intraprocedural control-flow graphs over go/ast
// function bodies — the substrate the flow-sensitive analyzers
// (lockcheck, goleak, taintdet) run their dataflow on. The graph is
// statement-granular: every block holds the AST nodes that execute in
// order when the block runs, and edges follow Go's control
// constructs — if/else joins, loop back-edges and exits, switch and
// select dispatch (including fallthrough), break/continue with labels,
// and return/panic/os.Exit edges to a single synthetic exit block.
//
// Deliberate simplifications, each conservative for our analyses:
//
//   - goto is modeled as an edge to the exit block (the repo bans no
//     goto outright, but none exists; a goto would at worst lose
//     precision, never soundness, for the union-join analyses);
//   - function literals are opaque: their bodies are NOT inlined into
//     the enclosing graph (a closure runs at an unknown time), and each
//     literal gets its own CFG when the per-function analyzers visit it;
//   - defer is recorded as an ordinary node where it executes its
//     *registration*; analyzers that care about the deferred call's
//     effect at exit (lockcheck) interpret the DeferStmt themselves.

import (
	"go/ast"
	"go/token"
)

// CFG is the control-flow graph of one function body. Entry is the
// first executed block; Exit is a synthetic empty block every
// return/panic/fallthrough-off-the-end edge targets.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// Block is a straight-line run of AST nodes with outgoing edges.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block

	// Branch metadata for nilness.go's edge refinement. When Cond is
	// non-nil the block ends in a two-way branch on Cond and
	// TrueSucc/FalseSucc are the successors taken when the condition is
	// true/false; otherwise the edges carry no condition. Analyzers that
	// only read Succs are unaffected.
	Cond      ast.Expr
	TrueSucc  *Block
	FalseSucc *Block
}

func (b *Block) addSucc(s *Block) {
	for _, x := range b.Succs {
		if x == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
}

// cfgBuilder carries the under-construction graph. cur == nil means the
// current point is statically unreachable (after return/break/...); the
// next statement then starts a fresh predecessor-less block so analyses
// still see its nodes.
type cfgBuilder struct {
	cfg *CFG
	cur *Block

	// levels stacks the enclosing breakable constructs, innermost last.
	levels []branchLevel

	// terminates reports whether a statement never returns (panic,
	// os.Exit, runtime.Goexit, log.Fatal*); supplied by the Package so
	// the builder stays types-aware without importing the info itself.
	terminates func(ast.Stmt) bool
}

// branchLevel is one enclosing for/range/switch/select: the target of
// break (and, for loops, continue) statements addressed at it.
type branchLevel struct {
	label string // the wrapping LabeledStmt's name, "" if none
	brk   *Block
	cont  *Block // nil for switch/select (continue skips them)
}

// buildCFG constructs the graph of one function body.
func buildCFG(body *ast.BlockStmt, terminates func(ast.Stmt) bool) *CFG {
	if terminates == nil {
		terminates = func(ast.Stmt) bool { return false }
	}
	b := &cfgBuilder{cfg: &CFG{}, terminates: terminates}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List, "")
	if b.cur != nil {
		b.cur.addSucc(b.cfg.Exit)
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// ensure returns the current block, starting a fresh unreachable one if
// control cannot reach this point (dead code is still analyzed).
func (b *cfgBuilder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.ensure().Nodes = append(b.ensure().Nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt, label string) {
	for _, s := range list {
		b.stmt(s, label)
		label = ""
	}
}

// stmt translates one statement. label is the name of the LabeledStmt
// immediately wrapping s ("" if none); it binds break/continue targets.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch v := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(v.List, "")
	case *ast.LabeledStmt:
		// Start a fresh block so the label has a well-defined target,
		// then translate the inner statement with the label bound.
		next := b.newBlock()
		b.ensure().addSucc(next)
		b.cur = next
		b.stmt(v.Stmt, v.Label.Name)
	case *ast.IfStmt:
		b.ifStmt(v)
	case *ast.ForStmt:
		b.forStmt(v, label)
	case *ast.RangeStmt:
		b.rangeStmt(v, label)
	case *ast.SwitchStmt:
		if v.Init != nil {
			b.add(v.Init)
		}
		if v.Tag != nil {
			b.add(v.Tag)
		}
		b.switchBody(v.Body, label)
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			b.add(v.Init)
		}
		b.add(v.Assign)
		b.switchBody(v.Body, label)
	case *ast.SelectStmt:
		b.selectStmt(v, label)
	case *ast.ReturnStmt:
		b.add(v)
		b.ensure().addSucc(b.cfg.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(v)
	default:
		// Straight-line statements: decl, assign, expr, send, inc/dec,
		// defer, go, empty. Terminating calls (panic, os.Exit) edge to
		// exit and end the block.
		b.add(s)
		if b.terminates(s) {
			b.ensure().addSucc(b.cfg.Exit)
			b.cur = nil
		}
	}
}

func (b *cfgBuilder) ifStmt(v *ast.IfStmt) {
	if v.Init != nil {
		b.add(v.Init)
	}
	b.add(v.Cond)
	head := b.ensure()

	thenB := b.newBlock()
	head.addSucc(thenB)
	head.Cond = v.Cond
	head.TrueSucc = thenB
	b.cur = thenB
	b.stmtList(v.Body.List, "")
	thenEnd := b.cur

	var elseEnd *Block
	hasElse := v.Else != nil
	if hasElse {
		elseB := b.newBlock()
		head.addSucc(elseB)
		head.FalseSucc = elseB
		b.cur = elseB
		b.stmt(v.Else, "")
		elseEnd = b.cur
	}

	after := b.newBlock()
	if thenEnd != nil {
		thenEnd.addSucc(after)
	}
	if hasElse {
		if elseEnd != nil {
			elseEnd.addSucc(after)
		}
	} else {
		head.addSucc(after)
		head.FalseSucc = after
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(v *ast.ForStmt, label string) {
	if v.Init != nil {
		b.add(v.Init)
	}
	head := b.newBlock()
	b.ensure().addSucc(head)
	b.cur = head
	if v.Cond != nil {
		b.add(v.Cond)
	}

	after := b.newBlock()
	var post *Block
	if v.Post != nil {
		post = b.newBlock()
		post.Nodes = append(post.Nodes, v.Post)
		post.addSucc(head) // back to cond
	}
	contTarget := head
	if post != nil {
		contTarget = post
	}
	if v.Cond != nil {
		head.addSucc(after)
	}

	body := b.newBlock()
	head.addSucc(body)
	if v.Cond != nil {
		head.Cond = v.Cond
		head.TrueSucc = body
		head.FalseSucc = after
	}
	b.pushTargets(label, after, contTarget)
	b.cur = body
	b.stmtList(v.Body.List, "")
	b.popTargets()
	if b.cur != nil {
		if post != nil {
			b.cur.addSucc(post)
		} else {
			b.cur.addSucc(head)
		}
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(v *ast.RangeStmt, label string) {
	head := b.newBlock()
	b.ensure().addSucc(head)
	// The RangeStmt node itself represents the per-iteration key/value
	// binding and the ranged operand evaluation.
	head.Nodes = append(head.Nodes, v)

	after := b.newBlock()
	head.addSucc(after) // zero iterations

	body := b.newBlock()
	head.addSucc(body)
	b.pushTargets(label, after, head)
	b.cur = body
	b.stmtList(v.Body.List, "")
	b.popTargets()
	if b.cur != nil {
		b.cur.addSucc(head)
	}
	b.cur = after
}

// switchBody translates the case clauses of a switch/type-switch whose
// head nodes are already placed in the current block.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string) {
	head := b.ensure()
	after := b.newBlock()

	var clauses []*ast.CaseClause
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		head.addSucc(blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.addSucc(after)
	}
	b.pushTargets(label, after, nil)
	for i, cc := range clauses {
		b.cur = blocks[i]
		// The clause node stands for the case-expression comparisons.
		b.cur.Nodes = append(b.cur.Nodes, cc)
		stmts := cc.Body
		fallsThrough := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				stmts = stmts[:n-1]
			}
		}
		b.stmtList(stmts, "")
		if b.cur != nil {
			if fallsThrough && i+1 < len(blocks) {
				b.cur.addSucc(blocks[i+1])
			} else {
				b.cur.addSucc(after)
			}
		}
	}
	b.popTargets()
	b.cur = after
}

func (b *cfgBuilder) selectStmt(v *ast.SelectStmt, label string) {
	head := b.ensure()
	after := b.newBlock()
	b.pushTargets(label, after, nil)
	for _, s := range v.Body.List {
		cc, ok := s.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		head.addSucc(blk)
		b.cur = blk
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.stmtList(cc.Body, "")
		if b.cur != nil {
			b.cur.addSucc(after)
		}
	}
	b.popTargets()
	// A select with no clauses blocks forever; `after` then has no
	// predecessors, which models exactly that.
	b.cur = after
}

func (b *cfgBuilder) branchStmt(v *ast.BranchStmt) {
	label := ""
	if v.Label != nil {
		label = v.Label.Name
	}
	switch v.Tok {
	case token.BREAK:
		target := b.cfg.Exit
		for i := len(b.levels) - 1; i >= 0; i-- {
			if label == "" || b.levels[i].label == label {
				target = b.levels[i].brk
				break
			}
		}
		b.ensure().addSucc(target)
		b.cur = nil
	case token.CONTINUE:
		target := b.cfg.Exit
		for i := len(b.levels) - 1; i >= 0; i-- {
			if b.levels[i].cont == nil {
				continue // switch/select: continue skips them
			}
			if label == "" || b.levels[i].label == label {
				target = b.levels[i].cont
				break
			}
		}
		b.ensure().addSucc(target)
		b.cur = nil
	case token.GOTO:
		// Conservative: treat like an exit edge (see file comment).
		b.ensure().addSucc(b.cfg.Exit)
		b.cur = nil
	case token.FALLTHROUGH:
		// Only legal as the last statement of a case clause, where
		// switchBody strips it; seeing one here means dead code.
		b.cur = nil
	}
}

// pushTargets binds break/continue destinations for one loop or
// switch/select level. cont == nil for switch/select (continue passes
// through them to the enclosing loop).
func (b *cfgBuilder) pushTargets(label string, brk, cont *Block) {
	b.levels = append(b.levels, branchLevel{label: label, brk: brk, cont: cont})
}

func (b *cfgBuilder) popTargets() {
	b.levels = b.levels[:len(b.levels)-1]
}
