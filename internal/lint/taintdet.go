package lint

// taintdet keeps generated data and query results bit-deterministic.
// A wall-clock read is harmless where its value only reaches a timer;
// it is a defect where the value reaches a table or a result, even
// when the call and the emission are separated by assignments (`t :=
// time.Now(); ...; row = append(row, storage.Int(t.Unix()))`) or by
// helper calls. taintdet is a forward taint analysis over the function
// CFG:
//
//   - sources: wall-clock reads (time.Now/Since/Until), the global
//     math/rand and math/rand/v2, crypto/rand, process-environment
//     reads (os.Getenv/Environ/Getpid/Getppid/Hostname), and values
//     read back out of obs instruments — anything whose value differs
//     between two runs of the same seed;
//   - propagation: assignment, compound assignment, range binding and
//     field stores move taint between locals (strong updates on plain
//     reassignment, so laundering through a variable is tracked but an
//     overwrite genuinely clears); a function literal carries the taint
//     its body can return, so `pick := func() int { return
//     rand.Intn(n) }; v := pick()` taints v;
//   - sinks: any call into internal/storage with a tainted argument
//     (flat-file emission and table building both live there) and any
//     tainted value returned by an exported function (generator
//     results escape to the harness and become benchmark data).
//
// Scope: the deterministic generator packages plus internal/exec
// (query results) and internal/storage itself (the emission layer).
// A clock value that reaches a generated table changes the committed
// flat-file hashes, which the tests check; one that reaches a query
// result on a rare path (a literal that fails to parse, say) changes
// nothing a test compares, and taintdet is what reports it.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// taintScope are the packages whose emitted values must be
// bit-identical across runs: the generator side (§3: everything the
// seeded-stream design guarantees, a wall-clock read or a global rand
// call silently destroys), the planner (plan choice determines result
// row order), the executor (query results) and the emission layer.
var taintScope = map[string]bool{
	"tpcds/internal/rng":     true,
	"tpcds/internal/dist":    true,
	"tpcds/internal/datagen": true,
	"tpcds/internal/qgen":    true,
	"tpcds/internal/scaling": true,
	"tpcds/internal/plan":    true,
	"tpcds/internal/exec":    true,
	"tpcds/internal/storage": true,
}

// storagePkgPath is the emission layer every generator writes through.
const storagePkgPath = "tpcds/internal/storage"

// obsPkgPath is the observability package: recording into it is not a
// sink, and reading its instruments back is a taint source.
const obsPkgPath = "tpcds/internal/obs"

// wallClockFuncs are the time package functions that read the clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// taintFacts maps tainted local objects to the source description that
// tainted them ("time.Now") and the source position.
type taintFacts map[types.Object]taintOrigin

type taintOrigin struct {
	src string
	pos token.Pos
}

func newTaintFacts() taintFacts { return taintFacts{} }

func joinTaintFacts(dst, src taintFacts) bool {
	changed := false
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
			changed = true
		}
	}
	return changed
}

func cloneTaintFacts(s taintFacts) taintFacts {
	c := make(taintFacts, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func analyzeTaintDet(pr *Program, p *Package) []Diagnostic {
	if !taintScope[p.Path] {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, fs := range funcScopes(f) {
			out = append(out, p.taintFunc(pr, fs)...)
		}
	}
	return out
}

func (p *Package) taintFunc(pr *Program, fs funcScope) []Diagnostic {
	// Cheap pre-pass: a function that neither calls a source directly,
	// nor calls a helper whose summary says it returns tainted values,
	// nor builds a closure that can return one cannot taint anything.
	hasSource := false
	ast.Inspect(fs.body, func(n ast.Node) bool {
		if _, ok := p.nodeTaint(pr, n); ok {
			hasSource = true
		}
		_, isLit := n.(*ast.FuncLit)
		return !hasSource && !isLit
	})
	if !hasSource {
		return nil
	}

	exported := fs.decl != nil && fs.decl.Name.IsExported()
	funcName := fs.name

	var diags []Diagnostic
	reported := map[token.Pos]bool{}
	report := func(n ast.Node, format string, args ...any) {
		if reported[n.Pos()] {
			return
		}
		reported[n.Pos()] = true
		diags = append(diags, p.diag(n, "taintdet", format, args...))
	}

	g := buildCFG(fs.body, p.terminatesStmt)
	transfer := func(blk *Block, in taintFacts) taintFacts {
		st := cloneTaintFacts(in)
		for _, node := range blk.Nodes {
			p.taintTransferNode(pr, node, st, exported, funcName, report)
		}
		return st
	}
	solveForward(g, newTaintFacts(), newTaintFacts, cloneTaintFacts, joinTaintFacts, transfer)
	return diags
}

// taintTransferNode interprets one CFG node: sinks first (the node's
// reads see the pre-state), then assignments update the state.
func (p *Package) taintTransferNode(pr *Program, node ast.Node, st taintFacts, exported bool, funcName string, report func(n ast.Node, format string, args ...any)) {
	// Sinks anywhere inside the node: direct storage calls, and calls to
	// in-module helpers whose summary proves the argument flows on into
	// storage emission (the interprocedural half).
	inspectShallow(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := p.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == storagePkgPath {
				for _, arg := range call.Args {
					if origin, tainted := p.exprTaint(pr, arg, st); tainted {
						report(arg, "value derived from %s reaches storage emission via %s; generator output must be bit-deterministic",
							origin.src, displayExpr(call.Fun))
					}
				}
				return true
			}
		}
		if pr == nil {
			return true
		}
		callee := pr.calleeNode(p, call)
		if callee == nil {
			return true
		}
		cs := pr.summaryOf(callee)
		if cs.ParamToSink == 0 && !cs.RecvToSink {
			return true
		}
		if cs.RecvToSink {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && p.Info.Selections[sel] != nil {
				if origin, tainted := p.exprTaint(pr, sel.X, st); tainted {
					report(sel.X, "value derived from %s reaches storage emission via %s; generator output must be bit-deterministic",
						origin.src, callee.Name)
				}
			}
		}
		nparams := calleeParamCount(callee)
		for i, arg := range call.Args {
			j := i
			if nparams > 0 && j >= nparams {
				j = nparams - 1
			}
			if j >= 32 || cs.ParamToSink&(1<<j) == 0 {
				continue
			}
			if origin, tainted := p.exprTaint(pr, arg, st); tainted {
				report(arg, "value derived from %s reaches storage emission via %s; generator output must be bit-deterministic",
					origin.src, callee.Name)
			}
		}
		return true
	})

	switch v := node.(type) {
	case *ast.ReturnStmt:
		if exported {
			for _, res := range v.Results {
				if origin, tainted := p.exprTaint(pr, res, st); tainted {
					report(res, "exported %s returns a value derived from %s; benchmark data must be bit-deterministic",
						funcName, origin.src)
				}
			}
		}
	case *ast.AssignStmt:
		p.taintAssign(pr, v, st)
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
					if origin, tainted := p.exprTaint(pr, rhs, st); tainted {
						if obj := p.Info.Defs[name]; obj != nil {
							st[obj] = origin
						}
					}
				}
			}
		}
	case *ast.RangeStmt:
		if origin, tainted := p.exprTaint(pr, v.X, st); tainted {
			for _, e := range []ast.Expr{v.Key, v.Value} {
				if e == nil {
					continue
				}
				if id, ok := unparen(e).(*ast.Ident); ok {
					if obj := p.Info.Defs[id]; obj != nil {
						st[obj] = origin
					} else if obj := p.Info.Uses[id]; obj != nil {
						st[obj] = origin
					}
				}
			}
		}
	}
}

// taintAssign propagates taint through one assignment, with strong
// updates: reassigning a clean value to a plain identifier clears it.
func (p *Package) taintAssign(pr *Program, as *ast.AssignStmt, st taintFacts) {
	assignOne := func(lhs ast.Expr, origin taintOrigin, tainted bool) {
		switch l := unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				return
			}
			obj := p.Info.Defs[l]
			if obj == nil {
				obj = p.Info.Uses[l]
			}
			if obj == nil {
				return
			}
			if tainted {
				st[obj] = origin
			} else if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
				delete(st, obj) // strong update
			}
		default:
			// x.f = v, x[i] = v: taint the root variable (weak update —
			// part of the aggregate is nondeterministic).
			if !tainted {
				return
			}
			root := rootIdent(lhs)
			if root == nil {
				return
			}
			if obj := p.Info.Uses[root]; obj != nil {
				st[obj] = origin
			}
		}
	}
	// Compound assignment (+=, etc.): LHS taint persists, RHS may add.
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		for i, lhs := range as.Lhs {
			if i < len(as.Rhs) {
				if origin, tainted := p.exprTaint(pr, as.Rhs[i], st); tainted {
					assignOne(lhs, origin, true)
				}
			}
		}
		return
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		origin, tainted := p.exprTaint(pr, as.Rhs[0], st)
		for _, lhs := range as.Lhs {
			assignOne(lhs, origin, tainted)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		origin, tainted := p.exprTaint(pr, as.Rhs[i], st)
		assignOne(lhs, origin, tainted)
	}
}

// exprTaint reports whether e's value derives from a taint source under
// the current state: it mentions a tainted object or contains a source
// call (direct, or a helper whose transfer summary taints its return).
func (p *Package) exprTaint(pr *Program, e ast.Expr, st taintFacts) (taintOrigin, bool) {
	var origin taintOrigin
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if src, ok := p.nodeTaint(pr, n); ok {
			origin, found = taintOrigin{src: src, pos: n.Pos()}, true
		} else if id, ok := n.(*ast.Ident); ok {
			origin, found = st[p.Info.Uses[id]]
		}
		_, isLit := n.(*ast.FuncLit)
		return !found && !isLit
	})
	return origin, found
}

// nodeTaint reports the nondeterminism source n itself produces: a
// source call (taintSourceInter), or a function literal whose body can
// return a tainted value.
func (p *Package) nodeTaint(pr *Program, n ast.Node) (string, bool) {
	switch v := n.(type) {
	case *ast.CallExpr:
		return p.taintSourceInter(pr, v)
	case *ast.FuncLit:
		if pr != nil {
			return pr.litReturnTaint(p, v)
		}
	}
	return "", false
}

// taintSourceInter is taintSource plus the interprocedural case: a call
// to an in-graph function whose summary proves a nondeterministic value
// can reach its return.
func (p *Package) taintSourceInter(pr *Program, call *ast.CallExpr) (string, bool) {
	if src, ok := p.taintSource(call); ok {
		return src, true
	}
	if pr == nil {
		return "", false
	}
	if callee := pr.calleeNode(p, call); callee != nil {
		if cs := pr.summaryOf(callee); cs.TaintsReturn {
			return cs.TaintSrc + " (via " + callee.Name + ")", true
		}
	}
	return "", false
}

// taintSource recognizes calls whose results differ between two runs of
// the same seed.
func (p *Package) taintSource(call *ast.CallExpr) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	name := obj.Name()
	// Values read BACK from obs instruments are wall-clock-derived: a
	// span duration or a counter snapshot flowing into generated data
	// is as nondeterministic as time.Now itself. (Recording INTO obs is
	// not a sink; these are the read-out methods.)
	if obj.Pkg().Path() == obsPkgPath {
		switch name {
		case "End", "Value", "Count", "Sum", "Max", "Quantile":
			if s := p.Info.Selections[sel]; s != nil {
				if n := namedOf(s.Recv()); n != nil {
					return "obs." + n.Obj().Name() + "." + name, true
				}
			}
			return "obs." + name, true
		}
	}
	switch obj.Pkg().Path() {
	case "time":
		if wallClockFuncs[name] {
			return "time." + name, true
		}
	case "math/rand", "math/rand/v2":
		return obj.Pkg().Path() + "." + name, true
	case "crypto/rand":
		return "crypto/rand." + name, true
	case "os":
		switch name {
		case "Getenv", "Environ", "Getpid", "Getppid", "Hostname", "Getuid":
			return "os." + name, true
		}
	}
	return "", false
}

// rootIdent returns the base identifier of a selector/index chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}
