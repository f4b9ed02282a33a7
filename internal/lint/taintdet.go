package lint

// taintdet keeps generated data and query results bit-deterministic:
// every value the library derives must come from its seeded streams.
// It reports a nondeterministic value where it is read — at its
// source — once, naming the first place the value escapes the
// function that read it. taintdet is a forward taint analysis over the
// function CFG:
//
//   - sources: wall-clock reads (time.Now/Since/Until), the global
//     math/rand and math/rand/v2, crypto/rand, process-environment
//     reads (os.Getenv/Environ/Getpid/Getppid/Hostname/Getuid), and
//     values read back out of obs instruments — anything whose value
//     differs between two runs of the same seed;
//   - propagation: assignment, compound assignment, range binding and
//     field stores move taint between locals (strong updates on plain
//     reassignment, so laundering through a variable is tracked but an
//     overwrite genuinely clears); the result of a source call is a new
//     source, not the taint of its arguments;
//   - escapes: any return (exported function or not, function literal
//     included), and any argument — the receiver of a method call
//     included — of a call outside obs, time, the builtins and type
//     conversions, storage emission among them. A helper that returns
//     a clock value is reported at the clock read in the helper, so no
//     call graph is needed to follow it.
//
// Scope: every tpcds/internal library package except obs (the
// recorder, whose instruments hold wall-clock measurements), driver
// (the benchmark timer) and lint. Recording a measurement into obs, or
// computing with it through the time package, is not an escape.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// taintExempt are the internal packages outside taintdet's scope.
var taintExempt = []string{obsPkgPath, "tpcds/internal/driver", "tpcds/internal/lint"}

// storagePkgPath is the emission layer every generator writes through.
const storagePkgPath = "tpcds/internal/storage"

// obsPkgPath is the observability package: recording into it is not an
// escape, and reading its instruments back is a taint source.
const obsPkgPath = "tpcds/internal/obs"

// wallClockFuncs are the time package functions that read the clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// inTaintScope reports whether p is a library package whose values
// must be bit-identical across runs of the same seed.
func inTaintScope(p *Package) bool {
	if p.Name == "main" || !strings.HasPrefix(p.Path, "tpcds/internal/") {
		return false
	}
	for _, x := range taintExempt {
		if p.Path == x || strings.HasPrefix(p.Path, x+"/") {
			return false
		}
	}
	return true
}

// taintFacts maps tainted local objects to the source that tainted
// them ("time.Now") and the source position.
type taintFacts map[types.Object]taintOrigin

type taintOrigin struct {
	src string
	pos token.Pos
}

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

func analyzeTaintDet(p *Package) []Diagnostic {
	if !inTaintScope(p) {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, fs := range funcScopes(f) {
			out = append(out, p.taintFunc(fs)...)
		}
	}
	return out
}

// taintEscape is the first place a source's value leaves its function.
type taintEscape struct {
	origin taintOrigin
	end    token.Pos
	line   int
	how    string // "is passed to storage.Int", "is returned by f"
}

func (p *Package) taintFunc(fs funcScope) []Diagnostic {
	// Cheap pre-pass: a function that reads no source taints nothing.
	hasSource := false
	inspectShallow(fs.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := p.taintSource(call); ok {
				hasSource = true
			}
		}
		return !hasSource
	})
	if !hasSource {
		return nil
	}

	// The solver may push a block through transfer more than once; each
	// source keeps its first escape in evaluation order, which is the
	// escaping expression that ends first (an argument of a call inside
	// a return ends before the returned expression does).
	first := map[token.Pos]taintEscape{}
	escape := func(origin taintOrigin, at ast.Node, format string, args ...any) {
		if e, ok := first[origin.pos]; !ok || at.End() < e.end {
			first[origin.pos] = taintEscape{origin, at.End(), p.Fset.Position(at.Pos()).Line, fmt.Sprintf(format, args...)}
		}
	}
	transfer := func(blk *Block, in taintFacts) taintFacts {
		st := cloneTaintFacts(in)
		for _, node := range blk.Nodes {
			p.taintTransferNode(node, st, fs.name, escape)
		}
		return st
	}
	solveForward(buildCFG(fs.body, p.terminatesStmt), taintFacts{}, func() taintFacts { return taintFacts{} },
		cloneTaintFacts, joinTaintFacts, transfer)

	var diags []Diagnostic
	for _, e := range first {
		diags = append(diags, Diagnostic{
			Pos:  p.Fset.Position(e.origin.pos),
			Rule: "taintdet",
			Message: fmt.Sprintf("value of %s %s at line %d; generated data and query results must be bit-deterministic",
				e.origin.src, e.how, e.line),
		})
	}
	return diags // Check sorts them
}

// taintTransferNode interprets one CFG node: escapes first (the node's
// reads see the pre-state), then assignments update the state.
func (p *Package) taintTransferNode(node ast.Node, st taintFacts, funcName string, escape func(taintOrigin, ast.Node, string, ...any)) {
	// A range statement or case clause evaluates only its head here; its
	// body statements are nodes of their own.
	evaluated := []ast.Node{node}
	switch v := node.(type) {
	case *ast.RangeStmt:
		evaluated = []ast.Node{v.X}
	case *ast.CaseClause:
		evaluated = nil
		for _, e := range v.List {
			evaluated = append(evaluated, e)
		}
	}
	for _, n := range evaluated {
		inspectShallow(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || p.keepsTaintInside(call) {
				return true
			}
			args := call.Args
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && p.Info.Selections[sel] != nil {
				args = append([]ast.Expr{sel.X}, args...)
			}
			for _, arg := range args {
				if origin, tainted := p.exprTaint(arg, st); tainted {
					escape(origin, arg, "is passed to %s", displayExpr(call.Fun))
				}
			}
			return true
		})
	}

	switch v := node.(type) {
	case *ast.ReturnStmt:
		for _, res := range v.Results {
			if origin, tainted := p.exprTaint(res, st); tainted {
				escape(origin, res, "is returned by %s", funcName)
			}
		}
	case *ast.AssignStmt:
		p.taintAssign(v, st)
	case *ast.DeclStmt:
		// var x, y = e, f binds like x, y := e, f.
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					p.taintAssign(&ast.AssignStmt{Lhs: lhs, Tok: token.DEFINE, Rhs: vs.Values}, st)
				}
			}
		}
	case *ast.RangeStmt:
		if origin, tainted := p.exprTaint(v.X, st); tainted {
			for _, e := range []ast.Expr{v.Key, v.Value} {
				if e == nil {
					continue
				}
				if id, ok := unparen(e).(*ast.Ident); ok {
					if obj := objOf(p, id); obj != nil {
						st[obj] = origin
					}
				}
			}
		}
	}
}

// keepsTaintInside reports whether a call's arguments stay inside the
// run: a builtin, a type conversion, or a function or method of obs or
// time.
func (p *Package) keepsTaintInside(call *ast.CallExpr) bool {
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := p.Info.Uses[id].(*types.Builtin); builtin {
			return true
		}
	}
	if f := p.calleeFunc(call); f != nil && f.Pkg() != nil {
		return f.Pkg().Path() == "time" || f.Pkg().Path() == obsPkgPath
	}
	return false
}

// calleeFunc resolves a call to the *types.Func it invokes, when the
// callee is a statically known function or method (an interface method
// resolves to the interface's method). Type conversions, builtins and
// function values return nil.
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

// taintAssign propagates taint through one assignment, with strong
// updates: reassigning a clean value to a plain identifier clears it.
func (p *Package) taintAssign(as *ast.AssignStmt, st taintFacts) {
	assignOne := func(lhs ast.Expr, origin taintOrigin, tainted bool) {
		switch l := unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				return
			}
			obj := objOf(p, l)
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
				if origin, tainted := p.exprTaint(as.Rhs[i], st); tainted {
					assignOne(lhs, origin, true)
				}
			}
		}
		return
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		origin, tainted := p.exprTaint(as.Rhs[0], st)
		for _, lhs := range as.Lhs {
			assignOne(lhs, origin, tainted)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		origin, tainted := p.exprTaint(as.Rhs[i], st)
		assignOne(lhs, origin, tainted)
	}
}

// exprTaint reports whether e's value derives from a taint source under
// the current state: it contains a source call or mentions a tainted
// object. A source call's own arguments are not looked into: its
// result is the new source.
func (p *Package) exprTaint(e ast.Expr, st taintFacts) (taintOrigin, bool) {
	var origin taintOrigin
	found := false
	inspectShallow(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if src, ok := p.taintSource(call); ok {
				origin, found = taintOrigin{src: src, pos: call.Pos()}, true
			}
		} else if id, ok := n.(*ast.Ident); ok {
			origin, found = st[p.Info.Uses[id]]
		}
		return !found
	})
	return origin, found
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
	// not an escape; these are the read-out methods.)
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
