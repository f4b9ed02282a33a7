package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// cancelHelpers are the qctx methods a row-scale loop polls.
var cancelHelpers = map[string]bool{"tick": true, "done": true, "checkNow": true}

// analyzeCancelCheck flags row-range loops in internal/exec living in
// files that never reference the qctx cancellation helpers: such a file
// can scan millions of rows without a single context poll, breaking the
// bounded-latency guarantee of per-query timeouts.
func analyzeCancelCheck(p *Package) []Diagnostic {
	if p.Path != "tpcds/internal/exec" {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		polls := false
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && cancelHelpers[sel.Sel.Name] {
				polls = true
			}
			return !polls
		})
		if polls {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.RangeStmt:
				if name := baseName(v.X); rowsLike(name) {
					out = append(out, p.diag(v, "cancelcheck",
						"loop over %s in a file that never polls qctx tick/done/checkNow", name))
				}
			case *ast.ForStmt:
				if v.Cond != nil && mentionsNumRows(v.Cond) {
					out = append(out, p.diag(v, "cancelcheck",
						"NumRows-bounded loop in a file that never polls qctx tick/done/checkNow"))
				}
			}
			return true
		})
	}
	return out
}

// baseName extracts the final identifier of an expression (x, t.x).
func baseName(e ast.Expr) string {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	}
	return ""
}

// rowsLike reports whether a name denotes a row collection.
func rowsLike(name string) bool {
	return name == "rows" || strings.HasSuffix(name, "Rows") || strings.HasSuffix(name, "rows")
}

func mentionsNumRows(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NumRows" {
			found = true
		}
		return !found
	})
	return found
}

// analyzeErrCheck flags calls whose error result is silently discarded:
// expression statements, defer/go statements, and assignments that send
// an error to the blank identifier.
func analyzeErrCheck(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.ExprStmt:
				if call, ok := unparen(v.X).(*ast.CallExpr); ok {
					if p.returnsError(call) && !p.errSanctioned(call) {
						out = append(out, p.diag(v, "errcheck",
							"unchecked error returned by %s", types.ExprString(call.Fun)))
					}
				}
			case *ast.DeferStmt:
				if p.returnsError(v.Call) && !p.errSanctioned(v.Call) {
					out = append(out, p.diag(v, "errcheck",
						"deferred call to %s discards its error", types.ExprString(v.Call.Fun)))
				}
			case *ast.GoStmt:
				if p.returnsError(v.Call) && !p.errSanctioned(v.Call) {
					out = append(out, p.diag(v, "errcheck",
						"go statement discards the error returned by %s", types.ExprString(v.Call.Fun)))
				}
			case *ast.AssignStmt:
				if len(v.Rhs) != 1 {
					return true
				}
				call, ok := unparen(v.Rhs[0]).(*ast.CallExpr)
				if !ok || p.errSanctioned(call) {
					return true
				}
				results := p.callResults(call)
				if len(results) != len(v.Lhs) {
					return true
				}
				for i, lh := range v.Lhs {
					if id, ok := lh.(*ast.Ident); ok && id.Name == "_" && isErrorType(results[i]) {
						out = append(out, p.diag(v, "errcheck",
							"error result of %s discarded with _", types.ExprString(call.Fun)))
					}
				}
			}
			return true
		})
	}
	return out
}

// callResults returns the result types of a call, nil for non-signature
// callees (type conversions, builtins).
func (p *Package) callResults(call *ast.CallExpr) []types.Type {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return nil
	}
	res := sig.Results()
	out := make([]types.Type, res.Len())
	for i := 0; i < res.Len(); i++ {
		out[i] = res.At(i).Type()
	}
	return out
}

func (p *Package) returnsError(call *ast.CallExpr) bool {
	for _, t := range p.callResults(call) {
		if isErrorType(t) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// errSanctioned lists callees whose error can never fire or is by
// convention unactionable: in-memory writers (strings.Builder,
// bytes.Buffer, tabwriter over them is NOT included — its Flush
// surfaces real errors), fmt printing to the process streams (a CLI
// cannot do anything useful when its own stdout is gone — and library
// code using these is flagged by strayio anyway).
func (p *Package) errSanctioned(call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Methods on infallible in-memory writers.
	if s := p.Info.Selections[sel]; s != nil {
		if n := namedOf(s.Recv()); n != nil {
			obj := n.Obj()
			if obj.Pkg() != nil {
				switch obj.Pkg().Path() + "." + obj.Name() {
				case "strings.Builder", "bytes.Buffer":
					return true
				// hash.Hash documents that Write never returns an error.
				case "hash.Hash", "hash.Hash32", "hash.Hash64":
					return true
				}
			}
		}
		return false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
		return false
	}
	switch obj.Name() {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		w := unparen(call.Args[0])
		// Writing to the process streams.
		if ws, ok := w.(*ast.SelectorExpr); ok {
			if id, ok := ws.X.(*ast.Ident); ok && id.Name == "os" &&
				(ws.Sel.Name == "Stderr" || ws.Sel.Name == "Stdout") {
				return true
			}
		}
		// Writing to an infallible in-memory writer.
		if tv, ok := p.Info.Types[w]; ok && tv.Type != nil {
			if n := namedOf(tv.Type); n != nil && n.Obj().Pkg() != nil {
				switch n.Obj().Pkg().Path() + "." + n.Obj().Name() {
				case "strings.Builder", "bytes.Buffer":
					return true
				}
			}
		}
	}
	return false
}

// namedOf unwraps pointers to a named type.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// analyzePanics enforces the library panic convention: a panic must
// raise either the qctx cancellation sentinel or an invariant message
// prefixed "<pkg>: " so the query-boundary recover can attribute it.
// Anything else — panic(err), a bare re-panic, an unprefixed string —
// needs an explicit //lint:ignore with a reason.
func analyzePanics(p *Package) []Diagnostic {
	if p.Name == "main" {
		return nil
	}
	prefix := p.Name + ": "
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if len(call.Args) == 1 && p.panicSanctioned(prefix, call.Args[0]) {
				return true
			}
			out = append(out, p.diag(call, "panics",
				"panic must raise a %q-prefixed invariant message or the qctx cancel sentinel; return an error instead", prefix))
			return true
		})
	}
	return out
}

// panicSanctioned recognizes the two legal panic argument shapes.
func (p *Package) panicSanctioned(prefix string, e ast.Expr) bool {
	switch v := unparen(e).(type) {
	case *ast.CompositeLit:
		// The cancellation sentinel: panic(cancelPanic{...}).
		if tv, ok := p.Info.Types[v]; ok {
			if n := namedOf(tv.Type); n != nil && n.Obj().Name() == "cancelPanic" {
				return true
			}
		}
	case *ast.BasicLit:
		if s, err := strconv.Unquote(v.Value); err == nil {
			return strings.HasPrefix(s, prefix)
		}
	case *ast.BinaryExpr:
		// "pkg: bad thing " + detail — the leftmost literal carries the prefix.
		return p.panicSanctioned(prefix, v.X)
	case *ast.CallExpr:
		// fmt.Sprintf("pkg: ...", args...).
		if sel, ok := unparen(v.Fun).(*ast.SelectorExpr); ok && len(v.Args) > 0 {
			if obj := p.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == "fmt" && obj.Name() == "Sprintf" {
				return p.panicSanctioned(prefix, v.Args[0])
			}
		}
	}
	return false
}

// analyzeStrayIO keeps process-stream I/O out of library packages:
// fmt.Print* writes to a global stream the caller cannot redirect, and
// direct os.Stdout/os.Stderr references are the same defect one level
// lower. Main packages (cmd/, examples/) own their streams and are
// exempt.
func analyzeStrayIO(p *Package) []Diagnostic {
	if p.Name == "main" {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SelectorExpr:
				obj := p.Info.Uses[v.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "fmt":
					switch obj.Name() {
					case "Print", "Printf", "Println":
						out = append(out, p.diag(v, "strayio",
							"fmt.%s writes to process stdout; library code takes an io.Writer", obj.Name()))
					}
				case "os":
					if obj.Name() == "Stdout" || obj.Name() == "Stderr" {
						out = append(out, p.diag(v, "strayio",
							"os.%s referenced in library code; accept an io.Writer instead", obj.Name()))
					}
				}
			case *ast.CallExpr:
				if id, ok := unparen(v.Fun).(*ast.Ident); ok && (id.Name == "print" || id.Name == "println") {
					if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
						out = append(out, p.diag(v, "strayio",
							"builtin %s writes to stderr; remove debugging output", id.Name))
					}
				}
			}
			return true
		})
	}
	return out
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
