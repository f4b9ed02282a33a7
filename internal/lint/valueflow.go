package lint

// valueflow.go is the value tier's abstract interpreter: one engine
// walking the SSA-lite form (ssa.go) with a combined environment of
// interval facts (interval.go), length facts, nilness facts
// (nilness.go), trusted-row-id bits, and companion-error facts. The
// three analyzers built on it — boundscheck, nilcheck, errcontract —
// share one fixpoint per function; the per-rule check logic lives in
// boundscheck.go / nilcheck.go / errcontract.go.
//
// The solver is a deterministic reverse-postorder sweep rather than
// dataflow.go's worklist: branch edges carry different facts to the two
// successors (TrueSucc/FalseSucc refinement through refineCond), which
// the shared-out-state worklist cannot express. Widening (ivalWiden)
// applies at loop heads; a sweep cap is the termination backstop (on
// hit, facts reset to ⊤ — precision lost, soundness kept).
//
// Modeled contracts, all documented in DESIGN.md ("Value analysis"):
//
//   - exec row-id trust: in internal/exec, a parameter `r int32` or
//     `sel []int32` carries values already bounds-checked against the
//     batch length by construction (tableFilter.scan builds them from
//     [lo,hi) ⊆ [0, NumRows)); indexing a column vector with a trusted
//     value is accepted. The audit comments in batch.go cite this.
//   - kernel literals: a func literal with parameters (sel []int32,
//     out []int8) in internal/exec is a predicate kernel; the engine
//     seeds len(out) = len(sel) (the triFn contract).
//   - worker-pool literals: literals passed to forEachMorsel /
//     parallelFor / tableFilter.scan get their index parameters
//     seeded from the call-site arguments, plus a snapshot of the
//     caller's facts for captured variables the literal never writes.
//   - receivers are assumed non-nil (method calls on nil receivers
//     panic at the call site, not in the body).
//
// Soundness limits (also in DESIGN.md): interface dynamic types,
// unsafe, reflection, and integer conversions (modeled as identity, so
// a narrowing conversion keeps the wide bounds) are out of scope.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

const (
	execPkgPath = "tpcds/internal/exec"
	planPkgPath = "tpcds/internal/plan"
)

// valuePkgs is the union scope of the three value-tier rules.
var valuePkgs = map[string]bool{
	execPkgPath:    true,
	planPkgPath:    true,
	storagePkgPath: true,
	obsPkgPath:     true,
}

// boundsFiles restricts boundscheck inside internal/exec to the batch
// kernel files named by the contract (obs is checked whole).
var boundsFiles = map[string]bool{
	"batch.go": true, "join.go": true, "agg.go": true, "star.go": true,
}

// Trust bits for the exec row-id contract.
const (
	trustVal   uint8 = 1 << iota // the value itself is a valid row id
	trustElems                   // the slice's elements are valid row ids
)

// compFact ties a call result to its companion error: the result must
// not be consumed while errKey can still be non-nil.
type compFact struct {
	errKey     string
	nonNilOnOK bool // result proven non-nil whenever errKey is nil
}

// valEnv is the abstract state at one program point. All maps are keyed
// by canonKey strings; an absent key is ⊤ (no information).
type valEnv struct {
	iv   map[string]ival     // integer value intervals
	ln   map[string]ival     // slice/map/string length intervals
	nl   map[string]nil3     // nilness
	tr   map[string]uint8    // trust bits
	comp map[string]compFact // companion-error facts
}

func newValEnv() *valEnv {
	return &valEnv{
		iv:   map[string]ival{},
		ln:   map[string]ival{},
		nl:   map[string]nil3{},
		tr:   map[string]uint8{},
		comp: map[string]compFact{},
	}
}

func (e *valEnv) clone() *valEnv {
	c := newValEnv()
	for k, v := range e.iv {
		c.iv[k] = v
	}
	for k, v := range e.ln {
		c.ln[k] = v
	}
	for k, v := range e.nl {
		c.nl[k] = v
	}
	for k, v := range e.tr {
		c.tr[k] = v
	}
	for k, v := range e.comp {
		c.comp[k] = v
	}
	return c
}

// join merges src into e by key intersection: a fact survives only when
// both paths agree (or their hull is still informative). Reports change.
func (e *valEnv) join(src *valEnv, widen bool) bool {
	changed := false
	// Lengths join first: the merged length facts then arbitrate
	// symbolic-vs-constant hulls in the value join below (they hold on
	// both paths, so using them is sound for the merged state).
	for k, a := range e.ln {
		b, ok := src.ln[k]
		if !ok {
			delete(e.ln, k)
			changed = true
			continue
		}
		j := ivalJoin(a, b)
		if widen {
			j = ivalWiden(a, j)
		}
		if !ivalEq(a, j) {
			changed = true
			if j.isTop() {
				delete(e.ln, k)
			} else {
				e.ln[k] = j
			}
		}
	}
	for k, a := range e.iv {
		b, ok := src.iv[k]
		if !ok {
			delete(e.iv, k)
			changed = true
			continue
		}
		j := ivalJoinIn(a, b, e.ln)
		if widen {
			j = ivalWiden(a, j)
		}
		if !ivalEq(a, j) {
			changed = true
			if j.isTop() {
				delete(e.iv, k)
			} else {
				e.iv[k] = j
			}
		}
	}
	for k, a := range e.nl {
		if nilJoin(a, src.nl[k]) != a {
			delete(e.nl, k)
			changed = true
		}
	}
	for k, a := range e.tr {
		if m := a & src.tr[k]; m != a {
			if m == 0 {
				delete(e.tr, k)
			} else {
				e.tr[k] = m
			}
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

// killKey forgets everything about key k: its own facts, facts whose
// symbolic bounds mention k (they refer to k's old value), companion
// entries guarded by k, and field paths rooted at k.
func (e *valEnv) killKey(k string) {
	delete(e.iv, k)
	delete(e.ln, k)
	delete(e.nl, k)
	delete(e.tr, k)
	delete(e.comp, k)
	// Bounds are independent facts: only the side that mentions k's old
	// value is stale (`hi ∈ [r+1, len(rows)]` keeps its upper bound when
	// r++ retires the lower one).
	for _, m := range []map[string]ival{e.iv, e.ln} {
		for key, v := range m {
			changed := false
			if v.lo != nil && v.lo.mentions(k) {
				v.lo = nil
				changed = true
			}
			if v.hi != nil && v.hi.mentions(k) {
				v.hi = nil
				changed = true
			}
			if changed {
				if v.isTop() {
					delete(m, key)
				} else {
					m[key] = v
				}
			}
		}
	}
	for key, c := range e.comp {
		if c.errKey == k {
			delete(e.comp, key)
		}
	}
	prefix := k + "."
	for _, m := range []map[string]ival{e.iv, e.ln} {
		for key := range m {
			if strings.HasPrefix(key, prefix) {
				delete(m, key)
			}
		}
	}
	for key := range e.nl {
		if strings.HasPrefix(key, prefix) {
			delete(e.nl, key)
		}
	}
	for key := range e.tr {
		if strings.HasPrefix(key, prefix) {
			delete(e.tr, key)
		}
	}
	for key := range e.comp {
		if strings.HasPrefix(key, prefix) {
			delete(e.comp, key)
		}
	}
}

// killKeyShrink is killKey for a self-reslice `x = x[a:b]` whose new
// length provably does not exceed the old one. Another key's LOWER
// bound that mentions len(x) with a non-negative coefficient stays
// sound when len(x) only shrinks (the claim weakens); mirrored for
// upper bounds with non-positive coefficients. x's own facts still die.
func (e *valEnv) killKeyShrink(k string) {
	keepLo := func(l *lin) bool {
		if l == nil {
			return true
		}
		for _, t := range l.terms {
			if t.key == k && (!t.isLen || t.coeff < 0) {
				return false
			}
		}
		return true
	}
	keepHi := func(l *lin) bool {
		if l == nil {
			return true
		}
		for _, t := range l.terms {
			if t.key == k && (!t.isLen || t.coeff > 0) {
				return false
			}
		}
		return true
	}
	save := func(m map[string]ival) map[string]ival {
		var kept map[string]ival
		for key, v := range m {
			if key == k || strings.HasPrefix(key, k+".") {
				continue
			}
			if v.lo != nil && v.lo.mentions(k) && !keepLo(v.lo) {
				v.lo = nil
			}
			if v.hi != nil && v.hi.mentions(k) && !keepHi(v.hi) {
				v.hi = nil
			}
			if (v.lo != nil && v.lo.mentions(k)) || (v.hi != nil && v.hi.mentions(k)) {
				if kept == nil {
					kept = map[string]ival{}
				}
				kept[key] = v
			}
		}
		return kept
	}
	keptIv, keptLn := save(e.iv), save(e.ln)
	e.killKey(k)
	for key, v := range keptIv {
		e.iv[key] = v
	}
	for key, v := range keptLn {
		e.ln[key] = v
	}
}

// stripSelf removes bounds that mention key itself: after x = x+1 the
// old-x-relative bound is stale.
func stripSelf(v ival, key string) ival {
	if v.lo != nil && v.lo.mentions(key) {
		v.lo = nil
	}
	if v.hi != nil && v.hi.mentions(key) {
		v.hi = nil
	}
	return v
}

// compactFact is the compaction-counter pattern: a counter w with a
// single `w++` inside a loop over slice s and no other writes is, at
// any use textually before the increment, ≤ len(s)−1 (and ≤ len(s)
// after it) — the shape of every selection-vector compaction loop.
type compactFact struct {
	sliceKey string    // the ranged slice
	incPos   token.Pos // position of the w++ statement
	bodyPos  token.Pos // loop body extent
	bodyEnd  token.Pos
}

// valueResult caches the three rules' findings for one package.
type valueResult struct {
	diags map[string][]Diagnostic
}

// valueAnalysis is the per-package engine state.
type valueAnalysis struct {
	pr  *Program
	p   *Package
	res *valueResult

	// Per-run state.
	seeds    map[*ast.FuncLit]*valEnv // worker-pool literal seed envs
	reported map[string]bool          // rule+position dedup

	// Per-scope state.
	s       *ssaFunc
	fs      funcScope
	compact map[types.Object]compactFact
	errKeys map[string]bool // keys holding error values in this scope
	// Last post-initialization mutation position per root in the
	// current scope (plain reassignments / address escapes vs.
	// element-only stores): the filter for invariant captured-fact
	// seeding of literals.
	scopeMut     map[string]token.Pos
	scopeMutElem map[string]token.Pos
	scopeLoops   []loopSpan // loop spans, for creation-point limits

	recording bool // report pass: record literal seeds, emit findings
	quiet     bool // errfacts mode: never emit
}

// valueAnalyze runs the engine over every function of p once and caches
// the result on the package (all three rules share it).
func valueAnalyze(pr *Program, p *Package) *valueResult {
	if p.valRes != nil && p.valProg == pr {
		return p.valRes
	}
	res := &valueResult{diags: map[string][]Diagnostic{}}
	if valuePkgs[p.Path] {
		va := &valueAnalysis{
			pr:       pr,
			p:        p,
			res:      res,
			seeds:    map[*ast.FuncLit]*valEnv{},
			reported: map[string]bool{},
		}
		for _, f := range p.Files {
			for _, fs := range funcScopes(f) {
				va.runScope(fs)
			}
		}
	}
	p.valRes, p.valProg = res, pr
	return res
}

// runScope solves one function body to fixpoint and replays it once in
// block order, checking every node against its in-state.
func (va *valueAnalysis) runScope(fs funcScope) {
	va.fs = fs
	va.s = newSSA(va.p, fs)
	va.errKeys = map[string]bool{}
	va.compact = map[types.Object]compactFact{}
	va.scopeMut, va.scopeMutElem = scopeMutable(va.p, fs.body)
	va.scopeLoops = loopRanges(fs.body)
	va.findCompactions(fs.body)
	envs := va.solve(va.s, va.boundaryEnv(fs))
	va.recording = true
	for _, blk := range va.s.g.Blocks {
		env := envs[blk]
		if env == nil {
			env = newValEnv()
		} else {
			env = env.clone()
		}
		for _, node := range blk.Nodes {
			va.checkNode(env, node)
			va.transferNode(env, node)
		}
	}
	va.recording = false
}

// maxSweeps bounds the fixpoint; widening makes convergence fast in
// practice, the cap only guards pathological symbolic-bound oscillation.
const maxSweeps = 100

// solve runs the RPO-sweep fixpoint with per-edge refinement and
// widening at loop heads, returning each block's in-state.
func (va *valueAnalysis) solve(s *ssaFunc, boundary *valEnv) map[*Block]*valEnv {
	envs := map[*Block]*valEnv{}
	if s.g.Entry != nil {
		envs[s.g.Entry] = boundary
	}
	for sweep := 0; ; sweep++ {
		if sweep >= maxSweeps {
			// Termination backstop: drop every fact (⊤) and stop.
			for blk := range envs {
				envs[blk] = newValEnv()
			}
			break
		}
		changed := false
		for _, blk := range s.rpo {
			in, ok := envs[blk]
			if !ok {
				continue
			}
			out := in.clone()
			for _, node := range blk.Nodes {
				va.transferNode(out, node)
			}
			for _, succ := range blk.Succs {
				edge := out
				if len(blk.Succs) > 1 || blk.Range != nil {
					edge = out.clone()
					va.refineEdge(edge, blk, succ)
				}
				if cur, ok := envs[succ]; !ok {
					envs[succ] = edge.clone()
					changed = true
				} else if cur.join(edge, s.heads[succ]) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return envs
}

// refineEdge narrows the out-state along one CFG edge: the branch
// condition on TrueSucc/FalseSucc, the range binding on a loop's body
// edge.
func (va *valueAnalysis) refineEdge(env *valEnv, blk, succ *Block) {
	if blk.Cond != nil {
		if succ == blk.TrueSucc {
			va.refineCond(env, blk.Cond, true)
		} else if succ == blk.FalseSucc {
			va.refineCond(env, blk.Cond, false)
		}
		return
	}
	if blk.Range != nil && succ == blk.TrueSucc {
		va.refineRange(env, blk.Range)
	}
}

// refineRange installs the body-edge facts of a range loop: the key
// indexes X, the body only runs when X is non-empty, and ranging over a
// trusted selection vector makes the value variable a trusted row id.
func (va *valueAnalysis) refineRange(env *valEnv, rs *ast.RangeStmt) {
	xKey := va.p.canonKey(rs.X)
	t := va.p.typeOf(rs.X)
	if t == nil {
		return
	}
	keyIdent, _ := unparen(rs.Key).(*ast.Ident)
	var keyK string
	if keyIdent != nil && keyIdent.Name != "_" {
		if obj := objOf(va.p, keyIdent); obj != nil {
			keyK = objKey(obj)
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map:
		if xKey != "" {
			setLoIval(env.ln, xKey, linConst(1))
		}
		if _, isSlice := u.(*types.Slice); isSlice {
			if keyK != "" && xKey != "" {
				env.iv[keyK] = ival{lo: linConst(0), hi: linAddK(linLen(xKey), -1)}
			}
			if valIdent, ok := unparen(rs.Value).(*ast.Ident); ok && valIdent.Name != "_" && xKey != "" && env.tr[xKey]&trustElems != 0 {
				if obj := objOf(va.p, valIdent); obj != nil {
					env.tr[objKey(obj)] |= trustVal
				}
			}
		}
	case *types.Basic:
		if u.Info()&types.IsString != 0 {
			if xKey != "" {
				setLoIval(env.ln, xKey, linConst(1))
			}
			if keyK != "" && xKey != "" {
				env.iv[keyK] = ival{lo: linConst(0), hi: linAddK(linLen(xKey), -1)}
			}
		} else if u.Info()&types.IsInteger != 0 && keyK != "" {
			n := va.eval(env, rs.X)
			env.iv[keyK] = ival{lo: linConst(0), hi: linAddK(n.hi, -1)}
		}
	case *types.Array:
		if keyK != "" {
			env.iv[keyK] = ival{lo: linConst(0), hi: linConst(u.Len() - 1)}
		}
	case *types.Pointer:
		if arr, ok := u.Elem().Underlying().(*types.Array); ok && keyK != "" {
			env.iv[keyK] = ival{lo: linConst(0), hi: linConst(arr.Len() - 1)}
		}
	}
}

// setLoIval raises the lower bound of m[k] when the new bound is
// provably at least as tight (both bounds hold, so either is sound —
// prefer the provably-tighter one, keep the old on incomparable).
func setLoIval(m map[string]ival, k string, l *lin) {
	if l == nil {
		return
	}
	cur := m[k]
	if cur.lo == nil || linLE(cur.lo, l) {
		cur.lo = l
		m[k] = cur
	}
}

func setHiIval(m map[string]ival, k string, l *lin) {
	if l == nil {
		return
	}
	cur := m[k]
	if cur.hi == nil || linLE(l, cur.hi) {
		cur.hi = l
		m[k] = cur
	}
}

// negateCmp returns the comparison holding on the false edge.
func negateCmp(op token.Token) token.Token {
	switch op {
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	case token.LSS:
		return token.GEQ
	case token.GTR:
		return token.LEQ
	case token.LEQ:
		return token.GTR
	case token.GEQ:
		return token.LSS
	}
	return token.ILLEGAL
}

// refineCond narrows env by the branch condition cond evaluating to
// truth.
func (va *valueAnalysis) refineCond(env *valEnv, cond ast.Expr, truth bool) {
	cond = unparen(cond)
	switch v := cond.(type) {
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			va.refineCond(env, v.X, !truth)
		}
	case *ast.Ident:
		// Boolean variable: no fact tracked.
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			if truth {
				va.refineCond(env, v.X, true)
				va.refineCond(env, v.Y, true)
			}
		case token.LOR:
			if !truth {
				va.refineCond(env, v.X, false)
				va.refineCond(env, v.Y, false)
			}
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			op := v.Op
			if !truth {
				op = negateCmp(op)
			}
			va.refineCmp(env, op, v.X, v.Y)
		}
	}
}

// refineCmp narrows env by `x OP y` holding.
func (va *valueAnalysis) refineCmp(env *valEnv, op token.Token, x, y ast.Expr) {
	// Nil comparisons drive the nilness lattice and promote companion
	// results once their guard error is known nil.
	if isNilIdent(va.p, y) || isNilIdent(va.p, x) {
		other := x
		if isNilIdent(va.p, x) {
			other = y
		}
		key := va.p.canonKey(other)
		if key == "" {
			return
		}
		switch op {
		case token.EQL:
			env.nl[key] = nlNil
			for resKey, c := range env.comp {
				if c.errKey == key && c.nonNilOnOK {
					env.nl[resKey] = nlNonNil
				}
			}
		case token.NEQ:
			env.nl[key] = nlNonNil
		}
		return
	}
	// len(s) OP e refines the length interval of s. The other operand
	// still gets its numeric refinement below — `i < len(s)` teaches
	// both len(s) ≥ i+1 and i ≤ len(s)−1.
	if lx, key := va.lenArgKey(x); lx {
		va.refineLenMap(env, key, op, y)
	}
	if ly, key := va.lenArgKey(y); ly {
		va.refineLenMap(env, key, swapCmp(op), x)
	}
	// A length alias constrains the length itself: after n := len(s),
	// `r < n` also teaches len(s) ≥ r+1, which lets the interval hull
	// keep symbolic bounds that need len(s) ≥ 1 (a widened loop body
	// joining its first, constant-bounded sweep).
	if key := va.aliasLenKey(env, x); key != "" {
		va.refineLenMap(env, key, op, y)
	}
	if key := va.aliasLenKey(env, y); key != "" {
		va.refineLenMap(env, key, swapCmp(op), x)
	}
	// Numeric comparison on canonical keys.
	if kx := va.intKeyOf(x); kx != "" {
		va.refineIvalMap(env, env.iv, kx, op, y)
	}
	if ky := va.intKeyOf(y); ky != "" {
		va.refineIvalMap(env, env.iv, ky, swapCmp(op), x)
	}
}

// aliasLenKey returns the container key s when e's current interval
// pins it exactly to len(s) — `n := len(s)` makes n a length alias.
func (va *valueAnalysis) aliasLenKey(env *valEnv, e ast.Expr) string {
	k := va.intKeyOf(e)
	if k == "" {
		return ""
	}
	v, ok := env.iv[k]
	if !ok || v.lo == nil || !linEq(v.lo, v.hi) {
		return ""
	}
	if len(v.lo.terms) == 1 && v.lo.k == 0 && v.lo.terms[0].isLen && v.lo.terms[0].coeff == 1 {
		return v.lo.terms[0].key
	}
	return ""
}

// swapCmp mirrors the comparison: x OP y ⇔ y swap(OP) x.
func swapCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.GTR:
		return token.LSS
	case token.LEQ:
		return token.GEQ
	case token.GEQ:
		return token.LEQ
	}
	return op // EQL, NEQ symmetric
}

// lenArgKey matches len(x) with a canonical x of slice/map/string type.
func (va *valueAnalysis) lenArgKey(e ast.Expr) (bool, string) {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false, ""
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "len" {
		return false, ""
	}
	if _, isBuiltin := va.p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false, ""
	}
	key := va.p.canonKey(call.Args[0])
	if key == "" {
		return false, ""
	}
	switch va.p.typeOf(call.Args[0]).Underlying().(type) {
	case *types.Slice, *types.Map:
		return true, key
	case *types.Basic:
		return true, key // string
	}
	return false, ""
}

// intKeyOf returns the canonical key of an integer-typed addressable
// expression, "" otherwise.
func (va *valueAnalysis) intKeyOf(e ast.Expr) string {
	t := va.p.typeOf(e)
	if t == nil {
		return ""
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return ""
	}
	return va.p.canonKey(e)
}

// refineLenMap narrows the length interval of key by `len(key) OP rhs`.
// Lengths carry an implicit lower bound of 0, which turns the idiomatic
// emptiness guard `len(s) == 0` into len(s) ≥ 1 on its false edge.
func (va *valueAnalysis) refineLenMap(env *valEnv, key string, op token.Token, rhs ast.Expr) {
	if op == token.NEQ {
		if k, ok := constInt(va.p, rhs); ok && k == 0 {
			if cur := env.ln[key]; cur.lo == nil {
				cur.lo = linConst(0)
				env.ln[key] = cur
			}
		}
	}
	va.refineIvalMap(env, env.ln, key, op, rhs)
}

// refineIvalMap narrows m[key] by `key OP rhs`. On the branch edge both
// the old bound and the refinement hold, so when the two are
// incomparable the refinement wins — the guard is the locally relevant
// fact (`len(pk) == 1` must beat a symbolic alias it cannot be compared
// against).
func (va *valueAnalysis) refineIvalMap(env *valEnv, m map[string]ival, key string, op token.Token, rhs ast.Expr) {
	r := va.eval(env, rhs)
	refineLo := func(l *lin) {
		if l == nil {
			return
		}
		cur := m[key]
		if cur.lo == nil || !linLE(l, cur.lo) {
			cur.lo = l
			m[key] = cur
		}
	}
	refineHi := func(l *lin) {
		if l == nil {
			return
		}
		cur := m[key]
		if cur.hi == nil || !linLE(cur.hi, l) {
			cur.hi = l
			m[key] = cur
		}
	}
	switch op {
	case token.LSS:
		refineHi(linAddK(r.hi, -1))
	case token.LEQ:
		refineHi(r.hi)
	case token.GTR:
		refineLo(linAddK(r.lo, 1))
	case token.GEQ:
		refineLo(r.lo)
	case token.EQL:
		refineLo(r.lo)
		refineHi(r.hi)
	case token.NEQ:
		// Endpoint trimming: x ≠ k with a bound already at k moves it.
		if k, ok := constInt(va.p, rhs); ok {
			cur := m[key]
			if cur.lo != nil {
				if c, isC := cur.lo.isConst(); isC && c == k {
					cur.lo = linConst(k + 1)
					m[key] = cur
				}
			}
			if cur.hi != nil {
				if c, isC := cur.hi.isConst(); isC && c == k {
					cur.hi = linConst(k - 1)
					m[key] = cur
				}
			}
		}
	}
}

// constInt extracts a compile-time integer constant.
func constInt(p *Package, e ast.Expr) (int64, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	c := constant.ToInt(tv.Value)
	if c.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(c)
}

// eval computes the interval of an integer expression under env.
func (va *valueAnalysis) eval(env *valEnv, e ast.Expr) ival {
	if k, ok := constInt(va.p, e); ok {
		return ivalConst(k)
	}
	e = unparen(e)
	switch v := e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr:
		key := va.p.canonKey(e)
		if key == "" {
			return ivalTop()
		}
		if id, ok := v.(*ast.Ident); ok {
			if obj := objOf(va.p, id); obj != nil {
				if cf, ok := va.compact[obj]; ok {
					return va.compactIval(cf, e.Pos())
				}
			}
		}
		if iv, ok := env.iv[key]; ok {
			return iv
		}
		// Relational default: the variable equals itself, which lets
		// `i < len(s)` refinements and substitution close the proof.
		if va.intKeyOf(e) != "" {
			return ivalExact(linVar(key))
		}
		return ivalTop()
	case *ast.BinaryExpr:
		return va.evalBinary(env, v)
	case *ast.UnaryExpr:
		switch v.Op {
		case token.SUB:
			return ivalNeg(va.eval(env, v.X))
		case token.ADD:
			return va.eval(env, v.X)
		}
	case *ast.CallExpr:
		return va.evalCall(env, v)
	}
	return ivalTop()
}

// compactIval positions a compaction counter: before its increment the
// counter has not yet counted the current element.
func (va *valueAnalysis) compactIval(cf compactFact, pos token.Pos) ival {
	if pos >= cf.bodyPos && pos <= cf.bodyEnd && pos < cf.incPos {
		return ival{lo: linConst(0), hi: linAddK(linLen(cf.sliceKey), -1)}
	}
	return ival{lo: linConst(0), hi: linLen(cf.sliceKey)}
}

func (va *valueAnalysis) evalBinary(env *valEnv, v *ast.BinaryExpr) ival {
	t := va.p.typeOf(v)
	if t == nil {
		return ivalTop()
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return ivalTop()
	}
	x := va.eval(env, v.X)
	y := va.eval(env, v.Y)
	switch v.Op {
	case token.ADD:
		return ivalAdd(x, y)
	case token.SUB:
		return ivalSub(x, y)
	case token.MUL:
		if k, ok := constInt(va.p, v.Y); ok {
			return ivalScale(x, k)
		}
		if k, ok := constInt(va.p, v.X); ok {
			return ivalScale(y, k)
		}
	case token.AND:
		// x & c for a constant c ≥ 0 lands in [0, c] regardless of x.
		if k, ok := constInt(va.p, v.Y); ok && k >= 0 {
			return ival{lo: linConst(0), hi: linConst(k)}
		}
		if k, ok := constInt(va.p, v.X); ok && k >= 0 {
			return ival{lo: linConst(0), hi: linConst(k)}
		}
	case token.REM:
		if k, ok := constInt(va.p, v.Y); ok && k > 0 {
			if va.proveNonNeg(env, x.lo, proveDepth) {
				return ival{lo: linConst(0), hi: linConst(k - 1)}
			}
			return ival{lo: linConst(-(k - 1)), hi: linConst(k - 1)}
		}
		if y.lo != nil && linLE(linConst(1), y.lo) && va.proveNonNeg(env, x.lo, proveDepth) {
			return ival{lo: linConst(0), hi: linAddK(y.hi, -1)}
		}
	case token.QUO:
		pos := y.lo != nil && linLE(linConst(1), y.lo)
		if k, ok := constInt(va.p, v.Y); ok && k > 0 {
			pos = true
		}
		if pos && va.proveNonNeg(env, x.lo, proveDepth) {
			return ival{lo: linConst(0), hi: x.hi}
		}
	case token.SHR:
		if va.proveNonNeg(env, x.lo, proveDepth) {
			return ival{lo: linConst(0), hi: x.hi}
		}
	}
	return ivalTop()
}

func (va *valueAnalysis) evalCall(env *valEnv, call *ast.CallExpr) ival {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := va.p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len":
				return va.lengthOf(env, call.Args[0])
			case "cap":
				// cap(x) ≥ len(x) always.
				if l := va.lengthOf(env, call.Args[0]); l.lo != nil {
					return ival{lo: l.lo}
				}
				return ival{lo: linConst(0)}
			case "min":
				return va.foldMinMax(env, call.Args, true)
			case "max":
				return va.foldMinMax(env, call.Args, false)
			}
			return ivalTop()
		}
	}
	// Engine sizing accessors are clamped positive by construction
	// (morselSize/batchSize fall back to compile-time defaults, workers
	// to plan.Parallelism which floors at NumCPU ≥ 1) — the modeled
	// contract that discharges morsel-count divisions.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && va.p.Path == execPkgPath && len(call.Args) == 0 {
		switch sel.Sel.Name {
		case "morselSize", "batchSize", "workers":
			return ival{lo: linConst(1)}
		}
	}
	// Integer conversion: modeled as identity (documented: narrowing
	// conversions keep the wide bounds — unsound for actual overflow,
	// which none of the checked shapes rely on).
	if tv, ok := va.p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return va.eval(env, call.Args[0])
	}
	// sort.Search(n, f) returns a value in [0, n].
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && len(call.Args) == 2 {
		if obj := va.p.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "sort" && obj.Name() == "Search" {
			n := va.eval(env, call.Args[0])
			return ival{lo: linConst(0), hi: n.hi}
		}
	}
	return ivalTop()
}

// lengthOf computes the length interval of a slice/map/string/array
// expression: constant for arrays, the exact symbolic len(key) for
// addressable expressions (the environment's tracked interval is
// consulted during proofs via substitution), ⊤ otherwise.
func (va *valueAnalysis) lengthOf(env *valEnv, e ast.Expr) ival {
	e = unparen(e)
	t := va.p.typeOf(e)
	if t != nil {
		switch u := t.Underlying().(type) {
		case *types.Array:
			return ivalConst(u.Len())
		case *types.Pointer:
			if arr, ok := u.Elem().Underlying().(*types.Array); ok {
				return ivalConst(arr.Len())
			}
		}
	}
	if k, ok := constInt(va.p, e); ok {
		_ = k // len of a constant expression is handled by constInt on the len call itself
	}
	if tv, ok := va.p.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return ivalConst(int64(len(constant.StringVal(tv.Value))))
	}
	key := va.p.canonKey(e)
	if key == "" {
		return ivalTop()
	}
	if l, ok := env.ln[key]; ok && l.lo != nil && l.hi != nil && linEq(l.lo, l.hi) {
		// An exact tracked length (make/copy/reslice) beats the
		// relational form: it relates this slice to others.
		return l
	}
	// Relational form: len(key) is symbolically itself; a partial
	// tracked interval stays reachable through proveNonNeg's len-term
	// substitution, so nothing is lost by not returning it here.
	return ivalExact(linLen(key))
}

// evalPreferExact is eval with a fallback to the exact symbolic form
// when the interval is not already exact — `buf[:end-base]` records the
// length end−base rather than an interval hull that has lost the
// cancelling base terms.
func (va *valueAnalysis) evalPreferExact(env *valEnv, e ast.Expr) ival {
	v := va.eval(env, e)
	if v.lo != nil && linEq(v.lo, v.hi) {
		return v
	}
	if ex := va.evalExact(e); ex != nil {
		return ivalExact(ex)
	}
	return v
}

// proveDepth bounds the substitution chain of proveNonNeg.
const proveDepth = 4

// proveNonNeg proves l ≥ 0 by direct inspection or by substituting one
// term at a time through the environment (sign-aware: a positive
// coefficient substitutes the term's lower bound, a negative one its
// upper bound — both directions under-approximate l).
// foldMinMax evaluates a min (smaller=true) or max builtin call. The
// clamped side (min's hi, max's lo) takes any argument's exact symbolic
// form — min(x, y) ≤ x whatever x's interval is — preferring the first
// argument on incomparability, so `min(base+batch, hi)` keeps the
// base+batch form that cancels against base at the use site. The open
// side is a candidate validated against EVERY argument: min(a,b) ≥ X
// needs a ≥ X and b ≥ X, which relational candidates (a refined
// `hi ≥ base+1`) can pass where the plain interval fold gives up.
func (va *valueAnalysis) foldMinMax(env *valEnv, args []ast.Expr, smaller bool) ival {
	type arm struct {
		ex *lin
		v  ival
	}
	arms := make([]arm, 0, len(args))
	for _, a := range args {
		arms = append(arms, arm{ex: va.evalExact(a), v: va.eval(env, a)})
	}
	openOf := func(a arm) (*lin, *lin) { // (exact, interval) of the open side
		if smaller {
			return a.ex, a.v.lo
		}
		return a.ex, a.v.hi
	}
	// Clamped side: every argument's value bounds the result; keep the
	// provably tightest, first argument wins incomparability.
	var clamp *lin
	for _, a := range arms {
		iv := a.v.hi
		if !smaller {
			iv = a.v.lo
		}
		for _, c := range []*lin{a.ex, iv} {
			if c == nil {
				continue
			}
			if clamp == nil {
				clamp = c
				continue
			}
			tighter := linSub(clamp, c)
			if !smaller {
				tighter = linSub(c, clamp)
			}
			if va.proveNonNeg(env, tighter, proveDepth) {
				clamp = c
			}
		}
	}
	// Open side: collect candidates from each argument (its interval
	// bound, its exact form, and a one-step substitution of a
	// single-term exact form), keep the tightest one that every
	// argument provably dominates.
	var cands []*lin
	for _, a := range arms {
		ex, iv := openOf(a)
		if iv != nil {
			cands = append(cands, iv)
		}
		if ex != nil {
			cands = append(cands, ex)
			if len(ex.terms) == 1 && ex.k == 0 && ex.terms[0].coeff == 1 {
				t := ex.terms[0]
				m := env.iv
				if t.isLen {
					m = env.ln
				}
				if e, ok := m[t.key]; ok {
					if b := openSideOf(e, smaller); b != nil {
						cands = append(cands, b)
					}
				}
			}
		}
	}
	dominates := func(a arm, c *lin) bool {
		ex, iv := openOf(a)
		d := func(v *lin) *lin {
			if smaller {
				return linSub(v, c) // arm ≥ c
			}
			return linSub(c, v) // arm ≤ c
		}
		if ex != nil && va.proveNonNeg(env, d(ex), proveDepth) {
			return true
		}
		return iv != nil && va.proveNonNeg(env, d(iv), proveDepth)
	}
	var open *lin
	for _, c := range cands {
		ok := true
		for _, a := range arms {
			if !dominates(a, c) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if open == nil {
			open = c
			continue
		}
		tighter := linSub(c, open) // min: a larger lo is tighter
		if !smaller {
			tighter = linSub(open, c)
		}
		if va.proveNonNeg(env, tighter, proveDepth) {
			open = c
		}
	}
	if smaller {
		return ival{lo: open, hi: clamp}
	}
	return ival{lo: clamp, hi: open}
}

// openSideOf picks the min-fold's lo (smaller) or max-fold's hi.
func openSideOf(v ival, smaller bool) *lin {
	if smaller {
		return v.lo
	}
	return v.hi
}

// pickBound folds one side of a min (smaller=true) or max fold: the
// provably extreme of the two bounds, nil when either is unknown or the
// pair is incomparable under env.
func (va *valueAnalysis) pickBound(env *valEnv, a, b *lin, smaller bool) *lin {
	if a == nil || b == nil {
		return nil
	}
	aLEb := va.proveNonNeg(env, linSub(b, a), proveDepth)
	bLEa := va.proveNonNeg(env, linSub(a, b), proveDepth)
	switch {
	case aLEb && smaller, bLEa && !smaller:
		return a
	case bLEa && smaller, aLEb && !smaller:
		return b
	}
	return nil
}

// evalExact returns e as an exact symbolic linear form — identifiers
// stay themselves instead of dissolving into their interval bounds, so
// `end − base` keeps the base terms that cancel. nil when e has any
// non-linear part. The prover then substitutes env facts per term,
// which is where `end ≤ base+batch` style bounds re-enter.
func (va *valueAnalysis) evalExact(e ast.Expr) *lin {
	if k, ok := constInt(va.p, e); ok {
		return linConst(k)
	}
	e = unparen(e)
	switch v := e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr:
		if k := va.intKeyOf(e); k != "" {
			return linVar(k)
		}
	case *ast.BinaryExpr:
		x, y := va.evalExact(v.X), va.evalExact(v.Y)
		if x == nil || y == nil {
			return nil
		}
		switch v.Op {
		case token.ADD:
			return linAdd(x, y)
		case token.SUB:
			return linSub(x, y)
		case token.MUL:
			if k, ok := x.isConst(); ok {
				return linScale(y, k)
			}
			if k, ok := y.isConst(); ok {
				return linScale(x, k)
			}
		}
	case *ast.UnaryExpr:
		if v.Op == token.SUB {
			return linNeg(va.evalExact(v.X))
		}
	case *ast.CallExpr:
		if id, ok := unparen(v.Fun).(*ast.Ident); ok && id.Name == "len" && len(v.Args) == 1 {
			if _, isBuiltin := va.p.Info.Uses[id].(*types.Builtin); isBuiltin {
				if k := va.p.canonKey(v.Args[0]); k != "" {
					return linLen(k)
				}
			}
		}
	}
	return nil
}

func (va *valueAnalysis) proveNonNeg(env *valEnv, l *lin, depth int) bool {
	if l == nil {
		return false
	}
	if linNonNeg(l) {
		return true
	}
	if depth == 0 {
		return false
	}
	if _, ok := l.isConst(); ok {
		return false // constant and not ≥ 0
	}
	for i, t := range l.terms {
		var sub *lin
		if t.isLen {
			lv := env.ln[t.key]
			if t.coeff > 0 {
				sub = lv.lo
				if sub == nil {
					sub = linConst(0) // lengths are never negative
				}
			} else {
				sub = lv.hi
			}
		} else {
			iv := env.iv[t.key]
			if t.coeff > 0 {
				sub = iv.lo
			} else {
				sub = iv.hi
			}
		}
		if sub == nil || sub.mentions(t.key) {
			continue
		}
		rest := &lin{k: l.k}
		for j, o := range l.terms {
			if j != i {
				rest.terms = append(rest.terms, o)
			}
		}
		cand := linAdd(rest.norm(), linScale(sub, t.coeff))
		if va.proveNonNeg(env, cand, depth-1) {
			return true
		}
	}
	return false
}

// trusted reports whether e carries a trusted row id: a trusted
// variable, a conversion of one, or a load from a trusted selection
// vector.
func (va *valueAnalysis) trusted(env *valEnv, e ast.Expr) bool {
	e = unparen(e)
	switch v := e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		key := va.p.canonKey(e)
		return key != "" && env.tr[key]&trustVal != 0
	case *ast.CallExpr:
		if tv, ok := va.p.Info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			if t := va.p.typeOf(v); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					return va.trusted(env, v.Args[0])
				}
			}
		}
	case *ast.IndexExpr:
		baseKey := va.p.canonKey(v.X)
		return baseKey != "" && env.tr[baseKey]&trustElems != 0
	}
	return false
}

// ---- transfer functions ----

// transferNode pushes env through one CFG node: literal seeds first
// (they want the pre-call facts — the arguments as the caller computed
// them), then call effects (arguments may be mutated), then binding
// facts. inspectShallow prunes at literal boundaries without visiting
// the literal node itself, so seeds need their own walk.
func (va *valueAnalysis) transferNode(env *valEnv, node ast.Node) {
	if va.recording {
		ast.Inspect(node, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				va.recordLitSeed(env, node, lit)
				return false // nested literals seed from their enclosing scope's replay
			}
			return true
		})
	}
	inspectShallow(node, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			va.applyCallEnv(env, call)
		}
		return true
	})
	switch v := node.(type) {
	case *ast.AssignStmt:
		va.transferAssign(env, v)
	case *ast.IncDecStmt:
		va.transferIncDec(env, v)
	case *ast.DeclStmt:
		va.transferDecl(env, v)
	case *ast.RangeStmt:
		// The loop variables are bound on the body edge (refineRange);
		// at the head they are unknown.
		for _, e := range []ast.Expr{v.Key, v.Value} {
			if id, ok := unparen(e).(*ast.Ident); ok && id.Name != "_" {
				if obj := objOf(va.p, id); obj != nil {
					env.killKey(objKey(obj))
				}
			}
		}
	}
}

func (va *valueAnalysis) transferIncDec(env *valEnv, v *ast.IncDecStmt) {
	key := va.p.canonKey(v.X)
	if key == "" {
		return
	}
	delta := int64(1)
	if v.Tok == token.DEC {
		delta = -1
	}
	nv := ivalAddK(va.eval(env, v.X), delta)
	env.killKey(key)
	nv = stripSelf(nv, key)
	if !nv.isTop() {
		env.iv[key] = nv
	}
}

func (va *valueAnalysis) transferDecl(env *valEnv, v *ast.DeclStmt) {
	gd, ok := v.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 0 {
			for _, nm := range vs.Names {
				if nm.Name == "_" {
					continue
				}
				obj := objOf(va.p, nm)
				if obj == nil {
					continue
				}
				key := objKey(obj)
				env.killKey(key)
				va.zeroValueFacts(env, key, obj.Type())
			}
			continue
		}
		if len(vs.Values) == len(vs.Names) {
			for i, nm := range vs.Names {
				va.assignOne(env, nm, vs.Values[i])
			}
		}
	}
}

// zeroValueFacts installs the facts of a zero-valued variable.
func (va *valueAnalysis) zeroValueFacts(env *valEnv, key string, t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsInteger != 0 {
			env.iv[key] = ivalConst(0)
		}
		if u.Info()&types.IsString != 0 {
			env.ln[key] = ivalConst(0)
		}
	default:
		if nilable(t) {
			env.nl[key] = nlNil
			if _, isSlice := t.Underlying().(*types.Slice); isSlice {
				env.ln[key] = ivalConst(0)
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				env.ln[key] = ivalConst(0)
			}
		}
	}
}

func (va *valueAnalysis) transferAssign(env *valEnv, as *ast.AssignStmt) {
	// Multi-assign from a single call / map read / type assertion.
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		va.transferMulti(env, as)
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		for i := range as.Lhs {
			va.assignOne(env, as.Lhs[i], as.Rhs[i])
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		lhs := as.Lhs[0]
		key := va.p.canonKey(lhs)
		if key == "" {
			va.killLHS(env, lhs)
			return
		}
		x := va.eval(env, lhs)
		y := va.eval(env, as.Rhs[0])
		var nv ival
		if as.Tok == token.ADD_ASSIGN {
			nv = ivalAdd(x, y)
		} else {
			nv = ivalSub(x, y)
		}
		env.killKey(key)
		nv = stripSelf(nv, key)
		if !nv.isTop() && va.intKeyOf(lhs) != "" {
			env.iv[key] = nv
		}
	default:
		for _, lhs := range as.Lhs {
			va.killLHS(env, lhs)
		}
	}
}

// assignOne transfers `lhs = rhs` for one pair: compute the rhs facts
// under the pre-state, kill the target, install.
func (va *valueAnalysis) assignOne(env *valEnv, lhs, rhs ast.Expr) {
	lhs = unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	key := va.p.canonKey(lhs)
	if key == "" || !isPlainTarget(lhs) {
		va.killLHS(env, lhs)
		return
	}
	t := va.p.typeOf(lhs)

	// Facts under the PRE-state.
	var ivFact ival
	hasIv := false
	if t != nil {
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			ivFact = va.eval(env, rhs)
			hasIv = true
		}
	}
	lnFact, hasLn := va.lengthFact(env, rhs)
	nlFact := va.nilFact(env, rhs)
	trFact := va.trustFact(env, rhs)
	compFactV, hasComp := compFact{}, false
	if rid, ok := unparen(rhs).(*ast.Ident); ok {
		if rkey := va.p.canonKey(rid); rkey != "" {
			if c, ok := env.comp[rkey]; ok {
				compFactV, hasComp = c, true
			}
		}
	}
	// Single-result call facts from the callee summary.
	if call, ok := unparen(rhs).(*ast.CallExpr); ok {
		va.singleCallFacts(env, key, t, call, &nlFact)
	}

	// A self-reslice that provably does not grow the slice keeps other
	// keys' sound len(key) bounds: `sel = sel[:w]` inside a compaction
	// loop must not destroy the entry guard's len(buf) ≥ len(sel).
	shrink := false
	if se, ok := unparen(rhs).(*ast.SliceExpr); ok && va.p.canonKey(se.X) == key {
		if se.High == nil {
			shrink = true // x[a:] never grows the length
		} else {
			cand := linLen(key)
			h := va.eval(env, se.High)
			if h.hi != nil && va.proveNonNeg(env, linSub(cand, h.hi), proveDepth) {
				shrink = true
			} else if ex := va.evalExact(se.High); ex != nil && va.proveNonNeg(env, linSub(cand, ex), proveDepth) {
				shrink = true
			}
		}
	}
	if shrink {
		env.killKeyShrink(key)
	} else {
		env.killKey(key)
	}
	if hasIv {
		ivFact = stripSelf(ivFact, key)
		if !ivFact.isTop() {
			env.iv[key] = ivFact
		}
	}
	if hasLn {
		lnFact = stripSelf(lnFact, key)
		if !lnFact.isTop() {
			env.ln[key] = lnFact
		}
	}
	if nlFact != nlUnknown {
		env.nl[key] = nlFact
	}
	if trFact != 0 {
		env.tr[key] = trFact
	}
	if hasComp {
		env.comp[key] = compFactV
	}
	if t != nil && isErrorType(t) {
		va.errKeys[key] = true
	}
}

// isPlainTarget reports whether lhs is a variable or field path (a
// strong-update target), not an element store.
func isPlainTarget(lhs ast.Expr) bool {
	switch v := unparen(lhs).(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return isPlainTarget(v.X)
	case *ast.StarExpr:
		return isPlainTarget(v.X)
	}
	return false
}

// killLHS invalidates a non-plain store target: an element write drops
// the container's length/trust facts, anything else drops the rooted
// path.
func (va *valueAnalysis) killLHS(env *valEnv, lhs ast.Expr) {
	switch v := unparen(lhs).(type) {
	case *ast.IndexExpr:
		baseKey := va.p.canonKey(v.X)
		if baseKey == "" {
			return
		}
		t := va.p.typeOf(v.X)
		if t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				// m[k] = v may grow the map.
				delete(env.ln, baseKey)
				return
			}
		}
		// s[i] = v: length unchanged, element trust lost.
		if env.tr[baseKey]&trustElems != 0 {
			env.tr[baseKey] &^= trustElems
			if env.tr[baseKey] == 0 {
				delete(env.tr, baseKey)
			}
		}
	default:
		if key := va.p.canonKey(lhs); key != "" {
			env.killKey(key)
		}
	}
}

// lengthFact computes the length interval an assignment's rhs implies.
func (va *valueAnalysis) lengthFact(env *valEnv, rhs ast.Expr) (ival, bool) {
	rhs = unparen(rhs)
	t := va.p.typeOf(rhs)
	if t == nil {
		return ivalTop(), false
	}
	isLenCarrier := false
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		isLenCarrier = true
	case *types.Basic:
		isLenCarrier = t.Underlying().(*types.Basic).Info()&types.IsString != 0
	}
	if !isLenCarrier {
		return ivalTop(), false
	}
	switch v := rhs.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return va.lengthOf(env, rhs), true
	case *ast.CallExpr:
		if id, ok := unparen(v.Fun).(*ast.Ident); ok {
			if _, isBuiltin := va.p.Info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "make":
					if len(v.Args) >= 2 {
						sz := va.eval(env, v.Args[1])
						if !linEq(sz.lo, sz.hi) {
							// The size expression itself is a better
							// (exact) bound than a widened interval.
							if ex := va.evalExact(v.Args[1]); ex != nil {
								sz = ivalExact(ex)
							}
						}
						return sz, true
					}
					return ivalConst(0), true // make(map[K]V) / make([]T) invalid; maps start empty
				case "append":
					base := va.lengthOf(env, v.Args[0])
					if v.Ellipsis != token.NoPos {
						return ival{lo: base.lo}, true
					}
					return ivalAddK(base, int64(len(v.Args)-1)), true
				}
			}
		}
	case *ast.CompositeLit:
		switch t.Underlying().(type) {
		case *types.Slice:
			for _, el := range v.Elts {
				if _, ok := el.(*ast.KeyValueExpr); ok {
					return ivalTop(), false // sparse literal
				}
			}
			return ivalConst(int64(len(v.Elts))), true
		case *types.Map:
			return ival{lo: linConst(0), hi: linConst(int64(len(v.Elts)))}, true
		}
	case *ast.SliceExpr:
		baseLen := va.lengthOf(env, v.X)
		var lo, hi ival
		if v.Low != nil {
			lo = va.evalPreferExact(env, v.Low)
		} else {
			lo = ivalConst(0)
		}
		if v.High != nil {
			hi = va.evalPreferExact(env, v.High)
		} else {
			hi = baseLen
		}
		return ivalSub(hi, lo), true
	}
	return ivalTop(), false
}

// nilFact computes the nilness of rhs under env.
func (va *valueAnalysis) nilFact(env *valEnv, rhs ast.Expr) nil3 {
	rhs = unparen(rhs)
	if n := exprNilness(va.p, rhs); n != nlUnknown {
		return n
	}
	switch v := rhs.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if key := va.p.canonKey(rhs); key != "" {
			return env.nl[key]
		}
	case *ast.CallExpr:
		if id, ok := unparen(v.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := va.p.Info.Uses[id].(*types.Builtin); isBuiltin {
				if len(v.Args) > 1 {
					return nlNonNil // appended at least one element
				}
				return va.nilFact(env, v.Args[0])
			}
		}
	}
	return nlUnknown
}

// trustFact propagates row-id trust through copies and loads.
func (va *valueAnalysis) trustFact(env *valEnv, rhs ast.Expr) uint8 {
	rhs = unparen(rhs)
	switch v := rhs.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if key := va.p.canonKey(rhs); key != "" {
			return env.tr[key]
		}
	case *ast.CallExpr:
		if tv, ok := va.p.Info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return va.trustFact(env, v.Args[0]) & trustVal
		}
	case *ast.IndexExpr:
		if baseKey := va.p.canonKey(v.X); baseKey != "" && env.tr[baseKey]&trustElems != 0 {
			return trustVal
		}
	case *ast.SliceExpr:
		if baseKey := va.p.canonKey(v.X); baseKey != "" {
			return env.tr[baseKey] & trustElems
		}
	}
	return 0
}

// singleCallFacts refines nl for `x := f()` with a single result.
func (va *valueAnalysis) singleCallFacts(env *valEnv, key string, t types.Type, call *ast.CallExpr, nl *nil3) {
	n := va.pr.calleeNode(va.p, call)
	if n == nil || n.sum == nil {
		return
	}
	if t != nil && isErrorType(t) {
		if n.sum.ReturnsNilErrOn&1 != 0 {
			*nl = nlNil
		}
		return
	}
	if t != nil && nilable(t) && n.sum.NonNilResultWhenNilErr&1 != 0 {
		// Single-result function: "when err is nil" is vacuous, the
		// result is non-nil on every return.
		*nl = nlNonNil
	}
}

// transferMulti handles `a, b, ... := rhs` for call / map-read / type-
// assertion right-hand sides, recording companion-error facts.
func (va *valueAnalysis) transferMulti(env *valEnv, as *ast.AssignStmt) {
	rhs := unparen(as.Rhs[0])
	keys := make([]string, len(as.Lhs))
	typesOf := make([]types.Type, len(as.Lhs))
	for i, lhs := range as.Lhs {
		if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			if obj := objOf(va.p, id); obj != nil {
				keys[i] = objKey(obj)
				typesOf[i] = obj.Type()
			}
		} else if va.p.canonKey(lhs) != "" && isPlainTarget(lhs) {
			keys[i] = va.p.canonKey(lhs)
			typesOf[i] = va.p.typeOf(lhs)
		} else {
			va.killLHS(env, lhs)
		}
	}
	for _, k := range keys {
		if k != "" {
			env.killKey(k)
		}
	}
	call, isCall := rhs.(*ast.CallExpr)
	if !isCall {
		// v, ok := m[k] / x, ok := y.(T) / v, ok := <-ch: no facts
		// beyond the kill.
		return
	}
	var sum *Summary
	if n := va.pr.calleeNode(va.p, call); n != nil {
		sum = n.sum
	}
	errIdx := -1
	for i, t := range typesOf {
		if t != nil && isErrorType(t) {
			errIdx = i
		}
	}
	// The error result (by position in the callee's tuple, not the lhs
	// list — they coincide for full assignments, which is all Go allows).
	var errKey string
	if errIdx >= 0 && keys[errIdx] != "" {
		errKey = keys[errIdx]
		va.errKeys[errKey] = true
		if sum != nil && sum.ReturnsNilErrOn&(1<<uint(errIdx)) != 0 {
			env.nl[errKey] = nlNil
		}
	}
	for i, k := range keys {
		if k == "" || i == errIdx {
			continue
		}
		t := typesOf[i]
		if t == nil || !nilable(t) {
			continue
		}
		nonNilOnOK := sum != nil && sum.NonNilResultWhenNilErr&(1<<uint(i)) != 0
		if errKey != "" {
			env.comp[k] = compFact{errKey: errKey, nonNilOnOK: nonNilOnOK}
		} else if errIdx < 0 && nonNilOnOK {
			env.nl[k] = nlNonNil // no error result: non-nil unconditionally
		}
	}
}

// applyCallEnv invalidates facts a call may clobber: pointer-like
// arguments of mutating callees, everything pointer-like for unknown
// ones.
func (va *valueAnalysis) applyCallEnv(env *valEnv, call *ast.CallExpr) {
	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := va.p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "delete":
				if k := va.p.canonKey(call.Args[0]); k != "" {
					delete(env.ln, k)
				}
			case "clear":
				if k := va.p.canonKey(call.Args[0]); k != "" {
					env.ln[k] = ivalConst(0)
				}
			case "copy":
				if k := va.p.canonKey(call.Args[0]); k != "" {
					env.tr[k] &^= trustElems
					if env.tr[k] == 0 {
						delete(env.tr, k)
					}
				}
			}
			return
		}
	}
	if tv, ok := va.p.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	if n := va.pr.calleeNode(va.p, call); n != nil && n.sum != nil {
		sum := n.sum
		args := call.Args
		recvOffset := 0
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s := va.p.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				if sum.MutatesRecv || sum.MutatesRecvSync {
					if k := va.p.canonKey(sel.X); k != "" {
						env.killKey(k)
					}
				}
				recvOffset = 0 // params exclude the receiver
			}
		}
		_ = recvOffset
		for i, arg := range args {
			if i < 32 && (sum.MutatesParam|sum.MutatesParamSync)&(1<<uint(i)) != 0 && pointerLike(va.p.typeOf(arg)) {
				va.havocArg(env, arg)
			}
		}
		return
	}
	// External call: apply the model when there is one, else drop every
	// pointer-like argument (and receiver).
	eff := va.p.externalCallEffect(call)
	if eff.known {
		for _, i := range eff.mutArgs {
			if i < len(call.Args) {
				va.havocArg(env, call.Args[i])
			}
		}
		if eff.mutRecv {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				if k := va.p.canonKey(sel.X); k != "" {
					env.killKey(k)
				}
			}
		}
		return
	}
	for _, arg := range call.Args {
		if pointerLike(va.p.typeOf(arg)) {
			va.havocArg(env, arg)
		}
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := va.p.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			if k := va.p.canonKey(sel.X); k != "" {
				env.killKey(k)
			}
		}
	}
}

// havocArg invalidates what a callee may do to one argument. A slice
// argument is a copy of the slice header: the callee can write elements
// (dropping element trust) but never the caller's binding or length.
// Everything else pointer-like forfeits its facts.
func (va *valueAnalysis) havocArg(env *valEnv, arg ast.Expr) {
	k := va.p.canonKey(arg)
	if k == "" {
		return
	}
	if t := va.p.typeOf(arg); t != nil {
		if _, isSlice := t.Underlying().(*types.Slice); isSlice {
			env.tr[k] &^= trustElems
			if env.tr[k] == 0 {
				delete(env.tr, k)
			}
			return
		}
	}
	env.killKey(k)
}

// ---- boundary environment and contracts ----

// boundaryEnv builds the entry state of a scope: parameter contracts,
// receiver non-nilness, named-result zero values, and literal seeds.
func (va *valueAnalysis) boundaryEnv(fs funcScope) *valEnv {
	env := newValEnv()
	var ftype *ast.FuncType
	if fs.decl != nil {
		ftype = fs.decl.Type
		if fs.decl.Recv != nil {
			for _, f := range fs.decl.Recv.List {
				for _, nm := range f.Names {
					if obj := va.p.Info.Defs[nm]; obj != nil && nilable(obj.Type()) {
						// Documented assumption: method bodies run on
						// non-nil receivers.
						env.nl[objKey(obj)] = nlNonNil
					}
				}
			}
		}
	} else {
		ftype = fs.lit.Type
	}
	addParams := func(fl *ast.FieldList, results bool) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, nm := range f.Names {
				obj := va.p.Info.Defs[nm]
				if obj == nil {
					continue
				}
				key := objKey(obj)
				if results {
					va.zeroValueFacts(env, key, obj.Type())
					if isErrorType(obj.Type()) {
						va.errKeys[key] = true
					}
					continue
				}
				if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsUnsigned != 0 {
					env.iv[key] = ival{lo: linConst(0)}
				}
				if va.p.Path == execPkgPath {
					va.execTrustContract(env, nm.Name, obj)
				}
				if isErrorType(obj.Type()) {
					va.errKeys[key] = true
				}
			}
		}
	}
	addParams(ftype.Params, false)
	addParams(ftype.Results, true)

	if fs.lit != nil {
		va.kernelContract(env, fs.lit)
		if seed := va.seeds[fs.lit]; seed != nil {
			mergeSeed(env, seed)
		}
	}
	return env
}

// execTrustContract seeds the exec row-id contract: `r int32` row-id
// parameters and `sel []int32` selection vectors are constructed
// in-bounds (tableFilter.scan derives them from [0, NumRows)).
func (va *valueAnalysis) execTrustContract(env *valEnv, name string, obj types.Object) {
	t := obj.Type()
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.Int32 && name == "r" {
		env.tr[objKey(obj)] |= trustVal
		return
	}
	if sl, ok := t.Underlying().(*types.Slice); ok && (name == "sel" || name == "ids") {
		if el, ok := sl.Elem().Underlying().(*types.Basic); ok && el.Kind() == types.Int32 {
			env.tr[objKey(obj)] |= trustElems
		}
	}
}

// kernelContract seeds len(out) = len(sel) for predicate kernels: a
// literal with parameters (sel []int32, out []int8) in internal/exec is
// a triFn-shaped kernel whose caller allocates out at len(sel).
func (va *valueAnalysis) kernelContract(env *valEnv, lit *ast.FuncLit) {
	if va.p.Path != execPkgPath {
		return
	}
	var selObj, outObj types.Object
	for _, f := range lit.Type.Params.List {
		for _, nm := range f.Names {
			obj := va.p.Info.Defs[nm]
			if obj == nil {
				continue
			}
			if sl, ok := obj.Type().Underlying().(*types.Slice); ok {
				el, _ := sl.Elem().Underlying().(*types.Basic)
				if el == nil {
					continue
				}
				if nm.Name == "sel" && el.Kind() == types.Int32 {
					selObj = obj
				}
				if nm.Name == "out" && el.Kind() == types.Int8 {
					outObj = obj
				}
			}
		}
	}
	if selObj != nil && outObj != nil {
		env.ln[objKey(outObj)] = ivalExact(linLen(objKey(selObj)))
	}
}

// mergeSeed copies seed facts into env without overriding contracts.
func mergeSeed(env, seed *valEnv) {
	for k, v := range seed.iv {
		if _, ok := env.iv[k]; !ok {
			env.iv[k] = v
		}
	}
	for k, v := range seed.ln {
		if _, ok := env.ln[k]; !ok {
			env.ln[k] = v
		}
	}
	for k, v := range seed.tr {
		env.tr[k] |= v
	}
}

// recordLitSeed captures, at a worker-pool call site, the facts a
// literal argument starts from: its index parameters' ranges from the
// call arguments plus the caller's facts for captured variables the
// literal never writes. Recorded during the report pass (the caller's
// final fixpoint state), consumed when the literal's own scope runs —
// funcScopes orders literals after their enclosing function.
func (va *valueAnalysis) recordLitSeed(env *valEnv, node ast.Node, lit *ast.FuncLit) {
	call := enclosingCall(node, lit)
	name := ""
	if call != nil {
		name, _ = calleeIdentName(call.Fun)
	}
	litParams := func() []types.Object {
		var out []types.Object
		for _, f := range lit.Type.Params.List {
			for _, nm := range f.Names {
				out = append(out, va.p.Info.Defs[nm])
			}
		}
		return out
	}
	seed := newValEnv()
	switch name {
	case "forEachMorsel", "inMorsels":
		// forEachMorsel(qc, workers, n, morselRows, fn(worker, morsel, lo, hi))
		// and e.inMorsels(qc, tr, n, fn(worker, morsel, lo, hi)): every
		// morsel satisfies 0 ≤ lo ≤ hi ≤ n, so lo's upper bound is the hi
		// parameter itself — that relational seed is what proves the
		// s[lo:hi] reslice inside the body.
		if len(call.Args) >= 4 {
			ps := litParams()
			n := va.eval(env, call.Args[2])
			if len(ps) > 3 && ps[3] != nil {
				seed.iv[objKey(ps[3])] = ival{lo: linConst(0), hi: n.hi}
				if ps[2] != nil {
					seed.iv[objKey(ps[2])] = ival{lo: linConst(0), hi: linVar(objKey(ps[3]))}
				}
			}
		}
	case "parallelFor":
		// parallelFor(workers, fn(p)).
		if len(call.Args) >= 2 {
			ps := litParams()
			w := va.eval(env, call.Args[0])
			if len(ps) > 0 && ps[0] != nil {
				seed.iv[objKey(ps[0])] = ival{lo: linConst(0), hi: linAddK(w.hi, -1)}
			}
		}
	case "scan":
		// The literal receives a freshly built, in-bounds selection
		// vector: fn(sel []int32).
		ps := litParams()
		if len(ps) > 0 && ps[0] != nil {
			if sl, ok := ps[0].Type().Underlying().(*types.Slice); ok {
				if el, ok := sl.Elem().Underlying().(*types.Basic); ok && el.Kind() == types.Int32 {
					seed.tr[objKey(ps[0])] |= trustElems
				}
			}
		}
	case "Slice", "SliceStable":
		// sort.Slice(x, less): the comparator's index parameters range
		// over x — [0, len(x)−1] for the slice as passed to the sort.
		if !isPkgCall(va.p, call, "sort") || len(call.Args) < 2 {
			return
		}
		key := va.p.canonKey(call.Args[0])
		if key == "" {
			return
		}
		ps := litParams()
		for i := 0; i < 2 && i < len(ps); i++ {
			if ps[i] != nil {
				seed.iv[objKey(ps[i])] = ival{lo: linConst(0), hi: linAddK(linLen(key), -1)}
			}
		}
	case "Search":
		// sort.Search(n, f): f probes i ∈ [0, n).
		if !isPkgCall(va.p, call, "sort") || len(call.Args) < 2 {
			return
		}
		ps := litParams()
		if len(ps) > 0 && ps[0] != nil {
			n := va.eval(env, call.Args[0])
			seed.iv[objKey(ps[0])] = ival{lo: linConst(0), hi: linAddK(n.hi, -1)}
		}
	default:
		// Any other literal — stored, returned, or passed to an opaque
		// callee — may run at any later point, so only invariant facts
		// survive: facts whose roots are never mutated after this
		// literal's creation limit can't go stale between creation and
		// invocation.
		limit := litLimit(va.scopeLoops, lit.Pos())
		stableAt := func(k string, v ival) bool {
			if va.scopeMut[rootOf(k)] >= limit {
				return false
			}
			for _, l := range []*lin{v.lo, v.hi} {
				if l == nil {
					continue
				}
				for _, t := range l.terms {
					if va.scopeMut[rootOf(t.key)] >= limit {
						return false
					}
				}
			}
			return true
		}
		for k, v := range env.iv {
			if stableAt(k, v) {
				seed.iv[k] = v
			}
		}
		for k, v := range env.ln {
			if stableAt(k, v) {
				seed.ln[k] = v
			}
		}
		for k, v := range env.tr {
			if va.scopeMut[rootOf(k)] < limit && va.scopeMutElem[rootOf(k)] < limit {
				seed.tr[k] |= v
			}
		}
		va.seeds[lit] = seed
		return
	}
	// Captured facts: keys whose root object the literal never rebinds.
	// Element stores keep value and length facts but spoil trust bits.
	written, elemWritten := litWrites(va.p, lit)
	copyUnwritten := func(dst, src map[string]ival) {
		for k, v := range src {
			if !written[rootOf(k)] && boundsStable(v, written) {
				dst[k] = v
			}
		}
	}
	copyUnwritten(seed.iv, env.iv)
	copyUnwritten(seed.ln, env.ln)
	for k, v := range env.tr {
		if !written[rootOf(k)] && !elemWritten[rootOf(k)] {
			seed.tr[k] |= v
		}
	}
	va.seeds[lit] = seed
}

// boundsStable reports whether an interval's symbolic bounds avoid every
// written root.
func boundsStable(v ival, written map[string]bool) bool {
	for _, l := range []*lin{v.lo, v.hi} {
		if l == nil {
			continue
		}
		for _, t := range l.terms {
			if written[rootOf(t.key)] {
				return false
			}
		}
	}
	return true
}

// rootOf strips a field path back to its root key.
func rootOf(key string) string {
	if i := strings.IndexByte(key, '.'); i >= 0 {
		return key[:i]
	}
	return key
}

// litWrites collects the root keys of every assignment target inside
// lit (nested literals included: they may run too).
// loopSpan is the source span of one loop statement.
type loopSpan struct{ pos, end token.Pos }

// loopRanges collects the spans of every for/range statement in body,
// nested literals included.
func loopRanges(body *ast.BlockStmt) []loopSpan {
	var out []loopSpan
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			out = append(out, loopSpan{n.Pos(), n.End()})
		}
		return true
	})
	return out
}

// litLimit returns the position before which a mutation cannot reach a
// literal created at litPos: the literal's own position, pulled back to
// the start of any loop enclosing it (an enclosing loop re-runs the
// mutation after the literal of an earlier iteration was created).
func litLimit(loops []loopSpan, litPos token.Pos) token.Pos {
	limit := litPos
	for _, r := range loops {
		if r.pos <= litPos && litPos < r.end && r.pos < limit {
			limit = r.pos
		}
	}
	return limit
}

// scopeMutable records the last post-initialization mutation position
// of every root in a whole scope body, nested literals included,
// skipping each object's initializing define (plain reassignments and
// address escapes in mut, element-only stores in mutElem). A fact about
// a root whose mutations all precede a literal's creation limit cannot
// go stale between the literal's creation and a later invocation; an
// address escape poisons the root everywhere, and so does a mutation
// inside a nested literal — the literal's body runs at times source
// order says nothing about.
func scopeMutable(p *Package, body *ast.BlockStmt) (mut, mutElem map[string]token.Pos) {
	mut, mutElem = map[string]token.Pos{}, map[string]token.Pos{}
	const farPos = token.Pos(1 << 40)
	var litSpans []loopSpan
	inLit := func(pos token.Pos) bool {
		for _, sp := range litSpans {
			if sp.pos <= pos && pos < sp.end {
				return true
			}
		}
		return false
	}
	addRoot := func(e ast.Expr, dst map[string]token.Pos, at token.Pos) {
		for {
			switch v := unparen(e).(type) {
			case *ast.SelectorExpr:
				e = v.X
				continue
			case *ast.StarExpr:
				e = v.X
				continue
			case *ast.IndexExpr:
				e = v.X
				continue
			case *ast.Ident:
				if obj := objOf(p, v); obj != nil {
					k := objKey(obj)
					if at > dst[k] {
						dst[k] = at
					}
				}
				return
			default:
				return
			}
		}
	}
	classify := func(e ast.Expr) map[string]token.Pos {
		if ix, ok := unparen(e).(*ast.IndexExpr); ok {
			if t := p.typeOf(ix.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Pointer:
					return mutElem
				}
			}
		}
		return mut
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			litSpans = append(litSpans, loopSpan{v.Pos(), v.End()})
		case *ast.AssignStmt:
			at := v.End()
			if inLit(v.Pos()) {
				at = farPos
			}
			for _, lhs := range v.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok && v.Tok == token.DEFINE {
					if p.Info.Defs[id] != nil {
						continue // initializing define, not a mutation
					}
				}
				addRoot(lhs, classify(lhs), at)
			}
		case *ast.IncDecStmt:
			at := v.End()
			if inLit(v.Pos()) {
				at = farPos
			}
			addRoot(v.X, classify(v.X), at)
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				addRoot(v.X, mut, farPos) // address taken: anything may write it, any time
			}
		case *ast.RangeStmt:
			at := v.Body.End()
			if inLit(v.Pos()) {
				at = farPos
			}
			// Range loop variables rebind every iteration.
			for _, e := range []ast.Expr{v.Key, v.Value} {
				if e != nil {
					addRoot(e, mut, at)
				}
			}
		}
		return true
	})
	return mut, mutElem
}

func litWrites(p *Package, lit *ast.FuncLit) (rebind, elem map[string]bool) {
	rebind, elem = map[string]bool{}, map[string]bool{}
	addRoot := func(e ast.Expr, dst map[string]bool) {
		for {
			switch v := unparen(e).(type) {
			case *ast.SelectorExpr:
				e = v.X
				continue
			case *ast.StarExpr:
				e = v.X
				continue
			case *ast.IndexExpr:
				e = v.X
				continue
			case *ast.Ident:
				if obj := objOf(p, v); obj != nil {
					dst[objKey(obj)] = true
				}
				return
			default:
				return
			}
		}
	}
	// A store through a slice or array index mutates an element, never
	// the binding or the length — those land in elem, which invalidates
	// trust bits but not value or length facts. A map index write grows
	// the map, so it counts as a rebind.
	classify := func(e ast.Expr) map[string]bool {
		if ix, ok := unparen(e).(*ast.IndexExpr); ok {
			if t := p.typeOf(ix.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Pointer:
					return elem
				}
			}
		}
		return rebind
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				addRoot(lhs, classify(lhs))
			}
		case *ast.IncDecStmt:
			addRoot(v.X, classify(v.X))
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				addRoot(v.X, rebind) // address taken: anything may write it
			}
		}
		return true
	})
	return rebind, elem
}

// enclosingCall finds the call expression (inside node) that has lit as
// a direct argument.
// isPkgCall reports whether the call's selector resolves to a function
// from the given package path (guards name-based contract matching
// against same-named methods).
func isPkgCall(p *Package, call *ast.CallExpr, pkgPath string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

func enclosingCall(node ast.Node, lit *ast.FuncLit) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(node, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			for _, a := range call.Args {
				if unparen(a) == lit {
					found = call
					return false
				}
			}
		}
		return true
	})
	return found
}

// findCompactions detects the compaction-counter pattern in a scope:
// `w := 0` before a loop ranging over slice s, exactly one `w++` in the
// loop body, and no other write to w anywhere in the scope.
func (va *valueAnalysis) findCompactions(body *ast.BlockStmt) {
	type counter struct {
		incs      int
		incPos    token.Pos
		inits     int
		initPos   token.Pos
		others    int
		initLoops []ast.Stmt
		incLoops  []ast.Stmt
	}
	counters := map[types.Object]*counter{}
	get := func(e ast.Expr) (*counter, types.Object) {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return nil, nil
		}
		obj := objOf(va.p, id)
		if obj == nil {
			return nil, nil
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return nil, nil
		}
		c := counters[obj]
		if c == nil {
			c = &counter{}
			counters[obj] = c
		}
		return c, obj
	}
	// One pass recording every write event, with loop context.
	var loops []ast.Stmt // enclosing for/range statements, innermost last
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.FuncLit:
				if m != n {
					// Writes inside nested literals disqualify.
					ast.Inspect(v.Body, func(x ast.Node) bool {
						switch w := x.(type) {
						case *ast.AssignStmt:
							for _, lhs := range w.Lhs {
								if c, _ := get(lhs); c != nil {
									c.others++
								}
							}
						case *ast.IncDecStmt:
							if c, _ := get(w.X); c != nil {
								c.others++
							}
						}
						return true
					})
					return false
				}
			case *ast.RangeStmt, *ast.ForStmt:
				if m != n {
					loops = append(loops, m.(ast.Stmt))
					walk(loopBody(m.(ast.Stmt)))
					// Init/Cond/Post of a for are outside the body.
					if f, ok := m.(*ast.ForStmt); ok {
						if f.Init != nil {
							walk(f.Init)
						}
						if f.Post != nil {
							walk(f.Post)
						}
					}
					loops = loops[:len(loops)-1]
					return false
				}
			case *ast.IncDecStmt:
				if c, _ := get(v.X); c != nil {
					if v.Tok == token.INC && len(loops) > 0 {
						c.incs++
						c.incPos = v.Pos()
						c.incLoops = append([]ast.Stmt(nil), loops...)
					} else {
						c.others++
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range v.Lhs {
					c, _ := get(lhs)
					if c == nil {
						continue
					}
					isZeroInit := false
					if (v.Tok == token.DEFINE || v.Tok == token.ASSIGN) && i < len(v.Rhs) {
						if k, ok := constInt(va.p, v.Rhs[i]); ok && k == 0 {
							isZeroInit = true
						}
					}
					if isZeroInit {
						c.inits++
						c.initPos = v.Pos()
						c.initLoops = append([]ast.Stmt(nil), loops...)
					} else {
						c.others++
					}
				}
			case *ast.UnaryExpr:
				if v.Op == token.AND {
					if c, _ := get(v.X); c != nil {
						c.others++
					}
				}
			}
			return true
		})
	}
	walk(body)
	for obj, c := range counters {
		if c.incs != 1 || c.inits != 1 || c.others != 0 {
			continue
		}
		// The init must sit exactly one loop level above the increment
		// (same enclosing loops), so each run of the counting loop
		// starts from zero — an outer loop re-running both preserves
		// the invariant per iteration.
		if len(c.incLoops) != len(c.initLoops)+1 {
			continue
		}
		nested := true
		for i := range c.initLoops {
			if c.initLoops[i] != c.incLoops[i] {
				nested = false
				break
			}
		}
		inner := c.incLoops[len(c.incLoops)-1]
		if !nested || c.initPos >= inner.Pos() {
			continue
		}
		var sliceKey string
		var bodyPos, bodyEnd token.Pos
		switch l := inner.(type) {
		case *ast.RangeStmt:
			sliceKey = va.p.canonKey(l.X)
			if t := va.p.typeOf(l.X); t != nil {
				if _, ok := t.Underlying().(*types.Slice); !ok {
					sliceKey = ""
				}
			}
			bodyPos, bodyEnd = l.Body.Pos(), l.Body.End()
		case *ast.ForStmt:
			sliceKey = forOverSliceKey(va.p, l)
			bodyPos, bodyEnd = l.Body.Pos(), l.Body.End()
		}
		if sliceKey == "" {
			continue
		}
		va.compact[obj] = compactFact{sliceKey: sliceKey, incPos: c.incPos, bodyPos: bodyPos, bodyEnd: bodyEnd}
	}
}

func loopBody(s ast.Stmt) *ast.BlockStmt {
	switch v := s.(type) {
	case *ast.RangeStmt:
		return v.Body
	case *ast.ForStmt:
		return v.Body
	}
	return nil
}

// forOverSliceKey matches `for i := 0; i < len(s); i++` and returns s's
// key.
func forOverSliceKey(p *Package, f *ast.ForStmt) string {
	cond, ok := f.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS {
		return ""
	}
	call, ok := unparen(cond.Y).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return ""
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "len" {
		return ""
	}
	if t := p.typeOf(call.Args[0]); t != nil {
		if _, isSlice := t.Underlying().(*types.Slice); isSlice {
			return p.canonKey(call.Args[0])
		}
	}
	return ""
}

// ---- reporting ----

// emit records a finding under rule with a -why explanation, applying
// the per-rule file scope and position dedup.
func (va *valueAnalysis) emit(n ast.Node, rule, why, format string, args ...any) {
	if va.quiet || !va.recording {
		return
	}
	if !va.ruleApplies(rule, n) {
		return
	}
	pos := va.p.Fset.Position(n.Pos())
	dkey := fmt.Sprintf("%s|%s:%d:%d", rule, pos.Filename, pos.Line, pos.Column)
	if va.reported[dkey] {
		return
	}
	va.reported[dkey] = true
	va.res.diags[rule] = append(va.res.diags[rule], Diagnostic{
		Pos:     pos,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
		Why:     why,
	})
}

// ruleApplies implements the per-rule package/file scopes.
func (va *valueAnalysis) ruleApplies(rule string, n ast.Node) bool {
	switch rule {
	case "boundscheck":
		if va.p.Path == obsPkgPath {
			return true
		}
		if va.p.Path != execPkgPath {
			return false
		}
		file := va.p.Fset.Position(n.Pos()).Filename
		return boundsFiles[baseFilename(file)]
	case "nilcheck":
		return valuePkgs[va.p.Path]
	case "errcontract":
		return va.p.Path == execPkgPath || va.p.Path == planPkgPath || va.p.Path == storagePkgPath
	}
	return false
}

func baseFilename(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
