// Vectorized batch execution. Instead of pulling one row at a time
// through the bexpr interface tree, the scan/filter layer walks the
// columnar storage vectors directly in batches of ~1K rows, carrying a
// selection vector of surviving row ids between predicate kernels
// (MonetDB/X100-style). Each kernel is a typed tight loop over one
// column's physical vector, so non-surviving rows never touch Value
// boxing at all.
//
// Intermediates. What a scan emits is its selection vectors, and what
// the join operators pass on is a rowSet (rowset.go): one []int32
// row-id vector per joined table, never a full-width row. Join keys,
// group keys, aggregate arguments, sort keys and projections that are
// bare columns are read off the column vectors through those ids; any
// other expression is evaluated over a per-worker scratch row holding
// just the columns it reads (uncompiled local predicates here, residual
// and LEFT JOIN ON predicates in join.go, the rest in agg.go and
// run.go). Every operator emits in probe-major order and concatenates
// morsel chunks in morsel order, so the id tuples arrive in exactly the
// order a row pipeline would produce them.
//
// The batch layer slots UNDER the existing morsel partitioning: a
// morsel worker runs its [lo,hi) range through the same batch scanner
// the serial path uses. Kernel results replicate bexpr evaluation's
// three-valued logic bit for bit (numeric comparisons go through
// float64 like storage.Compare, IN keeps its UNKNOWN-on-NULL member
// rule, AND/OR combine 1/0/-1 exactly like binExpr), so kernels and
// row-at-a-time evaluation select the same rows. There is one executor
// configuration: kernel_test.go holds every compiled kernel of the 99
// templates to bexpr.eval row by row, over rows read through
// Table.Get, and checks the scanner's batch boundaries directly.
package exec

import (
	"fmt"
	"strings"
	"unsafe"

	"tpcds/internal/index"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// batchLen is the vectorized batch size: ~1K rows keeps a batch's
// selection vector and per-column working set inside the L1/L2 caches
// while amortizing per-batch bookkeeping over enough rows.
const batchLen = 1024

// batchSize is the predicate batch row count: batchLen, or one morsel
// when morsels are smaller (tests shrink them with SetMorselSize and so
// get batch boundaries inside development-scale tables too).
func (e *Engine) batchSize() int { return min(batchLen, e.morselSize()) }

// colReader caches one column's physical vectors plus the absolute row
// layout offset it fills — the batched replacement for Table.Get.
type colReader struct {
	off   int
	kind  storage.Kind
	ints  []int64
	flts  []float64
	strs  []string // plain string column
	codes []uint16 // dictionary string column: row r holds dict[codes[r]]
	dict  []string
	nulls []bool
}

// tableAt returns the bound instance at table index ti with an explicit
// range check: indices flow in from plan structures, and a stale index
// is a planner bug that deserves a clear panic rather than a slice
// fault deep inside a kernel.
func (b *binder) tableAt(ti int) *tabInst {
	if ti < 0 || ti >= len(b.tables) {
		panic(fmt.Sprintf("exec: table index %d out of range (%d tables bound)", ti, len(b.tables)))
	}
	return &b.tables[ti]
}

// newColReader caches the physical vectors of column c of inst.
func newColReader(inst *tabInst, c int) colReader {
	k, ints, flts, strs, codes, dict, nulls := inst.tab.Col(c).Raw()
	return colReader{off: inst.offset + c, kind: k, ints: ints, flts: flts, strs: strs, codes: codes, dict: dict, nulls: nulls}
}

// str returns the string at non-NULL row r of a string column.
func (cr *colReader) str(r int32) string {
	if cr.codes == nil {
		return cr.strs[r]
	}
	if c := int(cr.codes[r]); c < len(cr.dict) {
		return cr.dict[c]
	}
	panic("exec: string code outside its column's dictionary")
}

// value boxes row r of the column — identical to Column.Get. (It is
// written to stay inside the compiler's inlining budget: every gather
// and every key encoding goes through it.)
func (cr *colReader) value(r int32) storage.Value {
	if cr.nulls[r] {
		return storage.Null
	}
	switch cr.kind {
	case storage.KindFloat:
		return storage.Value{K: storage.KindFloat, F: cr.flts[r]}
	case storage.KindString:
		return storage.Value{K: storage.KindString, S: cr.str(r)}
	}
	return storage.Value{K: cr.kind, I: cr.ints[r]} // KindInt, KindDate
}

// triFn is a compiled predicate kernel: it evaluates the predicate for
// every row id in sel, writing three-valued results into out (1 true,
// 0 false, -1 unknown; out has len(sel)). Kernels close over immutable
// column vectors only — morsel workers share them freely. The -race
// runs of the parallel differentials check that capture contract.
type triFn func(sel []int32, out []int8)

// tableFilter is the compiled local-predicate filter of one table:
// vector kernels for the conjuncts the compiler understands, plus the
// uncompiled remainder evaluated row-at-a-time over the survivors.
// Reordering conjuncts (kernels first) cannot change the surviving set:
// all conjuncts are ANDed and bexpr evaluation is side-effect free.
type tableFilter struct {
	kernels []triFn
	slow    []bexpr
	cols    []keySource // the columns slow reads
	total   int
	bm      *index.Bitmap // keep only: rows outside it fail before any kernel runs
}

// compileFilter compiles table ti's local predicates: kernels where
// compileTri understands the shape, bexpr.eval over the survivors for
// the rest.
func (b *binder) compileFilter(ti int, preds []bexpr) *tableFilter {
	tf := &tableFilter{total: b.total}
	for _, p := range preds {
		if k, ok := b.compileTri(ti, p); ok {
			tf.kernels = append(tf.kernels, k)
			continue
		}
		tf.slow = append(tf.slow, p)
	}
	tf.cols = b.keySources(nil, exprCols(tf.slow...))
	return tf
}

// batchScratch holds one scanner's reusable buffers. Each scan
// call owns its scratch, so concurrent morsel workers never
// share mutable state.
type batchScratch struct {
	sel []int32
	tri []int8
	row []storage.Value
}

func (tf *tableFilter) newScratch(batch int) *batchScratch {
	sc := &batchScratch{sel: make([]int32, batch), tri: make([]int8, batch)}
	if len(tf.slow) > 0 {
		sc.row = make([]storage.Value, tf.total)
	}
	return sc
}

// valueBytes is the in-memory size of one storage.Value (kind tag padded
// to 8, int64, float64, string header), for scratch accounting.
const valueBytes = int64(unsafe.Sizeof(storage.Value{}))

// bytes reports the scratch buffer footprint for profile accounting.
func (sc *batchScratch) bytes() int64 {
	return int64(len(sc.sel))*4 + int64(len(sc.tri)) + int64(len(sc.row))*valueBytes
}

// apply runs every kernel over sel, compacting survivors in place, then
// finishes with the uncompiled conjuncts on whatever is left.
func (tf *tableFilter) apply(sel []int32, sc *batchScratch) []int32 {
	// Local header: kernel calls cannot retarget a slice passed by
	// value, so len(tbuf) is stable across the loop in a way len(sc.tri)
	// is not (sc is a pointer any callee could write through).
	tbuf := sc.tri
	if len(tbuf) < len(sel) {
		panic("exec: scratch tri vector smaller than the selection")
	}
	for _, k := range tf.kernels {
		if len(sel) == 0 {
			return sel
		}
		tri := tbuf[:len(sel)]
		k(sel, tri)
		w := 0
		for i, r := range sel {
			if tri[i] == 1 {
				sel[w] = r
				w++
			}
		}
		sel = sel[:w]
	}
	if len(tf.slow) > 0 && len(sel) > 0 {
		w := 0
		for _, r := range sel {
			gather(tf.cols, 0, r, sc.row)
			if passes(tf.slow, sc.row) {
				sel[w] = r
				w++
			}
		}
		sel = sel[:w]
	}
	return sel
}

// scan streams the rows of [lo,hi) that pass the filter batch by batch:
// positions of ids (the star's bitmap-qualified fact ids), or the
// table's own row ids when ids is nil. fn receives each batch's
// selection vector (valid only for the call). Cancellation is polled
// per batch via checkNow — safe from morsel workers, and at the default
// batch size exactly as frequent as the serial row loop's tick.
func (tf *tableFilter) scan(qc *qctx, batch int, ids []int32, lo, hi int, fn func(sel []int32)) {
	if batch < 1 {
		batch = 1
	}
	sc := tf.newScratch(batch)
	qc.growScratch(sc.bytes())
	defer qc.shrinkScratch(sc.bytes())
	buf := sc.sel
	if len(buf) < batch {
		panic("exec: scratch selection vector smaller than batch")
	}
	for base := lo; base < hi; base += batch {
		qc.checkNow()
		qc.countBatch()
		end := min(base+batch, hi)
		sel := buf[:end-base]
		if ids != nil {
			if base < 0 || base >= len(ids) || end > len(ids) {
				panic("exec: scan range outside the id list")
			}
			copy(sel, ids[base:])
		} else {
			for i := range sel {
				sel[i] = int32(base + i)
			}
		}
		sel = tf.apply(sel, sc)
		if len(sel) > 0 {
			fn(sel)
		}
	}
}

// keep drops the match pairs whose row fails the filter, in order: the
// bit test first, then the kernels, counting each row they filter as
// scanned. A row's verdict depends on the row alone, so scan's survivors
// are the passing pairs' rows in order.
func (tf *tableFilter) keep(qc *qctx, batch int, pairs []matchPair) []matchPair {
	if tf == nil {
		return pairs
	}
	if tf.bm != nil {
		w := 0
		for _, p := range pairs {
			if tf.bm.Get(int(p.r)) {
				pairs[w] = p
				w++
			}
		}
		pairs = pairs[:w]
	}
	if len(tf.kernels)+len(tf.slow) == 0 || len(pairs) == 0 {
		return pairs
	}
	qc.countScan(len(pairs))
	ids, kept := make([]int32, len(pairs)), make([]int32, 0, len(pairs))
	for i, p := range pairs {
		ids[i] = p.r
	}
	tf.scan(qc, batch, ids, 0, len(ids), func(sel []int32) { kept = append(kept, sel...) })
	w := 0 // kept[:w] are the rows of the pairs kept so far
	for _, p := range pairs {
		if w < len(kept) && kept[w] == p.r {
			pairs[w] = p
			w++
		}
	}
	return pairs[:w]
}

// ---- predicate kernel compiler ----

// kernelCol resolves a bexpr to one of table ti's column vectors.
func (b *binder) kernelCol(ti int, e bexpr) (*colReader, bool) {
	ce, ok := e.(*colExpr)
	if !ok {
		return nil, false
	}
	inst := b.tableAt(ti)
	c := ce.off - inst.offset
	if c < 0 || c >= inst.width() {
		return nil, false
	}
	cr := newColReader(inst, c)
	return &cr, true
}

func isNumKind(k storage.Kind) bool {
	return k == storage.KindInt || k == storage.KindFloat || k == storage.KindDate
}

func b2t(b bool) int8 {
	if b {
		return 1
	}
	return 0
}

// cmpPass converts a comparison operator to its sign test.
func cmpPass(op string) func(c int) bool {
	switch op {
	case "=":
		return func(c int) bool { return c == 0 }
	case "<>":
		return func(c int) bool { return c != 0 }
	case "<":
		return func(c int) bool { return c < 0 }
	case "<=":
		return func(c int) bool { return c <= 0 }
	case ">":
		return func(c int) bool { return c > 0 }
	default: // ">="
		return func(c int) bool { return c >= 0 }
	}
}

// mirrorOp flips a comparison for operand swap (lit op col → col op').
func mirrorOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default: // "=", "<>"
		return op
	}
}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// numAt returns the column's float64 view at r — the same coercion
// storage.Compare applies to numeric kinds, so kernel comparisons stay
// bit-identical to the row engine even past 2^53.
func (cr *colReader) numAt(r int32) float64 {
	if cr.kind == storage.KindFloat {
		return cr.flts[r]
	}
	return float64(cr.ints[r])
}

// compileTri compiles one conjunct of table ti's local filter into a
// vector kernel. ok=false means the shape is not understood (function
// calls, CASE, arithmetic inside comparisons, …) and the conjunct runs
// on the row fallback.
func (b *binder) compileTri(ti int, p bexpr) (triFn, bool) {
	switch v := p.(type) {
	case *binExpr:
		switch v.op {
		case "AND", "OR":
			lk, ok := b.compileTri(ti, v.l)
			if !ok {
				return nil, false
			}
			rk, ok := b.compileTri(ti, v.r)
			if !ok {
				return nil, false
			}
			and := v.op == "AND"
			return func(sel []int32, out []int8) {
				tmp := make([]int8, len(sel))
				lk(sel, out)
				rk(sel, tmp)
				for i := range out {
					lv, rv := out[i], tmp[i]
					if and {
						switch {
						case lv == 0 || rv == 0:
							out[i] = 0
						case lv == -1 || rv == -1:
							out[i] = -1
						default:
							out[i] = 1
						}
					} else {
						switch {
						case lv == 1 || rv == 1:
							out[i] = 1
						case lv == -1 || rv == -1:
							out[i] = -1
						default:
							out[i] = 0
						}
					}
				}
			}, true
		case "=", "<>", "<", "<=", ">", ">=":
			return b.compileCmp(ti, v)
		}
		return nil, false
	case *notExpr:
		ck, ok := b.compileTri(ti, v.x)
		if !ok {
			return nil, false
		}
		return func(sel []int32, out []int8) {
			ck(sel, out)
			for i := range out {
				if out[i] != -1 {
					out[i] = 1 - out[i]
				}
			}
		}, true
	case *betweenExpr:
		return b.compileBetween(ti, v)
	case *inExpr:
		return b.compileIn(ti, v)
	case *likeExpr:
		cr, ok := b.kernelCol(ti, v.x)
		if !ok || cr.kind != storage.KindString {
			return nil, false
		}
		pat, not := v.pattern, v.not
		return strKernel(cr, func(s string) int8 { return b2t(likeMatch(s, pat) != not) }), true
	case *isNullExpr:
		cr, ok := b.kernelCol(ti, v.x)
		if !ok {
			return nil, false
		}
		not, nulls := v.not, cr.nulls
		return func(sel []int32, out []int8) {
			for i, r := range sel {
				out[i] = b2t(nulls[r] != not)
			}
		}, true
	}
	if p.mask() == 0 {
		// Constant predicate (bound subquery results, literal folds):
		// evaluate once against an empty row.
		res := p.eval(make([]storage.Value, b.total))
		var c int8 = -1
		if !res.IsNull() {
			c = b2t(res.AsInt() != 0)
		}
		return func(sel []int32, out []int8) {
			for i := range sel {
				out[i] = c
			}
		}, true
	}
	return nil, false
}

// compileCmp compiles col-vs-literal and col-vs-col comparisons.
func (b *binder) compileCmp(ti int, v *binExpr) (triFn, bool) {
	l, r, op := v.l, v.r, v.op
	if _, isLit := l.(*litExpr); isLit {
		l, r, op = r, l, mirrorOp(op)
	}
	cl, ok := b.kernelCol(ti, l)
	if !ok {
		return nil, false
	}
	pass := cmpPass(op)
	if lit, isLit := r.(*litExpr); isLit {
		lv := lit.v
		if lv.IsNull() {
			return constNullTri(), true
		}
		switch {
		case isNumKind(cl.kind) && isNumKind(lv.K):
			// The hottest kernel of the workload: emit one specialized
			// closure per operator so the inner loop is a direct float64
			// comparison with no function indirection. Integer-class
			// columns still compare through float64, matching
			// storage.Compare exactly (including >2^53 precision loss).
			lf, nulls := lv.AsFloat(), cl.nulls
			if cl.kind == storage.KindFloat {
				return numLitKernel(op, cl.flts, nulls, lf), true
			}
			return numLitKernel(op, cl.ints, nulls, lf), true
		case cl.kind == storage.KindString && lv.K == storage.KindString:
			ls := lv.S
			if op == "=" || op == "<>" {
				// Equality needs no three-way compare (cf. numLitKernel).
				ne := op == "<>"
				return strKernel(cl, func(s string) int8 { return b2t((s == ls) != ne) }), true
			}
			return strKernel(cl, func(s string) int8 { return b2t(pass(strings.Compare(s, ls))) }), true
		}
		return nil, false
	}
	cr, ok := b.kernelCol(ti, r)
	if !ok {
		return nil, false
	}
	switch {
	case isNumKind(cl.kind) && isNumKind(cr.kind):
		a, c := cl, cr
		return func(sel []int32, out []int8) {
			for i, r := range sel {
				if a.nulls[r] || c.nulls[r] {
					out[i] = -1
					continue
				}
				out[i] = b2t(pass(cmpF(a.numAt(r), c.numAt(r))))
			}
		}, true
	case cl.kind == storage.KindString && cr.kind == storage.KindString:
		a, c := cl, cr
		return func(sel []int32, out []int8) {
			for i, r := range sel {
				if a.nulls[r] || c.nulls[r] {
					out[i] = -1
					continue
				}
				out[i] = b2t(pass(strings.Compare(a.str(r), c.str(r))))
			}
		}, true
	}
	return nil, false
}

// strKernel builds the kernel of a test on the non-NULL values of one
// string column; test returns the three-valued result for a value. A
// dictionary column runs test once per dictionary entry — entries no
// row holds any more included, which costs time and cannot change a
// result — and then answers every row by looking its code up.
func strKernel(cr *colReader, test func(s string) int8) triFn {
	nulls, strs, codes := cr.nulls, cr.strs, cr.codes
	if codes == nil {
		return func(sel []int32, out []int8) {
			for i, r := range sel {
				if nulls[r] {
					out[i] = -1
				} else {
					out[i] = test(strs[r])
				}
			}
		}
	}
	tab := make([]int8, len(cr.dict))
	for c, s := range cr.dict {
		tab[c] = test(s)
	}
	// A code past the table is a fault (a stale table, a corrupt
	// column): the unguarded index makes it a query error instead of a
	// silently dropped row.
	return func(sel []int32, out []int8) {
		for i, r := range sel {
			if nulls[r] {
				out[i] = -1
			} else {
				out[i] = tab[codes[r]]
			}
		}
	}
}

// numLitKernel builds the numeric-column vs numeric-literal kernel,
// specialized per operator and per column type: each is a flat loop the
// compiler can keep in registers — null check, widen to float64 (a no-op
// for a float column), compare.
func numLitKernel[T int64 | float64](op string, vals []T, nulls []bool, lit float64) triFn {
	switch op {
	case "=":
		return func(sel []int32, out []int8) {
			for i, r := range sel {
				if nulls[r] {
					out[i] = -1
				} else {
					out[i] = b2t(float64(vals[r]) == lit)
				}
			}
		}
	case "<>":
		return func(sel []int32, out []int8) {
			for i, r := range sel {
				if nulls[r] {
					out[i] = -1
				} else {
					out[i] = b2t(float64(vals[r]) != lit)
				}
			}
		}
	case "<":
		return func(sel []int32, out []int8) {
			for i, r := range sel {
				if nulls[r] {
					out[i] = -1
				} else {
					out[i] = b2t(float64(vals[r]) < lit)
				}
			}
		}
	case "<=":
		return func(sel []int32, out []int8) {
			for i, r := range sel {
				if nulls[r] {
					out[i] = -1
				} else {
					out[i] = b2t(float64(vals[r]) <= lit)
				}
			}
		}
	case ">":
		return func(sel []int32, out []int8) {
			for i, r := range sel {
				if nulls[r] {
					out[i] = -1
				} else {
					out[i] = b2t(float64(vals[r]) > lit)
				}
			}
		}
	default: // ">="
		return func(sel []int32, out []int8) {
			for i, r := range sel {
				if nulls[r] {
					out[i] = -1
				} else {
					out[i] = b2t(float64(vals[r]) >= lit)
				}
			}
		}
	}
}

// constNullTri is the always-UNKNOWN kernel (NULL literal operand).
func constNullTri() triFn {
	return func(sel []int32, out []int8) {
		for i := range sel {
			out[i] = -1
		}
	}
}

// compileBetween compiles x BETWEEN lo AND hi for column x against
// literal bounds.
func (b *binder) compileBetween(ti int, v *betweenExpr) (triFn, bool) {
	cl, ok := b.kernelCol(ti, v.x)
	if !ok {
		return nil, false
	}
	loL, ok := v.lo.(*litExpr)
	if !ok {
		return nil, false
	}
	hiL, ok := v.hi.(*litExpr)
	if !ok {
		return nil, false
	}
	if loL.v.IsNull() || hiL.v.IsNull() {
		return constNullTri(), true
	}
	not := v.not
	switch {
	case isNumKind(cl.kind) && isNumKind(loL.v.K) && isNumKind(hiL.v.K):
		lo, hi, nulls := loL.v.AsFloat(), hiL.v.AsFloat(), cl.nulls
		if cl.kind == storage.KindFloat {
			flts := cl.flts
			return func(sel []int32, out []int8) {
				for i, r := range sel {
					if nulls[r] {
						out[i] = -1
						continue
					}
					f := flts[r]
					out[i] = b2t((f >= lo && f <= hi) != not)
				}
			}, true
		}
		ints := cl.ints
		return func(sel []int32, out []int8) {
			for i, r := range sel {
				if nulls[r] {
					out[i] = -1
					continue
				}
				f := float64(ints[r])
				out[i] = b2t((f >= lo && f <= hi) != not)
			}
		}, true
	case cl.kind == storage.KindString && loL.v.K == storage.KindString && hiL.v.K == storage.KindString:
		lo, hi := loL.v.S, hiL.v.S
		return strKernel(cl, func(s string) int8 { return b2t((s >= lo && s <= hi) != not) }), true
	}
	return nil, false
}

// compileIn compiles x [NOT] IN (members) for int, date and string
// columns with typed member sets. GroupKey encoding is injective per
// kind, so an int column can only ever match KindInt members (and a
// date column KindDate members) — the typed sets keep exactly those.
// Float columns stay on the row fallback: float64 map equality treats
// -0 and 0 as equal where GroupKey's exact rendering does not.
func (b *binder) compileIn(ti int, v *inExpr) (triFn, bool) {
	cl, ok := b.kernelCol(ti, v.x)
	if !ok {
		return nil, false
	}
	hasNull, not := v.hasNull, v.not
	switch cl.kind {
	case storage.KindInt, storage.KindDate:
		want := storage.KindInt
		if cl.kind == storage.KindDate {
			want = storage.KindDate
		}
		set := make(map[int64]struct{})
		for _, m := range v.vals {
			if m.K == want {
				set[m.I] = struct{}{}
			}
		}
		nulls, ints := cl.nulls, cl.ints
		return func(sel []int32, out []int8) {
			for i, r := range sel {
				if nulls[r] {
					out[i] = -1
					continue
				}
				_, found := set[ints[r]]
				if !found && hasNull {
					out[i] = -1
					continue
				}
				out[i] = b2t(found != not)
			}
		}, true
	case storage.KindString:
		set := make(map[string]struct{})
		for _, m := range v.vals {
			if m.K == storage.KindString {
				set[m.S] = struct{}{}
			}
		}
		return strKernel(cl, func(s string) int8 {
			if _, found := set[s]; found || !hasNull {
				return b2t(found != not)
			}
			return -1
		}), true
	}
	return nil, false
}

// ---- join key fast path ----

// intClass classifies a column type for the int64 join-key fast path:
// 1 for integer-physical columns, 2 for dates, 0 otherwise. GroupKey
// keeps KindInt and KindDate keys disjoint, so raw int64 keys are only
// equivalent when both join sides share a class.
func intClass(t schema.Type) int {
	switch t {
	case schema.Identifier, schema.Integer:
		return 1
	case schema.Date:
		return 2
	default:
		return 0
	}
}

// intJoinKey reports whether a probe/build column pair can use raw
// int64 hash keys in place of GroupKey strings.
func intJoinKey(probe, build []*colExpr) bool {
	if len(probe) != 1 || len(build) != 1 {
		return false
	}
	c := intClass(probe[0].t)
	return c != 0 && c == intClass(build[0].t)
}

// partOfInt hashes an int64 join key to a partition — FNV-1a over the
// key's little-endian bytes, deterministic like partOf.
func partOfInt(k int64, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for s := uint(0); s < 64; s += 8 {
		h ^= uint32(uint8(k >> s))
		h *= 16777619
	}
	return int(h % uint32(parts))
}
