// Vector programs. Every bound expression the executor evaluates is
// compiled once per query (vcomp) into a typed vector program run a
// batch of positions at a time (MonetDB/X100-style). A value node returns
// a view: entry j is row idx[j] of a colReader's vectors — a bare
// column's own, or its node's slot in a frame — of the
// expression's static kind, a string on dictionary codes where the
// dictionary is known at compile time. Predicates are the boolean case:
// kernels writing 1 true, 0 false, -1 unknown. A position is what the
// frame binds it to: a row of the filtered table (frame.ids nil) or an
// intermediate row of a rowSet (frame.ids; an id of -1 reads NULL); a
// slot of the aggregated layout (binder.layout, typed vectors) is read
// at the position itself. Programs replicate bexpr.eval bit for bit;
// kernel_test.go holds every node the 99 templates run to eval
// (Engine.vecHook). DESIGN.md "Batch execution" has the rest.
package exec

import (
	"fmt"
	"math"
	"strings"

	"tpcds/internal/index"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// batchLen is the vectorized batch size: ~1K rows keeps a batch's
// selection vector and per-column working set inside the L1/L2 caches
// while amortizing per-batch bookkeeping over enough rows.
const batchLen = 1024

// colReader caches one column's physical vectors plus the absolute row
// layout offset it fills — the batched replacement for Table.Get. A
// program node's computed batch is one too. A table column without
// NULLs has nil nulls (storage.Column.Raw); a computed batch always
// has them.
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

// null reports whether row r is NULL (a nil vector holds none).
func (cr *colReader) null(r int32) bool { return storage.IsNull(cr.nulls, int(r)) }

// value boxes row r of the column — identical to Column.Get. (It is
// written to stay inside the compiler's inlining budget, null spelled
// out: every key encoding and every projected value goes through it.)
func (cr *colReader) value(r int32) storage.Value {
	if cr.nulls != nil && cr.nulls[r] {
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

// numAt returns the column's float64 view at r — the same coercion
// storage.Compare applies to numeric kinds, so kernel comparisons stay
// bit-identical to eval even past 2^53.
func (cr *colReader) numAt(r int32) float64 {
	if cr.kind == storage.KindFloat {
		return cr.flts[r]
	}
	return float64(cr.ints[r])
}

// text is row r as a string: a string as it is, a number as
// Value.String renders it.
func (cr *colReader) text(r int32) string {
	if cr.kind == storage.KindString {
		return cr.str(r)
	}
	return cr.value(r).String()
}

// resize makes the NULL mask and kind's vector (codes into dict when set)
// n entries long.
func (cr *colReader) resize(kind storage.Kind, n int, dict []string) {
	cr.kind, cr.dict = kind, dict
	grow(&cr.nulls, n)
	switch {
	case dict != nil:
		grow(&cr.codes, n)
	case kind == storage.KindFloat:
		grow(&cr.flts, n)
	case kind == storage.KindString:
		grow(&cr.strs, n)
	default:
		grow(&cr.ints, n)
	}
}

// put writes row r of src (-1: NULL) into entry j, converted to cr's
// kind as conform converts; codes are copied (a node has one dictionary).
func (cr *colReader) put(j int, src *colReader, r int32) {
	if cr.nulls[j] = r < 0 || src.null(r); cr.nulls[j] {
		return
	}
	switch {
	case cr.codes != nil:
		cr.codes[j] = src.codes[r]
	case cr.kind == storage.KindFloat:
		cr.flts[j] = src.numAt(r)
	case cr.kind == storage.KindString:
		cr.strs[j] = src.text(r)
	default:
		cr.ints[j] = src.ints[r]
	}
}

// putVia is put with src's code read through remap into cr's
// dictionary when remap is set.
func (cr *colReader) putVia(j int, src *colReader, r int32, remap []uint16) {
	if remap == nil || r < 0 || src.null(r) {
		cr.put(j, src, r)
		return
	}
	cr.nulls[j], cr.codes[j] = false, remap[src.codes[r]]
}

// set writes v, of cr's kind or NULL, into entry j.
func (cr *colReader) set(j int, v storage.Value) {
	if cr.nulls[j] = v.IsNull(); cr.nulls[j] {
		return
	}
	switch cr.kind {
	case storage.KindFloat:
		cr.flts[j] = v.F
	case storage.KindString:
		cr.strs[j] = v.S
	default:
		cr.ints[j] = v.I
	}
}

// grow resizes *s to n entries, reallocating only past its capacity.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// ---- filters ----

// tableFilter is a compiled conjunct list, its kernels run in turn over
// a batch, each on the survivors of the ones before.
type tableFilter struct {
	kernels []triFn
	slots   int           // the frame slots the kernels use
	bm      *index.Bitmap // keep only: rows outside it fail before any kernel runs
}

// compileFilter compiles a local filter (scan, keep) or a residual,
// LEFT JOIN ON or HAVING one (passing).
func (b *binder) compileFilter(preds []bexpr) *tableFilter {
	c := &vcomp{b: b}
	tf := &tableFilter{}
	for _, p := range preds {
		tf.kernels = append(tf.kernels, c.tri(p))
	}
	tf.slots = c.slots
	return tf
}

// batchScratch holds one filter run's reusable buffers.
type batchScratch struct {
	sel []int32
	tri []int8
	fr  frame
}

func (tf *tableFilter) newScratch(batch int) *batchScratch {
	return &batchScratch{sel: make([]int32, batch), tri: make([]int8, batch), fr: frame{slots: make([]slot, tf.slots)}}
}

// bytes reports the scratch buffer footprint for profile accounting.
func (sc *batchScratch) bytes() int64 {
	return int64(len(sc.sel))*4 + int64(len(sc.tri))
}

// apply runs every kernel over sel, compacting survivors in place.
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
		k(&sc.fr, sel, tri)
		w := 0
		for i, r := range sel {
			if tri[i] == 1 {
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
// per batch via checkNow, at the default batch size exactly as
// frequent as a row loop's tick. A range shorter than a batch gets
// scratch for its own rows only.
func (tf *tableFilter) scan(qc *qctx, batch int, ids []int32, lo, hi int, fn func(sel []int32)) {
	batch = max(1, min(batch, hi-lo))
	sc := tf.newScratch(batch)
	qc.growScratch(sc.bytes())
	defer qc.shrinkScratch(sc.bytes())
	buf := sc.sel
	if len(buf) < batch {
		panic("exec: scratch selection vector smaller than batch")
	}
	for base := lo; base < hi; base += batch {
		qc.checkNow()
		qc.batches++
		qc.pcur.AddBatches(1)
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

// passing streams the positions of [0, n) that pass, batch by batch, on
// a frame bound to ids; fn may compact the rows read in place (later
// batches read later positions only). It counts no batch.
func (tf *tableFilter) passing(qc *qctx, n, batch int, ids [][]int32, fn func(sel []int32)) {
	sc := tf.newScratch(batch)
	sc.fr.ids = ids
	for base := 0; base < n; base += batch {
		qc.checkNow()
		sel := sc.sel[:min(batch, n-base)]
		for i := range sel {
			sel[i] = int32(base + i)
		}
		fn(tf.apply(sel, sc))
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
	if len(tf.kernels) == 0 || len(pairs) == 0 {
		return pairs
	}
	qc.rowsScanned += len(pairs)
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

// ---- programs ----

// view is one batch of a value node: entry j is row idx[j] of cr.
type view struct {
	cr  *colReader
	idx []int32
}

// slot is one node's scratch in a frame.
type slot struct {
	cr    colReader
	idx   []int32
	tri   []int8
	views []view
	args  []storage.Value
}

// frame is the binding and scratch for running the programs of one
// vcomp: what positions name (ids; see the package comment) and one
// slot per node.
type frame struct {
	ids   [][]int32
	slots []slot
}

func newFrame(slots int) *frame { return &frame{slots: make([]slot, slots)} }

// seq and zero are read-only index vectors of one batch: 0, 1, …, the
// rows of a computed batch, and a literal's one row, repeated.
var seq, zero = func() ([]int32, []int32) {
	s := make([]int32, batchLen)
	for i := range s {
		s[i] = int32(i)
	}
	return s, make([]int32, batchLen)
}()

// out returns slot k's vectors sized for n entries of kind.
func (fr *frame) out(k int, kind storage.Kind, n int, dict []string) *colReader {
	cr := &fr.slots[k].cr
	cr.resize(kind, n, dict)
	return cr
}

// vnode is a compiled value expression: val returns its values at the
// positions sel, of kind kind (codes into dict whenever dict is set). It
// closes over immutable data only, so one compiled program serves every
// frame.
type vnode struct {
	kind storage.Kind
	dict []string
	val  func(fr *frame, sel []int32) view
}

// triFn is a compiled predicate: its three-valued result at every
// position of sel (1 true, 0 false, -1 unknown; out has len(sel)).
type triFn func(fr *frame, sel []int32, out []int8)

// vcomp compiles bound expressions into vector programs whose nodes
// number their scratch slots in one frame layout.
type vcomp struct {
	b     *binder
	slots int
}

func (c *vcomp) slot() int {
	c.slots++
	return c.slots - 1
}

// val compiles e's values and tri its truth; Engine.vecHook, when set,
// sees every batch of either.
func (c *vcomp) val(e bexpr) vnode {
	n, h, b := c.value(e), c.b.eng.vecHook, c.b
	if inner := n.val; h != nil {
		n.val = func(fr *frame, sel []int32) view { v := inner(fr, sel); h(b, e, fr, sel, v, nil); return v }
	}
	return n
}

func (c *vcomp) tri(e bexpr) triFn {
	k, h, b := c.truth(e), c.b.eng.vecHook, c.b
	if inner := k; h != nil {
		k = func(fr *frame, sel []int32, out []int8) { inner(fr, sel, out); h(b, e, fr, sel, view{}, out) }
	}
	return k
}

// constant reports whether e reads no column (nor aggregated slot).
func constant(e bexpr) bool { return e.mask() == 0 && len(exprCols(e)) == 0 }

func (c *vcomp) value(e bexpr) vnode {
	if _, ok := e.(*litExpr); !ok && constant(e) {
		e = &litExpr{v: e.eval(nil), t: e.typ()} // constant folding
	}
	switch v := e.(type) {
	case *colExpr:
		return c.column(v)
	case *litExpr:
		return literal(v)
	case *binExpr:
		if !isComparison(v.op) && v.op != "AND" && v.op != "OR" {
			return c.arith(v)
		}
	case *negExpr:
		return c.function(negate, []bexpr{v.x}, v.typ())
	case *caseExpr:
		return c.choice(v.conds, v.results, v.elseE, v.t)
	case *funcExpr:
		if v.name == "COALESCE" {
			return c.choice(nil, v.args, nil, v.t)
		}
		return c.function(scalarFuncs[v.name].fn, v.args, v.t)
	case *notExpr, *betweenExpr, *inExpr, *likeExpr, *isNullExpr:
	default:
		panic(fmt.Sprintf("exec: no vector program for %T", e))
	}
	// A predicate as a value: 1, 0 or NULL.
	t, k := c.tri(e), c.slot()
	return vnode{kind: storage.KindInt, val: func(fr *frame, sel []int32) view {
		tri := grow(&fr.slots[k].tri, len(sel))
		t(fr, sel, tri)
		out := fr.out(k, storage.KindInt, len(sel), nil)
		for j, x := range tri {
			out.nulls[j], out.ints[j] = x < 0, int64(max(x, 0))
		}
		return view{out, seq[:len(sel)]}
	}}
}

// column reads a table column through the frame's id vector for its
// table (none: the positions are its rows), or a slot of the aggregated
// layout (no table bit) at the positions themselves.
func (c *vcomp) column(e *colExpr) vnode {
	if e.tblBit == 0 {
		cr := c.b.layout[e.off]
		return vnode{kind: cr.kind, dict: cr.dict, val: func(_ *frame, sel []int32) view { return view{&cr, sel} }}
	}
	k := c.slot()
	ti := bitIndex(e.tblBit)
	cr, ok := c.b.kernelCol(ti, e)
	if !ok {
		panic("exec: column reader for a non-table column")
	}
	dict := cr.dict // nil unless the column is dictionary-coded
	return vnode{kind: cr.kind, dict: dict, val: func(fr *frame, sel []int32) view {
		if ti >= len(fr.ids) || fr.ids[ti] == nil {
			return view{cr, sel}
		}
		ids, idx, miss := fr.ids[ti], grow(&fr.slots[k].idx, len(sel)), false
		for j, p := range sel {
			idx[j] = ids[p]
			miss = miss || idx[j] < 0
		}
		if !miss {
			return view{cr, idx}
		}
		out := fr.out(k, cr.kind, len(sel), dict)
		for j, r := range idx {
			out.put(j, cr, r)
		}
		return view{out, seq[:len(sel)]}
	}}
}

// literal is a constant: one row, read at every position. A string
// literal is a one-entry dictionary (a NULL string an empty one), so a
// choice among literals stays on codes.
func literal(l *litExpr) vnode {
	kind := kindOf(l.t)
	v := conform(l.v, kind)
	cr := &colReader{kind: kind, nulls: []bool{v.IsNull()}, ints: []int64{v.I}, flts: []float64{v.F}, strs: []string{v.S}}
	if kind == storage.KindString {
		cr.codes, cr.dict = []uint16{0}, []string{v.S}
		if v.IsNull() {
			cr.dict = []string{}
		}
	}
	return vnode{kind: kind, dict: cr.dict, val: func(fr *frame, sel []int32) view { return view{cr, zero[:len(sel)]} }}
}

// arith compiles + - * / and || (kinds as arithType types them).
func (c *vcomp) arith(v *binExpr) vnode {
	l, r, k := c.val(v.l), c.val(v.r), c.slot()
	op, kind := v.op[0], kindOf(v.t)
	return vnode{kind: kind, val: func(fr *frame, sel []int32) view {
		a, b := l.val(fr, sel), r.val(fr, sel)
		out := fr.out(k, kind, len(sel), nil)
		for j := range sel {
			ra, rb := a.idx[j], b.idx[j]
			if out.nulls[j] = a.cr.null(ra) || b.cr.null(rb); out.nulls[j] {
				continue
			}
			switch kind {
			case storage.KindString:
				out.strs[j] = a.cr.text(ra) + b.cr.text(rb)
			case storage.KindFloat:
				out.flts[j], out.nulls[j] = arithF(op, a.cr.numAt(ra), b.cr.numAt(rb))
			default:
				out.ints[j] = arithI(op, a.cr.ints[ra], b.cr.ints[rb])
			}
		}
		return view{out, seq[:len(sel)]}
	}}
}

// function compiles a scalar function call through the implementation
// eval uses, on each row's boxed arguments.
func (c *vcomp) function(fn func([]storage.Value) storage.Value, es []bexpr, t schema.Type) vnode {
	args, kind, k := make([]vnode, len(es)), kindOf(t), c.slot()
	for i, a := range es {
		args[i] = c.val(a)
	}
	return vnode{kind: kind, val: func(fr *frame, sel []int32) view {
		s := &fr.slots[k]
		views, in := grow(&s.views, len(args)), grow(&s.args, len(args))
		for i, a := range args {
			views[i] = a.val(fr, sel)
		}
		out := fr.out(k, kind, len(sel), nil)
		for j := range sel {
			for i, v := range views {
				in[i] = v.cr.value(v.idx[j])
			}
			out.set(j, conform(fn(in), kind))
		}
		return view{out, seq[:len(sel)]}
	}}
}

// maxMergedDict bounds the dictionaries a choice merges at compile
// time, or a UNION ALL column: past it, strings are decoded.
const maxMergedDict = 4096

// recode returns s's code in dict, appending it on first sight.
func recode(codes map[string]uint16, dict *[]string, s string) uint16 {
	code, ok := codes[s]
	if !ok {
		code = uint16(len(*dict))
		codes[s] = code
		*dict = append(*dict, s)
	}
	return code
}

// choice compiles a CASE (the first true condition's result, else the
// ELSE) or, without conditions, a COALESCE (the first non-NULL result).
// Every branch runs over the whole batch; results on dictionaries stay
// on codes in their merged dictionary.
func (c *vcomp) choice(conds, results []bexpr, elseE bexpr, t schema.Type) vnode {
	if elseE != nil {
		results = append(results[:len(results):len(results)], elseE)
	}
	cs, rs, dicts := make([]triFn, len(conds)), make([]vnode, len(results)), make([][]string, len(results))
	for i, e := range conds {
		cs[i] = c.tri(e)
	}
	for i, e := range results {
		rs[i] = c.val(e)
		dicts[i] = rs[i].dict
	}
	kind, k := kindOf(t), c.slot()
	dict, remaps := mergeDicts(kind, dicts)
	return vnode{kind: kind, dict: dict, val: func(fr *frame, sel []int32) view {
		n, s := len(sel), &fr.slots[k]
		tri, views := grow(&s.tri, n*len(cs)), grow(&s.views, len(rs))
		for i, cond := range cs {
			cond(fr, sel, tri[i*n:(i+1)*n])
		}
		for i, r := range rs {
			views[i] = r.val(fr, sel)
		}
		out := fr.out(k, kind, n, dict)
		for j := 0; j < n; j++ {
			b := 0
			if len(cs) == 0 {
				for b < len(rs) && views[b].cr.null(views[b].idx[j]) {
					b++
				}
			} else {
				for b < len(cs) && tri[b*n+j] != 1 {
					b++
				}
			}
			if b == len(rs) {
				out.nulls[j] = true
				continue
			}
			out.putVia(j, views[b].cr, views[b].idx[j], remaps[b])
		}
		return view{out, seq[:n]}
	}}
}

// mergeDicts merges the dictionaries of string vectors into one, each
// string once: remaps[i][c] is vector i's code c there. dict is nil, and
// every remap, unless every vector is on a dictionary and they are small.
func mergeDicts(kind storage.Kind, dicts [][]string) (dict []string, remaps [][]uint16) {
	none := make([][]uint16, len(dicts))
	if kind != storage.KindString {
		return nil, none
	}
	codes, dict := map[string]uint16{}, []string{}
	for _, d := range dicts {
		if d == nil || len(dict)+len(d) > maxMergedDict {
			return nil, none
		}
		m := make([]uint16, len(d))
		for i, s := range d {
			m[i] = recode(codes, &dict, s)
		}
		remaps = append(remaps, m)
	}
	return dict, remaps
}

// ---- predicates: the boolean case ----

func (c *vcomp) truth(e bexpr) triFn {
	if constant(e) {
		// Constant predicate (bound subquery results, literal folds):
		// evaluate once.
		res, t := e.eval(nil), int8(-1)
		if !res.IsNull() {
			t = b2t(res.AsInt() != 0)
		}
		return constTri(t)
	}
	switch v := e.(type) {
	case *binExpr:
		switch v.op {
		case "AND", "OR":
			return c.logic(v)
		case "=", "<>", "<", "<=", ">", ">=":
			return c.compare(v)
		}
	case *notExpr:
		x := c.tri(v.x)
		return func(fr *frame, sel []int32, out []int8) {
			x(fr, sel, out)
			for i, t := range out {
				out[i] = [3]int8{-1, 1, 0}[t+1]
			}
		}
	case *betweenExpr:
		return c.between(v)
	case *inExpr:
		return c.in(v)
	case *likeExpr:
		pat, not := v.pattern, v.not
		return strTest(c.val(v.x), func(s string) int8 { return b2t(likeMatch(s, pat) != not) })
	case *isNullExpr:
		x, not := c.val(v.x), v.not
		return func(fr *frame, sel []int32, out []int8) {
			xv := x.val(fr, sel)
			for j, r := range xv.idx {
				out[j] = b2t(xv.cr.null(r) != not)
			}
		}
	}
	// Any other value as a condition: NULL is unknown, else true when
	// non-zero as an integer (eval's truthiness).
	x := c.val(e)
	return func(fr *frame, sel []int32, out []int8) {
		xv := x.val(fr, sel)
		for j, r := range xv.idx {
			out[j] = -1
			if !xv.cr.null(r) {
				out[j] = b2t(xv.cr.value(r).AsInt() != 0)
			}
		}
	}
}

// and3 and or3 combine three-valued verdicts exactly like binExpr,
// indexed [left+1][right+1].
var and3 = [3][3]int8{{-1, 0, -1}, {0, 0, 0}, {-1, 0, 1}}
var or3 = [3][3]int8{{-1, -1, 1}, {-1, 0, 1}, {1, 1, 1}}

func (c *vcomp) logic(v *binExpr) triFn {
	l, r, k, tab := c.tri(v.l), c.tri(v.r), c.slot(), &and3
	if v.op == "OR" {
		tab = &or3
	}
	return func(fr *frame, sel []int32, out []int8) {
		tmp := grow(&fr.slots[k].tri, len(sel))
		l(fr, sel, out)
		r(fr, sel, tmp)
		for i, x := range out {
			out[i] = tab[x+1][tmp[i]+1]
		}
	}
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

// cmpPass is each comparison's verdict on a three-way compare c,
// indexed c+1.
var cmpPass = map[string][3]bool{
	"=": {false, true, false}, "<>": {true, false, true},
	"<": {true, false, false}, "<=": {true, true, false},
	">": {false, false, true}, ">=": {false, true, true},
}

// mirror flips a comparison for operand swap (lit op col → col op').
var mirror = map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}

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

// cmpAt is storage.Compare of two non-NULL rows.
func cmpAt(a *colReader, ra int32, b *colReader, rb int32) int {
	switch an, bn := isNumKind(a.kind), isNumKind(b.kind); {
	case an && bn:
		return cmpF(a.numAt(ra), b.numAt(rb))
	case !an && !bn:
		return strings.Compare(a.str(ra), b.str(rb))
	}
	panic(fmt.Sprintf("exec: incomparable kinds %v and %v", a.kind, b.kind))
}

// compare compiles a comparison: against a literal by a typed kernel,
// else row by row in storage.Compare's order.
func (c *vcomp) compare(v *binExpr) triFn {
	l, r, op := v.l, v.r, v.op
	if _, isLit := l.(*litExpr); isLit {
		l, r, op = r, l, mirror[op]
	}
	x, pass := c.val(l), cmpPass[op]
	if lit, isLit := r.(*litExpr); isLit {
		switch lv := lit.v; {
		case lv.IsNull():
			return constTri(-1)
		case isNumKind(x.kind) && isNumKind(lv.K):
			lo, hi, not := rangeOf(op, lv.AsFloat())
			return rangeTri(x, lo, hi, not)
		case x.kind == storage.KindString && lv.K == storage.KindString:
			ls := lv.S
			return strTest(x, func(s string) int8 { return b2t(pass[strings.Compare(s, ls)+1]) })
		}
	}
	// Two string nodes on one dictionary (two bindings of a table) are
	// equal exactly when their codes are.
	y := c.val(r)
	codes := len(x.dict) > 0 && len(x.dict) == len(y.dict) && &x.dict[0] == &y.dict[0] && (op == "=" || op == "<>")
	return func(fr *frame, sel []int32, out []int8) {
		a, b := x.val(fr, sel), y.val(fr, sel)
		an, bn := a.cr.nulls, b.cr.nulls
		for j := range out {
			switch ra, rb := a.idx[j], b.idx[j]; {
			case an != nil && an[ra] || bn != nil && bn[rb]:
				out[j] = -1
			case codes:
				out[j] = b2t(pass[b2t(a.cr.codes[ra] != b.cr.codes[rb])+1])
			default:
				out[j] = b2t(pass[cmpAt(a.cr, ra, b.cr, rb)+1])
			}
		}
	}
}

// strTest is the kernel of a test of a node's non-NULL values as
// strings; on a dictionary it tests each entry once and looks codes up.
func strTest(x vnode, test func(s string) int8) triFn {
	if x.dict == nil {
		return func(fr *frame, sel []int32, out []int8) {
			v := x.val(fr, sel)
			for j, r := range v.idx {
				if v.cr.null(r) {
					out[j] = -1
				} else {
					out[j] = test(v.cr.text(r))
				}
			}
		}
	}
	tab := make([]int8, len(x.dict))
	for c, s := range x.dict {
		tab[c] = test(s)
	}
	// A code past the table is a fault (a stale table, a corrupt
	// column): the unguarded index makes it a query error instead of a
	// silently dropped row. A column without NULLs takes a loop with no
	// NULL test: per row it is a table lookup, and the test cost 42 %
	// (EXPERIMENTS.md "A column without NULLs carries no null vector").
	return func(fr *frame, sel []int32, out []int8) {
		v := x.val(fr, sel)
		nulls, codes := v.cr.nulls, v.cr.codes
		if nulls == nil {
			for j, r := range v.idx {
				out[j] = tab[codes[r]]
			}
			return
		}
		for j, r := range v.idx {
			if nulls[r] {
				out[j] = -1
			} else {
				out[j] = tab[codes[r]]
			}
		}
	}
}

// constTri is the kernel of a constant truth value.
func constTri(t int8) triFn {
	return func(_ *frame, sel []int32, out []int8) {
		for i := range sel {
			out[i] = t
		}
	}
}

// between compiles x [NOT] BETWEEN lo AND hi: typed kernels against
// literal bounds, else row by row.
func (c *vcomp) between(v *betweenExpr) triFn {
	x, not := c.val(v.x), v.not
	loL, lok := v.lo.(*litExpr)
	hiL, hok := v.hi.(*litExpr)
	if lok && hok {
		switch lo, hi := loL.v, hiL.v; {
		case lo.IsNull() || hi.IsNull():
			return constTri(-1)
		case isNumKind(x.kind) && isNumKind(lo.K) && isNumKind(hi.K):
			return rangeTri(x, lo.AsFloat(), hi.AsFloat(), not)
		case x.kind == storage.KindString && lo.K == storage.KindString && hi.K == storage.KindString:
			ls, hs := lo.S, hi.S
			return strTest(x, func(s string) int8 { return b2t((s >= ls && s <= hs) != not) })
		}
	}
	lo, hi := c.val(v.lo), c.val(v.hi)
	return func(fr *frame, sel []int32, out []int8) {
		a, l, h := x.val(fr, sel), lo.val(fr, sel), hi.val(fr, sel)
		for j := range out {
			ra, rl, rh := a.idx[j], l.idx[j], h.idx[j]
			if a.cr.null(ra) || l.cr.null(rl) || h.cr.null(rh) {
				out[j] = -1
			} else {
				out[j] = b2t((cmpAt(a.cr, ra, l.cr, rl) >= 0 && cmpAt(a.cr, ra, h.cr, rh) <= 0) != not)
			}
		}
	}
}

// rangeOf is a comparison with a number as a range test: in
// storage.Compare's float64 order x < f is x <= the float below f, and
// x <> f is NOT x BETWEEN f AND f.
func rangeOf(op string, f float64) (lo, hi float64, not bool) {
	inf := math.Inf(1)
	switch op {
	case "<":
		return -inf, math.Nextafter(f, -inf), false
	case "<=":
		return -inf, f, false
	case ">":
		return math.Nextafter(f, inf), inf, false
	case ">=":
		return f, inf, false
	}
	return f, f, op == "<>"
}

// rangeTri is x [NOT] BETWEEN lo AND hi over a numeric node: every
// number-literal comparison, the hottest kernels of the workload.
func rangeTri(x vnode, lo, hi float64, not bool) triFn {
	if x.kind == storage.KindFloat {
		return func(fr *frame, sel []int32, out []int8) {
			v := x.val(fr, sel)
			rangeKernel(v.cr.flts, v.cr.nulls, v.idx, lo, hi, not, out)
		}
	}
	return func(fr *frame, sel []int32, out []int8) {
		v := x.val(fr, sel)
		rangeKernel(v.cr.ints, v.cr.nulls, v.idx, lo, hi, not, out)
	}
}

// rangeKernel runs a loop with no NULL test on a column without NULLs:
// the test cost 10 % (integers) to 32 % (floats) of the kernel
// (EXPERIMENTS.md "A column without NULLs carries no null vector").
func rangeKernel[T int64 | float64](vals []T, nulls []bool, idx []int32, lo, hi float64, not bool, out []int8) {
	nb := b2t(not) // branch-free: b2t compiles to a flag set
	if nulls == nil {
		for i, r := range idx {
			f := float64(vals[r])
			out[i] = b2t(f >= lo)&b2t(f <= hi) ^ nb
		}
		return
	}
	for i, r := range idx {
		if nulls[r] {
			out[i] = -1
			continue
		}
		f := float64(vals[r])
		out[i] = b2t(f >= lo)&b2t(f <= hi) ^ nb
	}
}

// in compiles x [NOT] IN (members): a row looks its value up in the
// member set of x's kind, the set eval uses.
func (c *vcomp) in(v *inExpr) triFn {
	x, hasNull, not := c.val(v.x), v.hasNull, v.not
	member := func(found bool) int8 {
		if !found && hasNull {
			return -1 // x IN (..., NULL) is UNKNOWN when no member matches
		}
		return b2t(found != not)
	}
	found := func(cr *colReader, r int32) bool { return v.set.has(cr.value(r)) }
	switch x.kind {
	case storage.KindString:
		set := v.set.strs
		return strTest(x, func(s string) int8 { return member(set[s]) })
	case storage.KindInt, storage.KindDate:
		set := v.set.ints
		if x.kind == storage.KindDate {
			set = v.set.dates
		}
		found = func(cr *colReader, r int32) bool { return set[cr.ints[r]] }
	case storage.KindFloat:
		set := v.set.flts
		found = func(cr *colReader, r int32) bool { return set[floatMember(cr.flts[r])] }
	}
	return func(fr *frame, sel []int32, out []int8) {
		xv := x.val(fr, sel)
		for j, r := range xv.idx {
			out[j] = -1
			if !xv.cr.null(r) {
				out[j] = member(found(xv.cr, r))
			}
		}
	}
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
