// Morsel-driven intra-query parallelism. The paper's data generator is
// explicitly parallel (MUDD-style independent streams, §3); the
// executor matches it: every large scan, hash-join build/probe and
// aggregation is split into fixed-size morsels of rows dispatched to a
// worker pool (Leis et al., "Morsel-Driven Parallelism", SIGMOD 2014).
// Workers pull morsels from a shared counter, so stragglers cannot
// stall the pool.
//
// Determinism contract: every parallel operator produces output
// bit-identical to its serial counterpart —
//
//   - scans and probes buffer output per morsel and concatenate in
//     morsel order, which equals the serial row order;
//   - stream joins (build-on-smaller-side) collect match pairs and
//     sort them probe-major, so their output is bit-identical to the
//     probe join's regardless of which side was hashed;
//   - hash-table builds partition by key hash, and each partition is
//     filled by one worker walking the morsels in order, so row-id
//     lists per key match the serial build;
//   - aggregation numbers groups serially in first-seen row order and
//     partitions them into ranges of consecutive group ids; each
//     partition worker visits rows in global row order, so per-group
//     accumulation order (and therefore float sums) matches the serial
//     fold.
//
// The differential tests run every query in both modes and compare
// results exactly.
package exec

import (
	"sync"
	"sync/atomic"

	"tpcds/internal/index"
	"tpcds/internal/obs"
	"tpcds/internal/plan"
)

// defaultMorselRows is the scan morsel size. ~64K rows amortizes
// scheduling overhead while leaving enough morsels for load balancing
// on warehouse-scale tables.
const defaultMorselRows = 64 * 1024

// workers resolves the engine's configured parallelism to a worker
// count (package plan owns the resolution rule).
func (e *Engine) workers() int { return plan.Parallelism(e.parallelism) }

// morselSize returns the configured morsel row count.
func (e *Engine) morselSize() int {
	if e.morselRows > 0 {
		return e.morselRows
	}
	return defaultMorselRows
}

// inMorsels runs fn over [0,n) through forEachMorsel, under its capture
// contract, when there are workers and n exceeds a morsel; else as the
// one call fn(0, 0, 0, n).
func (e *Engine) inMorsels(qc *qctx, tr *Trace, n int, fn func(worker, morsel, lo, hi int)) {
	if workers := e.parts(n); workers > 1 {
		tr.addWork(forEachMorsel(qc, workers, n, e.morselSize(), fn))
		return
	}
	fn(0, 0, 0, n)
}

// parts is how many workers n rows are split over.
func (e *Engine) parts(n int) int {
	if n > e.morselSize() {
		return e.workers()
	}
	return 1
}

// forEachMorsel splits [0,n) into morsels of morselRows rows and
// dispatches them to workers goroutines. Workers pull morsel indexes
// from a shared atomic counter. fn receives (worker, morsel, lo, hi).
// Returns the number of morsels each worker processed. A panic inside
// fn is re-raised on the calling goroutine so Query's recover converts
// it to an error as usual.
//
// Cancellation: workers poll the query context between morsels. When it
// fires they stop pulling work and return — the pool always drains
// cleanly, leaking no goroutines — and the coordinator re-raises the
// cancellation after the drain so the query unwinds to QueryContext.
//
// Capture contract: fn runs on multiple goroutines at once, so it may
// capture only values that are immutable after construction,
// per-worker-owned slots (counts[worker]-style), or lock-protected
// state. The -race runs of the parallel differentials
// (TestParallelEqualsSequential and friends) check it.
func forEachMorsel(qc *qctx, workers, n, morselRows int, fn func(worker, morsel, lo, hi int)) []int {
	numMorsels := (n + morselRows - 1) / morselRows
	if workers > numMorsels {
		workers = numMorsels
	}
	if workers < 1 {
		workers = 1
	}
	counts := make([]int, workers)
	// The operator span is captured once by the coordinator; workers
	// parent their per-morsel spans under it (span creation is
	// goroutine-safe, and the capture happens-before every spawn).
	opsp := qc.opSpan()
	// Workers pull morsel numbers off next until none are left or the
	// query is cancelled. counts needs no lock: counts[worker] is written
	// by exactly one worker, and parallelFor joins them all before the
	// reads below.
	var next atomic.Int64
	parallelFor(workers, func(worker int) {
		for !qc.done() {
			m := int(next.Add(1)) - 1
			if m >= numMorsels {
				return
			}
			lo := m * morselRows
			runMorsel(qc, opsp, worker, m, lo, min(lo+morselRows, n), fn)
			counts[worker]++
		}
	})
	qc.checkNow()
	// Fold the morsel count into the current operator's profile node.
	// Per-worker counts are summed after the barrier on the coordinator,
	// so the aggregate is the same whatever the worker schedule was.
	total := 0
	for _, c := range counts {
		total += c
	}
	qc.opMorsels(int64(total))
	return counts
}

// runMorsel executes one morsel under its observability span and
// counter. Safe from worker goroutines. A panic inside fn leaves the
// morsel span unfinished, which the tracer simply never exports. With
// tracing and metrics disabled this adds two nil checks per morsel.
func runMorsel(qc *qctx, opsp *obs.Span, worker, m, lo, hi int, fn func(worker, morsel, lo, hi int)) {
	qc.countMorsel()
	if opsp == nil {
		fn(worker, m, lo, hi)
		return
	}
	// Lane scheme: morsel lanes nest under the query's lane (stream
	// tid S becomes worker lanes S*100+1..S*100+workers), so a Chrome
	// trace shows each stream's workers as adjacent tracks.
	msp := opsp.ChildTID("morsel", opsp.TID()*100+worker+1)
	msp.SetAttrInt("worker", int64(worker))
	msp.SetAttrInt("morsel", int64(m))
	msp.SetAttrInt("rows", int64(hi-lo))
	fn(worker, m, lo, hi)
	msp.End()
}

// parallelFor runs fn(p) for every p in [0,workers) on its own
// goroutine and waits; the first panic is re-raised on the caller.
// fn's captures are held to the same contract as forEachMorsel's:
// immutable, per-worker-owned, or lock-protected.
func parallelFor(workers int, fn func(p int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	// Ownership: the caller owns every goroutine spawned below — wg.Add
	// happens before each spawn, each one's first defer is wg.Done, and
	// the unconditional wg.Wait joins them all before parallelFor
	// returns, so no goroutine outlives the call. panicMu guards only
	// panicVal (first panic wins); it is held for two statements and
	// never across fn or a channel op.
	var panicMu sync.Mutex
	var panicVal any
	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			fn(p)
		}(p)
	}
	wg.Wait()
	if panicVal != nil {
		//lint:ignore panics re-raising the worker's panic on the coordinator preserves the boundary recover contract
		panic(panicVal)
	}
}

// partOf hashes a group/join key to a partition (FNV-1a; must be
// deterministic across runs, so no seeded maphash).
func partOf[K ~string | ~[]byte](key K, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(parts))
}

// scanFiltered emits table ti's selection as the driver rowSet, which
// takes the id vector over as its own. An unfiltered driver has no
// filter scan behind it: its identity vector is materialised here,
// under a scan node of its own, and charged to it on the way out.
func (e *Engine) scanFiltered(b *binder, ti int, filters []filterInfo, tr *Trace) *rowSet {
	sel := b.selection(ti, filters, tr)
	rs := &rowSet{n: sel.n, ids: make([][]int32, len(b.tables))}
	if sel.all {
		sp := b.qc.startOp("scan", b.tableAt(ti).binding)
		defer b.qc.endOp(sp)
		b.qc.opRowsIn(sp, int64(sel.n))
		b.qc.opRowsOut(sp, int64(sel.n))
		b.readAll(sel)
		defer rs.charge(b.qc, 0)
	}
	rs.ids[ti] = sel.rowIDs()
	return rs
}

// hashTable is a join build side: row ids keyed by join key, partitioned
// by key hash when built in parallel. Within a partition the row ids of
// a key appear in input order — exactly what the serial build produces —
// so probe output is identical either way. Exactly one field is set:
// ints, the raw-int64 fast path for a single integer-class column on
// both sides, or strs, keyed on the GroupKey encoding.
type hashTable struct {
	ints []*index.HashIndex
	strs []map[string][]int32
}

// probe returns the build-side row ids matching the key of position i
// read through ks (nil on a NULL key: NULL never joins). buf is the
// caller's reusable key buffer, returned possibly grown.
func (h *hashTable) probe(ks []keySource, i int32, buf []byte) ([]int32, []byte) {
	if h.ints != nil {
		k, ok := ks[0].intAt(i)
		if !ok {
			return nil, buf
		}
		return h.ints[partOfInt(k, len(h.ints))].Lookup(k), buf
	}
	buf, ok := appendKey(ks, i, buf[:0])
	if !ok {
		return nil, buf
	}
	return h.strs[partOf(buf, len(h.strs))][string(buf)], buf
}

// stagePairs reads the join key of every row of sel through key and
// keeps the (key, row id) pairs whose key is not NULL (NULL never
// joins), in selection order.
func stagePairs[K any](qc *qctx, sel *selection, key func(r int32) (K, bool)) (keys []K, rows []int32) {
	keys, rows = make([]K, 0, sel.n), make([]int32, 0, sel.n)
	for i := 0; i < sel.n; i++ {
		if i%tickInterval == 0 {
			qc.checkNow()
		}
		r := sel.at(i)
		if k, ok := key(r); ok {
			keys, rows = append(keys, k), append(rows, r)
		}
	}
	return keys, rows
}

// newHashTable hashes the rows of sel by the key read through ks into
// parts partitions; it returns the table and the number of rows hashed.
func newHashTable(qc *qctx, ks []keySource, intKeys bool, sel *selection, parts int) (*hashTable, int) {
	if intKeys {
		keys, rows := stagePairs(qc, sel, ks[0].intAt)
		return &hashTable{ints: hashParts(qc, keys, rows, 12, parts, partOfInt, index.BuildHashIndexPairs)}, len(rows)
	}
	var buf []byte
	keys, rows := stagePairs(qc, sel, func(r int32) (key string, ok bool) {
		buf, ok = appendKey(ks, r, buf[:0])
		return string(buf), ok
	})
	return &hashTable{strs: hashParts(qc, keys, rows, 32, parts, partOf[string], func(keys []string, rows []int32) map[string][]int32 {
		part := make(map[string][]int32, len(keys))
		for i, k := range keys {
			part[k] = append(part[k], rows[i])
		}
		return part
	})}, len(rows)
}

// hashParts indexes the staged pairs — the build's dominant scratch,
// pairBytes each, dropped by the caller — in parts partitions: one
// worker per partition builds its share, walking the pairs in order.
func hashParts[K, P any](qc *qctx, keys []K, rows []int32, pairBytes int64, parts int, partOf func(K, int) int, build func([]K, []int32) P) []P {
	qc.growScratch(int64(len(rows)) * pairBytes)
	defer qc.shrinkScratch(int64(len(rows)) * pairBytes)
	out := make([]P, parts)
	parallelFor(parts, func(p int) {
		pk, pr := keys, rows
		if parts > 1 {
			pk, pr = nil, nil
			for i, k := range keys {
				if i%(64*tickInterval) == 0 {
					qc.checkNow()
				}
				if partOf(k, parts) == p {
					pk, pr = append(pk, k), append(pr, rows[i])
				}
			}
		}
		out[p] = build(pk, pr)
	})
	return out
}

// baseIndex returns the engine's cached hash index on column col of
// table ti, or nil when the instance is not the catalog's base table (a
// CTE of the same name). A cold cache — first use, or maintenance changed
// the table — builds the index here, and that one read and hashing of
// the column goes on this query's counters.
func (b *binder) baseIndex(ti, col int) *index.HashIndex {
	inst := b.tableAt(ti)
	if b.eng.db.Table(inst.tab.Def.Name) != inst.tab {
		return nil
	}
	ix, built := b.eng.hashIndex(inst.tab, col)
	if built {
		b.qc.countScan(ix.NumRows())
		b.qc.countBuild(ix.NumRows())
	}
	return ix
}

// buildHashTable indexes table ti's selection by the build key columns,
// read straight off the column vectors. probe is consulted only to
// decide the key representation: a single integer-class column pair
// keys on raw int64 values (GroupKey keeps int and date keys disjoint,
// so the raw fast path is only taken when both sides share a class).
// An unfiltered base table on that path builds nothing: the engine's
// index on the column lists the same row ids in the same order. Large
// selections are hashed in one partition per worker.
func (e *Engine) buildHashTable(b *binder, ti int, filters []filterInfo, probe, build []*colExpr, tr *Trace) *hashTable {
	inst := b.tableAt(ti)
	sel := b.selection(ti, filters, tr)
	sp := b.startStep("build", ti, sel.n, -1)
	defer b.qc.endOp(sp)
	intKeys := intJoinKey(probe, build)
	if intKeys && sel.all {
		if ix := b.baseIndex(ti, build[0].off-inst.offset); ix != nil {
			b.qc.opRowsOut(sp, int64(sel.n))
			return &hashTable{ints: []*index.HashIndex{ix}}
		}
	}
	b.readAll(sel)
	ht, built := newHashTable(b.qc, b.keySources(nil, build), intKeys, sel, e.parts(sel.n))
	b.qc.countBuild(built)
	b.qc.opRowsOut(sp, int64(built))
	return ht
}

// streamJoin hashes the (smaller) current intermediate result and
// streams table ti's selection past it — the build-on-smaller-side
// branch of the hash pipeline. The streamed side is morsel-parallel.
//
// Output order is probe-major — current rows ascending, matching table
// rows ascending within each — exactly the order a probe produces.
// That makes the build-side choice (and the runtime threshold behind
// it) invisible in the output, which the planner's join-order search
// depends on: any plan property may vary with estimates except row
// order. The streamed side therefore collects (li, r) match pairs
// (globally r-ascending after morsel-order concatenation) and a stable
// counting sort on li puts them in probe-major order.
func (e *Engine) streamJoin(b *binder, current *rowSet, ti int, probe, build []*colExpr, filters []filterInfo, stepEst float64, tr *Trace) *rowSet {
	sel := b.selection(ti, filters, tr)
	sp := b.startStep("stream", ti, sel.n, stepEst)
	defer b.qc.endOp(sp)
	b.readAll(sel)
	// The build side is the current intermediate: its positions keyed by
	// the probe columns read through the id vectors.
	ht, built := newHashTable(b.qc, b.keySources(current, probe), intJoinKey(probe, build), &selection{n: current.n, all: true}, 1)
	b.qc.countBuild(built)
	// Keys of the streamed rows come straight off the table's vectors;
	// survivors that probe nothing cost one table miss.
	bks := b.keySources(nil, build)
	pairs := collectMorsels(e, b.qc, sel.n, tr, func(lo, hi int) []matchPair {
		var out []matchPair
		var buf []byte
		var lis []int32
		for i := lo; i < hi; i++ {
			if i%tickInterval == 0 {
				b.qc.checkNow()
			}
			r := sel.at(i)
			lis, buf = ht.probe(bks, r, buf)
			for _, li := range lis {
				out = append(out, matchPair{li: li, r: r})
			}
		}
		return out
	})
	out := current.extend(b.qc, sortPairsByLeft(pairs, current.n), ti)
	b.qc.opRowsOut(sp, int64(out.n))
	return out
}
