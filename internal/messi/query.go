package messi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/engine"
	"dsidx/internal/isax"
	"dsidx/internal/paa"
	"dsidx/internal/series"
	"dsidx/internal/vector"
	"dsidx/internal/xsync"
)

// QueryStats counts the work of one query, exposing the pruning effects the
// paper credits for MESSI's speedups.
type QueryStats struct {
	ProbeLeaves    int // leaves probed by the BSF-seeding approximate phase
	LeavesInserted int // leaves that survived tree pruning
	LeavesPopped   int // candidate leaves actually refined
	EntriesChecked int // per-series lower bounds computed
	RawDistances   int // exact distances computed (incl. approximate phase)
	// Observed is the number of series this query answered over: the
	// consistent prefix (base collection + published appends) captured at
	// query start. A serial scan over exactly that prefix returns the
	// bit-identical answer.
	Observed int
	// UncoveredShards lists the shards a partial-results query (the shard
	// layer's AllowPartial mode) could not cover — quarantined or failing
	// at query time. Empty on a complete answer; never set by an unsharded
	// index.
	UncoveredShards []int
}

// view is the consistent cut one query observes: a tree snapshot plus the
// count of appended series published at capture time. Loading the snapshot
// before the append count guarantees aLive ≥ snap.mergedA — the delta
// suffix [snap.mergedA, aLive) is exactly what the tree does not cover.
type view struct {
	snap  *snapshot
	aLive int // published appended series
}

func (ix *Index) view() view {
	s := ix.snap.Load()
	return view{snap: s, aLive: int(ix.appended.Load())}
}

// total returns the number of series the view answers over.
func (v view) total(baseLen int) int { return baseLen + v.aLive }

// searchScratch is the pooled per-query working set: summarizer, summary
// buffers, lower-bound lookup tables and the candidate arrays. At the
// default configuration these total ~70KB per query — allocating them per
// Search call is invisible at one query at a time but dominates allocator
// traffic at serving rates, so in-flight queries check them out of a
// sync.Pool and sustained QPS recycles a bounded working set.
type searchScratch struct {
	sm    *core.Summarizer
	qsax  []uint8
	qpaa  []float64
	table *isax.QueryTable
	mt    *isax.MultiTable
	// runs holds one candidate run per traversal task; cands is their
	// concatenation sorted by bound (spare is its sort buffer): the
	// best-first work list of the refinement phase.
	runs  [][]candidate
	cands []candidate
	spare []candidate
	// probed records the leaves the approximate phase refined, so the
	// traversal skips re-inserting them: a probed leaf is already fully
	// refined against a bound at least as tight, and re-refining it would
	// double-count its surviving entries' distances. Read-only during the
	// traversal; len ≤ ProbeLeaves, so membership is a pointer scan.
	probed []*core.Node
}

func (ix *Index) newScratch() *searchScratch {
	return &searchScratch{
		sm:    core.NewSummarizer(ix.cfg, ix.Tree().Quantizer()),
		qsax:  make([]uint8, ix.cfg.Segments),
		qpaa:  make([]float64, ix.cfg.Segments),
		table: &isax.QueryTable{},
		mt:    &isax.MultiTable{},
	}
}

func (ix *Index) getScratch() *searchScratch { return ix.scratch.Get().(*searchScratch) }

func (ix *Index) putScratch(sc *searchScratch) {
	// Drop the leaf pointers before parking in the pool: after a merge
	// retires a snapshot, a pooled scratch must not pin the old subtrees'
	// materialized raw blocks until its next reuse. Nothing is ever
	// written past a slice's length, so clearing up to it suffices.
	clear(sc.probed)
	sc.probed = sc.probed[:0]
	clear(sc.cands)
	clear(sc.spare)
	sc.cands, sc.spare = sc.cands[:0], sc.spare[:0]
	for i := range sc.runs {
		clear(sc.runs[i])
		sc.runs[i] = sc.runs[i][:0]
	}
	ix.scratch.Put(sc)
}

// lbScratch is a reusable lower-bound buffer. Every refinement or
// delta-scan task checks one out of the index's pool for its lifetime, so
// concurrent tasks of the same query never share a buffer and sustained
// traffic recycles a bounded set (one buffer per concurrently running
// task, not per leaf).
type lbScratch struct{ buf []float64 }

// take returns a length-n bound buffer, growing the backing array only
// when a leaf exceeds every previous one (over-capacity duplicate leaves
// can exceed the configured leaf capacity).
func (s *lbScratch) take(n int) []float64 {
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	return s.buf[:n]
}

func (ix *Index) getLB() *lbScratch  { return ix.lbPool.Get().(*lbScratch) }
func (ix *Index) putLB(s *lbScratch) { ix.lbPool.Put(s) }

// summarizeQuery fills the scratch summary buffers for q.
func (sc *searchScratch) summarizeQuery(q series.Series) {
	sc.sm.Summarize(q, sc.qsax)
	copy(sc.qpaa, sc.sm.PAA(q))
}

// leafSeries returns leaf entry i's raw values: the leaf's materialized
// block when present — entries of one leaf are then consecutive in memory,
// so refinement streams through them — falling back to a positional read
// from the collection/append store for unmaterialized trees.
func (ix *Index) leafSeries(leaf *core.Node, i int) series.Series {
	if raw := leaf.EntryRaw(i, ix.cfg.SeriesLen); raw != nil {
		return raw
	}
	return ix.At(int(leaf.Pos[i]))
}

// forLeafBounds computes the whole leaf's summary lower bounds in one
// batched pass over its contiguous SAX block (bit-identical to the
// per-entry MinDistSAX values) and invokes each for every entry. Callers
// read their live pruning threshold inside each, so every compare sees
// the freshest BSF. This is the shared skeleton of all three refinement
// flavors (ED, k-NN, DTW).
func (ix *Index) forLeafBounds(table *isax.QueryTable, leaf *core.Node, st *QueryStats, lb *lbScratch, each func(i int, bound float64)) {
	bounds := lb.take(leaf.Count)
	vector.MinDistBatch(table.Cells(), leaf.SAX, ix.cfg.Segments, table.Card(), bounds)
	st.EntriesChecked += leaf.Count
	for i, b := range bounds {
		each(i, b)
	}
}

// forDeltaBounds is forLeafBounds over the delta suffix [lo, hi): bounds
// are batched run-by-run over the append log's chunk-contiguous rows, and
// each receives absolute delta indexes.
func (ix *Index) forDeltaBounds(table *isax.QueryTable, lo, hi int, st *QueryStats, lb *lbScratch, each func(i int, bound float64)) {
	for i := lo; i < hi; {
		rows, k := ix.saxLog.Run(i, hi)
		bounds := lb.take(k)
		vector.MinDistBatch(table.Cells(), rows, ix.cfg.Segments, table.Card(), bounds)
		st.EntriesChecked += k
		for j, b := range bounds {
			each(i+j, b)
		}
		i += k
	}
}

// probeLeaves runs the approximate phase: the p best leaves under the
// query's summary (see core.Tree.BestLeavesApprox) are refined with the
// same closure the best-first phase uses, seeding the BSF with exact
// distances. Probing several neighboring leaves instead of one tightens
// the initial BSF, which shrinks everything downstream: fewer leaves
// survive tree pruning, fewer entries survive the lower-bound filter.
func (ix *Index) probeLeaves(sc *searchScratch, t *core.Tree, stats *QueryStats,
	refine func(leaf *core.Node, st *QueryStats, lb *lbScratch)) {
	lb := ix.getLB()
	sc.probed = append(sc.probed[:0], t.BestLeavesApprox(sc.qsax, sc.qpaa, ix.probeLeavesNow())...)
	for _, leaf := range sc.probed {
		stats.ProbeLeaves++
		refine(leaf, stats, lb)
	}
	ix.putLB(lb)
}

// wasProbed reports whether the approximate phase already refined leaf.
func (sc *searchScratch) wasProbed(leaf *core.Node) bool {
	for _, p := range sc.probed {
		if p == leaf {
			return true
		}
	}
	return false
}

// identPos is the position map of an unsharded query: local positions ARE
// the answer positions.
func identPos(p int32) int32 { return p }

// Scope bounds one query's visible position space and carries its tenant
// identity. The zero Scope answers over nothing appended — use FullScope
// (or AppendCut: -1) for "everything published".
type Scope struct {
	// AppendCut, when ≥ 0, bounds the query to the first AppendCut appended
	// series, so a sharding layer can pin one consistent cross-shard
	// prefix; -1 answers over everything published at call time.
	AppendCut int
	// LowPos, when > 0, excludes answers whose mapped (global) position is
	// below it — the sliding-window lower cut. Composed with AppendCut the
	// query ranges over exactly the global suffix [LowPos, cut).
	LowPos int32
	// Tenant is an opaque tenant ID for fair scheduling: the engine divides
	// pool shares across tenants with live queries, so one tenant's storm
	// cannot starve the rest. "" is the untenanted default (exactly the
	// pre-tenant behavior).
	Tenant string
}

// FullScope answers over everything published, untenanted.
var FullScope = Scope{AppendCut: -1}

// qfilter is the per-entry visibility filter one query carries: the
// exclusive local position limit (merged appends beyond the scope's append
// cut), the tombstone set loaded at query start, and the window's lower
// global position. One consistent filter per query — a delete or append
// landing mid-query is invisible, exactly like a mid-query merge.
type qfilter struct {
	posLimit int32
	lowPos   int32
	tombs    *tombSet
}

// skip reports whether the entry at local position p is outside the query's
// scope: past the append cut, tombstoned, or (for window queries) mapping
// below the window's global lower cut.
func (f *qfilter) skip(p int32, mp func(int32) int32) bool {
	if p >= f.posLimit || f.tombs.has(p) {
		return true
	}
	return f.lowPos > 0 && mp(p) < f.lowPos
}

// failQuery records a search that is returning a contained-fault error
// instead of an answer, feeding Health().FailedSearches.
func (ix *Index) failQuery(err error) error {
	ix.searchFails.Add(1)
	return err
}

// beginQuery registers a query with the engine's counters. A sub-search —
// one shard's branch of a scatter-gather query, recognizable by its
// non-nil position map — contributes to pool scheduling (FairShare) but
// not to the Queries throughput counter: the sharding layer counts the
// logical query exactly once. Every search flavor funnels through here,
// so the returned end also feeds the index's own observability surface
// (per-index search count and latency histogram) and gives the tuner
// its per-query tick.
func (ix *Index) beginQuery(sub bool, tenant string) (end func()) {
	t0 := time.Now()
	var endE func()
	if sub {
		endE = ix.eng.BeginSubQueryTenant(tenant)
	} else {
		endE = ix.eng.BeginQueryTenant(tenant)
	}
	return func() {
		endE()
		ix.searches.Add(1)
		ix.queryDur.Observe(time.Since(t0).Seconds())
		ix.maybeTune()
	}
}

// sharedCut prepares the cross-index search state: the view (its delta
// suffix capped at the scope's append cut when a sharding layer pins this
// query to a consistent global prefix), the position map, and the per-entry
// visibility filter. A merge may already have folded appends beyond the cut
// into the tree snapshot — those entries are filtered by position during
// refinement, so the answer covers exactly the scoped slice of
// [0, baseLen+cut), minus the tombstones published at capture time.
func (ix *Index) sharedCut(mapPos func(int32) int32, scope Scope) (v view, mp func(int32) int32, f qfilter) {
	v = ix.view()
	if scope.AppendCut >= 0 && scope.AppendCut < v.aLive {
		v.aLive = scope.AppendCut
	}
	mp = mapPos
	if mp == nil {
		mp = identPos
	}
	f = qfilter{
		posLimit: int32(ix.baseLen + v.aLive),
		lowPos:   scope.LowPos,
		tombs:    ix.tombs.Load(),
	}
	return v, mp, f
}

// Search answers an exact 1-NN query over everything the index holds at
// call time: the tree snapshot plus an exact scan of the unmerged delta.
// workers ≤ 0 means the index's configured worker count; the effective
// parallelism is additionally capped by the index's pool size, which all
// in-flight queries share.
func (ix *Index) Search(q series.Series, workers int) (core.Result, *QueryStats, error) {
	return ix.SearchScoped(q, workers, FullScope)
}

// SearchScoped is Search under an explicit Scope: a bounded append cut, a
// sliding-window lower cut, a tenant identity, or any combination.
func (ix *Index) SearchScoped(q series.Series, workers int, scope Scope) (core.Result, *QueryStats, error) {
	if len(q) != ix.cfg.SeriesLen {
		return core.NoResult(), nil, fmt.Errorf("messi: query length %d != %d", len(q), ix.cfg.SeriesLen)
	}
	best := xsync.NewBest()
	stats, err := ix.SearchShared(q, workers, best, nil, scope)
	if err != nil {
		return core.NoResult(), nil, err
	}
	d, p := best.Load()
	return core.Result{Pos: int32(p), Dist: d}, stats, nil
}

// SearchWindow answers an exact 1-NN query over the most recent n landed
// series: the consistent append cut captured at call time composed with a
// lower cut n positions back. A window wider than everything landed so far
// degenerates to Search. The answer is bit-identical to a serial scan of
// exactly that suffix minus tombstones.
func (ix *Index) SearchWindow(q series.Series, n, workers int) (core.Result, *QueryStats, error) {
	return ix.SearchWindowTenant(q, n, workers, "")
}

// SearchWindowTenant is SearchWindow under a tenant identity.
func (ix *Index) SearchWindowTenant(q series.Series, n, workers int, tenant string) (core.Result, *QueryStats, error) {
	scope, err := ix.windowScope(n)
	if err != nil {
		return core.NoResult(), nil, err
	}
	scope.Tenant = tenant
	return ix.SearchScoped(q, workers, scope)
}

// windowScope captures the consistent cut of a most-recent-n window: the
// published append count as the upper cut, total-n as the global lower cut.
func (ix *Index) windowScope(n int) (Scope, error) {
	if n <= 0 {
		return Scope{}, fmt.Errorf("messi: window size %d, want > 0", n)
	}
	cut := int(ix.appended.Load())
	return Scope{AppendCut: cut, LowPos: int32(max(0, ix.baseLen+cut-n))}, nil
}

// SearchShared is the scatter-gather form of Search, the injection point a
// sharding layer uses to run one logical query across many indexes: the
// best-so-far lives in the caller-owned best, so a tight bound found by any
// shard immediately prunes every other shard's traversal, lower-bound
// filtering and early abandoning — not just the merged answer afterwards.
// Every improvement is recorded under mapPos (local position → the caller's
// global position space; nil means identity). scope bounds the visible
// position space — append cut, window lower cut — and names the tenant (see
// Scope); FullScope answers over everything published. The caller reads the
// answer from best after the call (and after every sibling shard's call,
// when sharing).
func (ix *Index) SearchShared(q series.Series, workers int, best *xsync.Best, mapPos func(int32) int32, scope Scope) (stats *QueryStats, err error) {
	if len(q) != ix.cfg.SeriesLen {
		return nil, fmt.Errorf("messi: query length %d != %d", len(q), ix.cfg.SeriesLen)
	}
	v, mp, f := ix.sharedCut(mapPos, scope)
	stats = &QueryStats{Observed: v.total(ix.baseLen)}
	if stats.Observed == 0 {
		return stats, nil
	}
	// Coordinator-side containment: the approximate phase refines leaves on
	// this goroutine, so a cold-device fault here does not pass through any
	// pool-task boundary — recover it into the same typed error shape.
	defer func() {
		if r := recover(); r != nil {
			stats, err = nil, ix.failQuery(engine.Contain(r))
		}
	}()

	sc := ix.getScratch()
	defer ix.putScratch(sc)
	sc.summarizeQuery(q)

	t := v.snap.tree
	sc.table.FillED(t.Quantizer(), sc.qpaa, ix.cfg.SeriesLen)
	sc.mt.FillFrom(t.Quantizer(), sc.table)

	refine := func(leaf *core.Node, st *QueryStats, lb *lbScratch) {
		ix.refineLeafED(q, sc.table, leaf, best, st, lb, mp, f)
	}
	// Approximate phase: exact distances over the closest p leaves.
	ix.probeLeaves(sc, t, stats, refine)

	if err := ix.bestFirstSearch(workers, mapPos != nil, scope.Tenant, stats, best.Distance, sc, v,
		refine,
		func(lo, hi int, st *QueryStats, lb *lbScratch) {
			ix.forDeltaBounds(sc.table, lo, hi, st, lb, func(i int, b float64) {
				limit := best.Distance()
				if b >= limit || f.skip(int32(ix.baseLen+i), mp) {
					return
				}
				st.RawDistances++
				if d := vector.SquaredEDEarlyAbandon(q, ix.store.At(i), limit); d < limit {
					best.Update(d, int64(mp(int32(ix.baseLen+i))))
				}
			})
		}); err != nil {
		return nil, ix.failQuery(err)
	}
	return stats, nil
}

// RunBatch answers one exact query per element of qs concurrently under
// eng's admission control — the shared skeleton of every BatchSearch
// surface (plain and sharded): at most MaxInFlight worker goroutines claim
// queries with Fetch&Inc, each holding an admission slot for the duration
// of its search. results[i] and stats[i] answer qs[i]; the first query
// error (if any) is returned after all queries finish.
func RunBatch(eng *engine.Engine, qs []series.Series,
	search func(q series.Series) (core.Result, *QueryStats, error)) ([]core.Result, []QueryStats, error) {
	results := make([]core.Result, len(qs))
	stats := make([]QueryStats, len(qs))
	errs := make([]error, len(qs))
	spawn := min(len(qs), eng.MaxInFlight())
	var next xsync.Counter
	var wg sync.WaitGroup
	for w := 0; w < spawn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Next())
				if i >= len(qs) {
					return
				}
				release := eng.Admit()
				var st *QueryStats
				results[i], st, errs[i] = search(qs[i])
				if st != nil {
					stats[i] = *st
				}
				release()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, stats, err
		}
	}
	return results, stats, nil
}

// BatchSearchStats answers many exact 1-NN queries concurrently on the
// shared worker pool, bounded by the engine's admission control, returning
// each query's answer and work stats.
func (ix *Index) BatchSearchStats(qs []series.Series) ([]core.Result, []QueryStats, error) {
	return RunBatch(ix.eng, qs, func(q series.Series) (core.Result, *QueryStats, error) {
		return ix.Search(q, 0)
	})
}

// BatchSearch is BatchSearchStats without the per-query stats.
func (ix *Index) BatchSearch(qs []series.Series) ([]core.Result, error) {
	results, _, err := ix.BatchSearchStats(qs)
	return results, err
}

// refineLeafED checks a leaf's entries: lower bounds for the whole leaf
// are computed in one batched pass over its contiguous SAX block (bit-
// identical to the per-entry MinDistSAX values), then survivors pay an
// early-abandoning real distance against the leaf's materialized raw
// block — two sequential streams instead of per-entry pointer chasing.
// Entries outside the query's filter — past the consistent cut, tombstoned,
// or below a window's lower cut — are skipped; improvements land in best
// under mp.
func (ix *Index) refineLeafED(q series.Series, table *isax.QueryTable, leaf *core.Node, best *xsync.Best, stats *QueryStats, lb *lbScratch, mp func(int32) int32, f qfilter) {
	ix.forLeafBounds(table, leaf, stats, lb, func(i int, b float64) {
		limit := best.Distance()
		if b >= limit || f.skip(leaf.Pos[i], mp) {
			return
		}
		stats.RawDistances++
		if d := vector.SquaredEDEarlyAbandon(q, ix.leafSeries(leaf, i), limit); d < limit {
			best.Update(d, int64(mp(leaf.Pos[i])))
		}
	})
}

// deltaBlock is the delta-scan work-claiming granularity in series.
const deltaBlock = 1024

// bestFirstSearch runs MESSI stage 3: a parallel pruned traversal collecting
// the surviving leaves — concurrently with an exact scan of the view's
// unmerged delta suffix — then a barrier, then parallel best-first
// refinement of the candidates in ascending lower-bound order. bsf reads
// the live pruning threshold (the BSF for 1-NN, the k-th best for k-NN);
// refine and scanDelta abstract the distance flavor (ED vs DTW), and the
// traversal prunes on sc.mt, which the caller filled with the flavor's
// bounds. The delta scan shares the BSF with the traversal, so abandoning
// thresholds tighten globally whichever side improves the answer first.
// refine and scanDelta receive a per-task lower-bound buffer for their
// batched bound computations.
//
// All phases execute as tasks on the index's shared worker pool rather
// than per-call goroutines: with several queries in flight, their tasks
// interleave through one run queue and the machine runs at most pool-size
// tasks at any instant. workers caps THIS query's share of the pool (the
// per-call scaling knob); each phase submits at most that many tasks and
// the phase barrier waits only for its own. sub marks a sharded
// sub-search (see beginQuery).
//
// A task that panics — a cold-device *storage.BlockError surfacing inside
// a refinement, typically — is contained at the Group boundary; the phase
// barrier still releases, and bestFirstSearch returns the first contained
// panic as an error. The caller must then discard the answer: the shared
// best-so-far may be missing contributions from the failed tasks.
func (ix *Index) bestFirstSearch(
	workers int,
	sub bool,
	tenant string,
	stats *QueryStats,
	bsf func() float64,
	sc *searchScratch,
	v view,
	refine func(leaf *core.Node, st *QueryStats, lb *lbScratch),
	scanDelta func(lo, hi int, st *QueryStats, lb *lbScratch),
) error {
	end := ix.beginQuery(sub, tenant)
	defer end()
	if workers <= 0 {
		// Unpinned queries take a fair share of the pool: full fan-out when
		// alone, a proportional slice when other queries are active — and,
		// for a tenanted query, a slice of the tenant's share, so one
		// tenant's storm cannot starve the rest. An explicit workers value
		// (the paper's scaling knob) is honored up to the pool size.
		workers = ix.eng.FairShareTenant(tenant)
	} else if workers > ix.eng.Workers() {
		workers = ix.eng.Workers()
	}
	t := v.snap.tree
	keys := t.RootKeys()

	// Phase A: traversal plus delta scan. Traversal tasks claim blocks of
	// root keys with Fetch&Inc: a tree over a scaled-down collection has
	// tens of thousands of tiny root subtrees, and per-subtree claims would
	// serialize on the shared counter's cache line. Each block is a flat
	// pass over the keys (core.Tree.PruneRoots) that prunes most roots on
	// a prefix-table lookup without touching their nodes. Every task
	// appends its survivors to its own run: no lock, no atomic per leaf.
	// Delta tasks claim blocks of the unmerged suffix the same way.
	const claimBlock = 256
	var cursor, deltaCursor xsync.Counter
	var popped, entries, raws atomic.Int64
	blocks := (len(keys) + claimBlock - 1) / claimBlock
	// A sharding layer's append cut may sit below mergedA (a merge folded
	// appends past the cut into the tree, where the position filter handles
	// them) — there is no delta suffix to scan then.
	deltaLo, deltaHi := v.snap.mergedA, max(v.aLive, v.snap.mergedA)
	deltaBlocks := (deltaHi - deltaLo + deltaBlock - 1) / deltaBlock
	tasks := min(workers, max(blocks, 1))
	for len(sc.runs) < tasks {
		sc.runs = append(sc.runs, nil)
	}
	runs := sc.runs[:tasks]
	g := ix.eng.NewGroup()
	for w := range runs {
		g.Submit(func() {
			run := runs[w]
			// The run is written back even if the task dies, so the
			// scratch's next reset clears every pointer it appended.
			defer func() { runs[w] = run }()
			// One emit closure per task, not per subtree: a scaled-down
			// tree has thousands of root keys, and allocating the closure
			// inside the key loop used to dominate the query's allocation
			// count.
			emit := func(leaf *core.Node, lb float64) {
				if !sc.wasProbed(leaf) {
					run = append(run, candidate{bound: lb, leaf: leaf})
				}
			}
			for {
				lo := int(cursor.Next()) * claimBlock
				if lo >= len(keys) {
					return
				}
				t.PruneRoots(keys[lo:min(lo+claimBlock, len(keys))], sc.mt, bsf, emit)
			}
		})
	}
	for w := 0; w < min(workers, deltaBlocks); w++ {
		g.Submit(func() {
			st := QueryStats{}
			lb := ix.getLB()
			for {
				lo := deltaLo + int(deltaCursor.Next())*deltaBlock
				if lo >= deltaHi {
					break
				}
				scanDelta(lo, min(lo+deltaBlock, deltaHi), &st, lb)
			}
			ix.putLB(lb)
			entries.Add(int64(st.EntriesChecked))
			raws.Add(int64(st.RawDistances))
		})
	}
	g.Wait()
	if err := g.Err(); err != nil {
		return err
	}
	// One radix sort of the concatenated runs: it measured within noise
	// of sorting each run in its task and merging the runs, and unlike a
	// k-way merge its cost does not grow with the worker count.
	cands := sc.cands[:0]
	for _, run := range runs {
		cands = append(cands, run...)
	}
	sc.cands = cands
	sc.spare = sortByBound(cands, sc.spare)

	// Phase B: best-first refinement. Workers claim candidates in ascending
	// bound order with Fetch&Inc, which is exactly the global best-first
	// order. A worker stops at the first claimed candidate whose bound is
	// not below the BSF: every later candidate's bound is at least as large
	// and the BSF only shrinks, so none of them can improve the answer.
	var next xsync.Counter
	g = ix.eng.NewGroup()
	for range min(workers, len(cands)) {
		g.Submit(func() {
			st := QueryStats{}
			lb := ix.getLB()
			n := 0
			// ParIS+-style I/O masking, active only when the base data is
			// device-backed (ix.prefetch non-nil): a claimed leaf without a
			// materialized raw block would pay cold device reads inside
			// refine, so its positions are submitted as a prefetch task on
			// the same pool — no extra goroutines — and its refinement is
			// deferred by one claim. The batched read for leaf N+1 then
			// overlaps the distance computations of leaf N; single-flight
			// block loading makes the race between the prefetch task and a
			// faster-arriving refine harmless. TrySubmit (not Submit)
			// because this code runs on a pool worker: a blocking send to a
			// full queue that only this worker could drain would deadlock a
			// small pool, and a prefetch that cannot be scheduled is better
			// skipped — refine pays the read itself. Deferring a refinement
			// never changes the answer: every surviving entry is checked
			// against the live threshold whenever it runs, and the stop rule
			// stays monotone (bounds only grow along the array, the BSF only
			// shrinks).
			var held *core.Node
			for {
				i := int(next.Next())
				if i >= len(cands) || cands[i].bound >= bsf() {
					break
				}
				n++
				leaf := cands[i].leaf
				if ix.prefetch != nil && leaf.Raw == nil {
					pos := leaf.Pos
					if g.TrySubmit(func() { ix.prefetch(pos) }) {
						if held != nil {
							refine(held, &st, lb)
						}
						held = leaf
						continue
					}
				}
				refine(leaf, &st, lb)
			}
			if held != nil {
				refine(held, &st, lb)
			}
			ix.putLB(lb)
			popped.Add(int64(n))
			entries.Add(int64(st.EntriesChecked))
			raws.Add(int64(st.RawDistances))
		})
	}
	g.Wait()
	if err := g.Err(); err != nil {
		return err
	}

	stats.LeavesInserted = len(cands)
	stats.LeavesPopped = int(popped.Load())
	stats.EntriesChecked += int(entries.Load())
	stats.RawDistances += int(raws.Load())
	return nil
}

// SearchApproximate answers a query with the approximate algorithm of the
// iSAX family, extended with multi-probing: descend to the ProbeLeaves
// best-matching leaves (the single matching leaf at the classic p=1) and
// return the best series among them, with no traversal of the rest of the
// tree. The unmerged delta is exact-scanned too (it is small by
// construction — merges keep it under the threshold), so the answer's
// distance still upper-bounds the exact answer over everything the call
// observed. The answer is not guaranteed to be the true nearest neighbor
// but is computed in microseconds.
func (ix *Index) SearchApproximate(q series.Series) (core.Result, error) {
	return ix.SearchApproximateScoped(q, FullScope)
}

// SearchApproximateScoped is SearchApproximate under an explicit Scope.
func (ix *Index) SearchApproximateScoped(q series.Series, scope Scope) (core.Result, error) {
	return ix.SearchApproximateShared(q, nil, scope)
}

// SearchApproximateShared is the scatter form of SearchApproximate: the
// sharding layer probes every shard under one consistent append cut and
// keeps the best mapped answer, so the reported global position always
// lies inside the prefix the caller captured — never a series that landed
// mid-scatter. See SearchShared for the mapPos and scope contracts.
func (ix *Index) SearchApproximateShared(q series.Series, mapPos func(int32) int32, scope Scope) (res core.Result, err error) {
	if len(q) != ix.cfg.SeriesLen {
		return core.NoResult(), fmt.Errorf("messi: query length %d != %d", len(q), ix.cfg.SeriesLen)
	}
	v, mp, f := ix.sharedCut(mapPos, scope)
	if v.total(ix.baseLen) == 0 {
		return core.NoResult(), nil
	}
	// The whole approximate probe runs on this goroutine; contain a
	// cold-device fault into a typed error.
	defer func() {
		if r := recover(); r != nil {
			res, err = core.NoResult(), ix.failQuery(engine.Contain(r))
		}
	}()
	end := ix.beginQuery(mapPos != nil, scope.Tenant)
	defer end()
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	sc.summarizeQuery(q)

	best := core.NoResult()
	for _, leaf := range v.snap.tree.BestLeavesApprox(sc.qsax, sc.qpaa, ix.probeLeavesNow()) {
		for i := range leaf.Pos {
			if f.skip(leaf.Pos[i], mp) {
				continue
			}
			if d := vector.SquaredEDEarlyAbandon(q, ix.leafSeries(leaf, i), best.Dist); d < best.Dist {
				best = core.Result{Pos: mp(leaf.Pos[i]), Dist: d}
			}
		}
	}
	for i := v.snap.mergedA; i < v.aLive; i++ {
		if f.skip(int32(ix.baseLen+i), mp) {
			continue
		}
		if d := vector.SquaredEDEarlyAbandon(q, ix.store.At(i), best.Dist); d < best.Dist {
			best = core.Result{Pos: mp(int32(ix.baseLen + i)), Dist: d}
		}
	}
	return best, nil
}

// SearchKNN answers an exact k-NN query, returning the k nearest series in
// ascending distance order. The k-th best distance plays the BSF role.
func (ix *Index) SearchKNN(q series.Series, k, workers int) ([]core.Result, *QueryStats, error) {
	return ix.SearchKNNScoped(q, k, workers, FullScope)
}

// SearchKNNScoped is SearchKNN under an explicit Scope.
func (ix *Index) SearchKNNScoped(q series.Series, k, workers int, scope Scope) ([]core.Result, *QueryStats, error) {
	if len(q) != ix.cfg.SeriesLen {
		return nil, nil, fmt.Errorf("messi: query length %d != %d", len(q), ix.cfg.SeriesLen)
	}
	if k <= 0 {
		return nil, &QueryStats{}, nil
	}
	kb := xsync.NewKBest(k)
	stats, err := ix.SearchKNNShared(q, k, workers, kb, nil, scope)
	if err != nil {
		return nil, nil, err
	}
	out := make([]core.Result, 0, k)
	for _, e := range kb.Sorted() {
		out = append(out, core.Result{Pos: e.Pos, Dist: e.Dist})
	}
	return out, stats, nil
}

// SearchKNNShared is the scatter-gather form of SearchKNN: the k-best set
// lives in the caller-owned kb — shared across shards, its k-th-best
// threshold tightens globally as any shard improves the set — and every
// offer is recorded under mapPos, so the per-position deduplication in kb
// operates on globally unique positions. See SearchShared for the mapPos
// and scope contracts; the caller reads the answer from kb.Sorted().
func (ix *Index) SearchKNNShared(q series.Series, k, workers int, kb *xsync.KBest, mapPos func(int32) int32, scope Scope) (stats *QueryStats, err error) {
	if len(q) != ix.cfg.SeriesLen {
		return nil, fmt.Errorf("messi: query length %d != %d", len(q), ix.cfg.SeriesLen)
	}
	if k <= 0 {
		return &QueryStats{}, nil
	}
	v, mp, f := ix.sharedCut(mapPos, scope)
	stats = &QueryStats{Observed: v.total(ix.baseLen)}
	if stats.Observed == 0 {
		return stats, nil
	}
	defer func() {
		if r := recover(); r != nil {
			stats, err = nil, ix.failQuery(engine.Contain(r))
		}
	}()

	sc := ix.getScratch()
	defer ix.putScratch(sc)
	sc.summarizeQuery(q)

	t := v.snap.tree
	sc.table.FillED(t.Quantizer(), sc.qpaa, ix.cfg.SeriesLen)
	sc.mt.FillFrom(t.Quantizer(), sc.table)
	table := sc.table

	refine := func(leaf *core.Node, st *QueryStats, lb *lbScratch) {
		ix.forLeafBounds(table, leaf, st, lb, func(i int, b float64) {
			lim := kb.Threshold()
			if b >= lim || f.skip(leaf.Pos[i], mp) {
				return
			}
			st.RawDistances++
			kb.Offer(mp(leaf.Pos[i]), vector.SquaredEDEarlyAbandon(q, ix.leafSeries(leaf, i), lim))
		})
	}
	ix.probeLeaves(sc, t, stats, refine)

	// The k-th best distance plays the BSF role in every pruning decision.
	if err := ix.bestFirstSearch(workers, mapPos != nil, scope.Tenant, stats, kb.Threshold, sc, v,
		refine,
		func(lo, hi int, st *QueryStats, lb *lbScratch) {
			ix.forDeltaBounds(table, lo, hi, st, lb, func(i int, b float64) {
				lim := kb.Threshold()
				if b >= lim || f.skip(int32(ix.baseLen+i), mp) {
					return
				}
				st.RawDistances++
				kb.Offer(mp(int32(ix.baseLen+i)), vector.SquaredEDEarlyAbandon(q, ix.store.At(i), lim))
			})
		}); err != nil {
		return nil, ix.failQuery(err)
	}
	return stats, nil
}

// SearchDTW answers an exact 1-NN query under DTW with a Sakoe-Chiba band
// of half-width window, on the unchanged index (paper §V): node pruning and
// per-entry filtering use the envelope-based iSAX lower bound, candidates
// pass an LB_Keogh check, and survivors pay the full dynamic program. The
// unmerged delta runs through the same cascade.
func (ix *Index) SearchDTW(q series.Series, window, workers int) (core.Result, *QueryStats, error) {
	return ix.SearchDTWScoped(q, window, workers, FullScope)
}

// SearchDTWScoped is SearchDTW under an explicit Scope.
func (ix *Index) SearchDTWScoped(q series.Series, window, workers int, scope Scope) (core.Result, *QueryStats, error) {
	if len(q) != ix.cfg.SeriesLen {
		return core.NoResult(), nil, fmt.Errorf("messi: query length %d != %d", len(q), ix.cfg.SeriesLen)
	}
	best := xsync.NewBest()
	stats, err := ix.SearchDTWShared(q, window, workers, best, nil, scope)
	if err != nil {
		return core.NoResult(), nil, err
	}
	d, p := best.Load()
	return core.Result{Pos: int32(p), Dist: d}, stats, nil
}

// SearchDTWShared is the scatter-gather form of SearchDTW: the caller-owned
// best is shared across shards, so any shard's improvement tightens the
// LB_Keogh and dynamic-program abandoning thresholds everywhere. See
// SearchShared for the mapPos and scope contracts.
func (ix *Index) SearchDTWShared(q series.Series, window, workers int, best *xsync.Best, mapPos func(int32) int32, scope Scope) (stats *QueryStats, err error) {
	if len(q) != ix.cfg.SeriesLen {
		return nil, fmt.Errorf("messi: query length %d != %d", len(q), ix.cfg.SeriesLen)
	}
	if window < 0 {
		window = 0
	}
	v, mp, f := ix.sharedCut(mapPos, scope)
	stats = &QueryStats{Observed: v.total(ix.baseLen)}
	if stats.Observed == 0 {
		return stats, nil
	}
	defer func() {
		if r := recover(); r != nil {
			stats, err = nil, ix.failQuery(engine.Contain(r))
		}
	}()

	sc := ix.getScratch()
	defer ix.putScratch(sc)
	sc.summarizeQuery(q)

	env := series.NewEnvelope(q, window)
	upPAA := paa.Transform(env.Upper, ix.cfg.Segments)
	loPAA := paa.Transform(env.Lower, ix.cfg.Segments)
	n := ix.cfg.SeriesLen

	t := v.snap.tree
	sc.table.FillDTW(t.Quantizer(), upPAA, loPAA, n)
	// The multi-cardinality view of the DTW table remains a valid DTW lower
	// bound: coarse cells are minima over their sub-regions.
	sc.mt.FillFrom(t.Quantizer(), sc.table)
	table := sc.table

	refine := func(leaf *core.Node, st *QueryStats, lb *lbScratch) {
		ix.forLeafBounds(table, leaf, st, lb, func(i int, b float64) {
			lim := best.Distance()
			if b >= lim || f.skip(leaf.Pos[i], mp) {
				return
			}
			s := ix.leafSeries(leaf, i)
			if series.LBKeogh(env, s, lim) >= lim {
				return
			}
			st.RawDistances++
			if d := series.DTW(q, s, window, lim); d < lim {
				best.Update(d, int64(mp(leaf.Pos[i])))
			}
		})
	}
	ix.probeLeaves(sc, t, stats, refine)

	if err := ix.bestFirstSearch(workers, mapPos != nil, scope.Tenant, stats, best.Distance, sc, v,
		refine,
		func(lo, hi int, st *QueryStats, lb *lbScratch) {
			ix.forDeltaBounds(table, lo, hi, st, lb, func(i int, b float64) {
				lim := best.Distance()
				if b >= lim || f.skip(int32(ix.baseLen+i), mp) {
					return
				}
				s := ix.store.At(i)
				if series.LBKeogh(env, s, lim) >= lim {
					return
				}
				st.RawDistances++
				if d := series.DTW(q, s, window, lim); d < lim {
					best.Update(d, int64(mp(int32(ix.baseLen+i))))
				}
			})
		}); err != nil {
		return nil, ix.failQuery(err)
	}
	return stats, nil
}
