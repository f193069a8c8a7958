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

// probeLeaves runs the approximate phase: the p best leaves under the
// query's summary (see core.Tree.BestLeavesApprox) are refined exactly as
// the best-first phase refines its candidates, seeding the sink with exact
// distances. Probing several neighboring leaves instead of one tightens
// the initial bound, which shrinks everything downstream: fewer leaves
// survive tree pruning, fewer entries survive the lower-bound filter.
func (c *query) probeLeaves(sc *searchScratch, t *core.Tree, stats *QueryStats) {
	lb := c.ix.getLB()
	sc.probed = append(sc.probed[:0], t.BestLeavesApprox(sc.qsax, sc.qpaa, c.ix.probeLeavesNow())...)
	for _, leaf := range sc.probed {
		stats.ProbeLeaves++
		c.refineLeaf(leaf, stats, lb)
	}
	c.ix.putLB(lb)
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

// Kind selects a query's flavor. Every kind runs the same pipeline over the
// same index — probe, pruned traversal, best-first refinement, delta scan —
// and differs only in its lower-bound table, its pruning threshold and its
// per-entry check (paper §V).
type Kind uint8

const (
	// NN is exact 1-NN under Euclidean distance.
	NN Kind = iota
	// KNN is exact k-NN under Euclidean distance; set Request.K. The k-th
	// best distance plays the BSF role.
	KNN
	// DTW is exact 1-NN under dynamic time warping with a Sakoe-Chiba band
	// of half-width Request.Band: pruning uses the envelope-based iSAX
	// lower bound, survivors pass LB_Keogh before the dynamic program.
	DTW
	// Approx is the iSAX approximate answer with multi-probing: only the
	// ProbeLeaves best-matching leaves and the unmerged delta (small by
	// construction) are refined, with no traversal of the rest of the tree.
	// Its distance upper-bounds the exact answer over everything observed.
	Approx
)

// Request is one query: its flavor and the slice of the index it answers
// over.
type Request struct {
	Kind Kind
	// K is the neighbor count of a KNN request; it must be > 0.
	K int
	// Band is the Sakoe-Chiba half-width of a DTW request (negative means 0).
	Band int
	// LastN, when > 0, restricts the query to the most recent LastN landed
	// series: the consistent append cut captured at call time composed with
	// a lower cut LastN positions back. A window wider than everything
	// landed covers everything.
	LastN int
	// Workers caps the query's share of the worker pool, up to the pool
	// size; ≤ 0 takes a fair share (see bestFirstSearch).
	Workers int
	// Tenant is an opaque tenant ID for fair scheduling: the engine divides
	// pool shares across tenants with live queries, so one tenant's storm
	// cannot starve the rest. "" is untenanted.
	Tenant string
}

// Validate reports a request that no index of series length n can answer.
func (r Request) Validate(q series.Series, n int) error {
	switch {
	case len(q) != n:
		return fmt.Errorf("messi: query length %d != %d", len(q), n)
	case r.Kind > Approx:
		return fmt.Errorf("messi: unknown query kind %d", r.Kind)
	case r.Kind == KNN && r.K <= 0:
		return fmt.Errorf("messi: k-NN request needs K > 0, got %d", r.K)
	case r.LastN < 0:
		return fmt.Errorf("messi: window size %d, want > 0", r.LastN)
	}
	return nil
}

// Sink accumulates one logical query's answer. The caller owns it, so
// several indexes answering one query — a sharding layer's shards — can
// share it: a bound tightened by any of them immediately prunes the
// traversal, lower-bound filtering and early abandoning of all of them,
// not just the merged answer afterwards.
type Sink struct {
	best *xsync.Best  // NN, DTW, Approx
	kb   *xsync.KBest // KNN
}

// NewSink returns an empty sink for req's kind.
func NewSink(req Request) *Sink {
	if req.Kind == KNN {
		return &Sink{kb: xsync.NewKBest(req.K)}
	}
	return &Sink{best: xsync.NewBest()}
}

// threshold is the live pruning bound: the best distance so far, or the
// k-th best for k-NN.
func (s *Sink) threshold() float64 {
	if s.kb != nil {
		return s.kb.Threshold()
	}
	return s.best.Distance()
}

// Results returns the answer in ascending distance order: at most one
// result for a 1-NN kind, up to K for k-NN, none when nothing visible
// matched.
func (s *Sink) Results() []core.Result {
	if s.kb != nil {
		es := s.kb.Sorted()
		out := make([]core.Result, len(es))
		for i, e := range es {
			out[i] = core.Result{Pos: e.Pos, Dist: e.Dist}
		}
		return out
	}
	d, p := s.best.Load()
	if p < 0 {
		return nil
	}
	return []core.Result{{Pos: int32(p), Dist: d}}
}

// identPos is the position map of an unsharded query: local positions ARE
// the answer positions.
func identPos(p int32) int32 { return p }

// Scope bounds one query's visible position space. The zero Scope answers
// over nothing appended — use FullScope (or AppendCut: -1) for "everything
// published".
type Scope struct {
	// AppendCut, when ≥ 0, bounds the query to the first AppendCut appended
	// series, so a sharding layer can pin one consistent cross-shard
	// prefix; -1 answers over everything published at call time.
	AppendCut int
	// LowPos, when > 0, excludes answers whose mapped (global) position is
	// below it — the sliding-window lower cut. Composed with AppendCut the
	// query ranges over exactly the global suffix [LowPos, cut).
	LowPos int32
}

// FullScope answers over everything published.
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
// logical query exactly once. Every query funnels through here, so the
// returned end also feeds the index's own observability surface (per-index
// search count and latency histogram) and gives the tuner its per-query
// tick.
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

// windowScope captures the consistent cut of a most-recent-n window (n > 0):
// the published append count as the upper cut, total-n as the global lower
// cut.
func (ix *Index) windowScope(n int) Scope {
	cut := int(ix.appended.Load())
	return Scope{AppendCut: cut, LowPos: int32(max(0, ix.baseLen+cut-n))}
}

// query is one index's share of one logical query. Its methods hold the
// only things that differ by kind — the bound table the caller fills, the
// threshold and the survivor check — and the one loop every refinement and
// delta scan runs: bound, filter, fetch, check.
type query struct {
	ix    *Index
	q     series.Series
	kind  Kind
	band  int
	env   *series.Envelope // DTW only
	table *isax.QueryTable
	Sink
	mp func(int32) int32
	f  qfilter
}

// check pays the exact distance of one series at local position p whose
// bound and filter passed under threshold lim, and offers it to the sink.
func (c *query) check(s series.Series, p int32, lim float64, st *QueryStats) {
	if c.kind == DTW {
		if series.LBKeogh(c.env, s, lim) >= lim {
			return
		}
		st.RawDistances++
		if d := series.DTW(c.q, s, c.band, lim); d < lim {
			c.best.Update(d, int64(c.mp(p)))
		}
		return
	}
	st.RawDistances++
	d := vector.SquaredEDEarlyAbandon(c.q, s, lim)
	if c.kb != nil {
		c.kb.Offer(c.mp(p), d)
	} else if d < lim {
		c.best.Update(d, int64(c.mp(p)))
	}
}

// refine runs bound, filter, fetch, check over one batch: bounds[i]
// lower-bounds entry i of leaf or, for a nil leaf, delta row lo+i. The
// threshold is re-read per entry, so every compare sees the freshest
// bound, and a series is fetched only once its bound and its filter pass —
// the cold tier reads nothing the bound prunes.
func (c *query) refine(bounds []float64, leaf *core.Node, lo int, st *QueryStats) {
	for i, b := range bounds {
		lim := c.threshold()
		if b >= lim {
			continue
		}
		p := int32(c.ix.baseLen + lo + i)
		if leaf != nil {
			p = leaf.Pos[i]
		}
		if c.f.skip(p, c.mp) {
			continue
		}
		var s series.Series
		if leaf != nil {
			s = c.ix.leafSeries(leaf, i)
		} else {
			s = c.ix.store.At(lo + i)
		}
		c.check(s, p, lim, st)
	}
}

// lowerBounds fills out with the summary lower bounds of the SAX rows. The
// approximate kind has no bound table: it checks every entry of its few
// probed leaves, so its bounds are all zero.
func (c *query) lowerBounds(rows []uint8, out []float64) {
	if c.table == nil {
		clear(out)
		return
	}
	vector.MinDistBatch(c.table.Cells(), rows, c.ix.cfg.Segments, c.table.Card(), out)
}

// refineLeaf computes a leaf's summary lower bounds in one batched pass
// over its contiguous SAX block (bit-identical to the per-entry MinDistSAX
// values), then refines the survivors against the leaf's materialized raw
// block — two sequential streams instead of per-entry pointer chasing.
func (c *query) refineLeaf(leaf *core.Node, st *QueryStats, lb *lbScratch) {
	bounds := lb.take(leaf.Count)
	c.lowerBounds(leaf.SAX, bounds)
	st.EntriesChecked += leaf.Count
	c.refine(bounds, leaf, 0, st)
}

// scanDelta is refineLeaf over the delta suffix [lo, hi): bounds are
// batched run-by-run over the append log's chunk-contiguous rows.
func (c *query) scanDelta(lo, hi int, st *QueryStats, lb *lbScratch) {
	for i := lo; i < hi; {
		rows, k := c.ix.saxLog.Run(i, hi)
		bounds := lb.take(k)
		c.lowerBounds(rows, bounds)
		st.EntriesChecked += k
		c.refine(bounds, nil, i, st)
		i += k
	}
}

// Query answers req over everything the index holds at call time — the
// tree snapshot plus the unmerged delta — or over its most recent
// req.LastN landed series, minus tombstones. Results come in ascending
// distance order and are empty when nothing visible matches. Exact kinds
// are bit-identical to a serial scan of exactly the observed slice.
func (ix *Index) Query(q series.Series, req Request) ([]core.Result, *QueryStats, error) {
	if err := req.Validate(q, ix.cfg.SeriesLen); err != nil {
		return nil, nil, err
	}
	cut := FullScope
	if req.LastN > 0 {
		cut = ix.windowScope(req.LastN)
	}
	sink := NewSink(req)
	stats, err := ix.QueryShared(q, req, cut, sink, nil)
	if err != nil {
		return nil, nil, err
	}
	return sink.Results(), stats, nil
}

// QueryShared is the scatter-gather form of Query, the injection point a
// sharding layer uses to run one logical query across many indexes: the
// answer accumulates in the caller-owned sink, which sibling shards may
// share (see Sink). Every offer is recorded under mapPos (local position →
// the caller's global position space; nil means identity), so a shared
// k-best set deduplicates globally unique positions. cut bounds the
// visible position space — append cut and window lower cut — in place of
// req.LastN, which is not consulted. The caller reads the answer from the
// sink after the call (and after every sibling shard's call, when sharing).
func (ix *Index) QueryShared(q series.Series, req Request, cut Scope, sink *Sink, mapPos func(int32) int32) (stats *QueryStats, err error) {
	if err := req.Validate(q, ix.cfg.SeriesLen); err != nil {
		return nil, err
	}
	v, mp, f := ix.sharedCut(mapPos, cut)
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
	end := ix.beginQuery(mapPos != nil, req.Tenant)
	defer end()
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	sc.summarizeQuery(q)

	c := &query{ix: ix, q: q, kind: req.Kind, table: sc.table, Sink: *sink, mp: mp, f: f}
	t := v.snap.tree
	switch req.Kind {
	case DTW:
		c.band = max(req.Band, 0)
		c.env = series.NewEnvelope(q, c.band)
		sc.table.FillDTW(t.Quantizer(), paa.Transform(c.env.Upper, ix.cfg.Segments),
			paa.Transform(c.env.Lower, ix.cfg.Segments), ix.cfg.SeriesLen)
	case Approx:
		c.table = nil
	default:
		sc.table.FillED(t.Quantizer(), sc.qpaa, ix.cfg.SeriesLen)
	}
	// Approximate phase: exact distances over the closest p leaves.
	c.probeLeaves(sc, t, stats)
	if req.Kind == Approx {
		lb := ix.getLB()
		c.scanDelta(v.snap.mergedA, max(v.aLive, v.snap.mergedA), stats, lb)
		ix.putLB(lb)
		return stats, nil
	}
	// The multi-cardinality view of a DTW table remains a valid DTW lower
	// bound: coarse cells are minima over their sub-regions.
	sc.mt.FillFrom(t.Quantizer(), sc.table)
	if err := ix.bestFirstSearch(c, req.Workers, req.Tenant, stats, sc, v); err != nil {
		return nil, ix.failQuery(err)
	}
	return stats, nil
}

// Search answers an exact 1-NN query over everything the index holds at
// call time. workers ≤ 0 means a fair share of the pool.
func (ix *Index) Search(q series.Series, workers int) (core.Result, *QueryStats, error) {
	rs, st, err := ix.Query(q, Request{Workers: workers})
	return core.First(rs), st, err
}

// SearchKNN answers an exact k-NN query, returning the k nearest series in
// ascending distance order; k ≤ 0 answers nothing.
func (ix *Index) SearchKNN(q series.Series, k, workers int) ([]core.Result, *QueryStats, error) {
	if k <= 0 {
		return nil, &QueryStats{}, nil
	}
	return ix.Query(q, Request{Kind: KNN, K: k, Workers: workers})
}

// SearchDTW answers an exact 1-NN query under DTW with a Sakoe-Chiba band
// of half-width window.
func (ix *Index) SearchDTW(q series.Series, window, workers int) (core.Result, *QueryStats, error) {
	rs, st, err := ix.Query(q, Request{Kind: DTW, Band: window, Workers: workers})
	return core.First(rs), st, err
}

// SearchApproximate answers a query with the approximate algorithm (see
// Approx), in microseconds.
func (ix *Index) SearchApproximate(q series.Series) (core.Result, error) {
	rs, _, err := ix.Query(q, Request{Kind: Approx})
	return core.First(rs), err
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

// deltaBlock is the delta-scan work-claiming granularity in series.
const deltaBlock = 1024

// bestFirstSearch runs MESSI stage 3: a parallel pruned traversal collecting
// the surviving leaves — concurrently with an exact scan of the view's
// unmerged delta suffix — then a barrier, then parallel best-first
// refinement of the candidates in ascending lower-bound order. c carries
// the kind's threshold (the BSF for 1-NN, the k-th best for k-NN) and its
// refinement; the traversal prunes on sc.mt, which the caller filled with
// the kind's bounds. The delta scan shares the sink with the traversal, so
// abandoning thresholds tighten globally whichever side improves the
// answer first. Every refinement or delta task checks out its own
// lower-bound buffer for its batched bound computations.
//
// All phases execute as tasks on the index's shared worker pool rather
// than per-call goroutines: with several queries in flight, their tasks
// interleave through one run queue and the machine runs at most pool-size
// tasks at any instant. workers caps THIS query's share of the pool (the
// per-call scaling knob); each phase submits at most that many tasks and
// the phase barrier waits only for its own.
//
// A task that panics — a cold-device *storage.BlockError surfacing inside
// a refinement, typically — is contained at the Group boundary; the phase
// barrier still releases, and bestFirstSearch returns the first contained
// panic as an error. The caller must then discard the answer: the shared
// sink may be missing contributions from the failed tasks.
func (ix *Index) bestFirstSearch(c *query, workers int, tenant string, stats *QueryStats, sc *searchScratch, v view) error {
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
	bsf := c.threshold

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
				c.scanDelta(lo, min(lo+deltaBlock, deltaHi), &st, lb)
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
				if i >= len(cands) || cands[i].bound >= c.threshold() {
					break
				}
				n++
				leaf := cands[i].leaf
				if ix.prefetch != nil && leaf.Raw == nil {
					pos := leaf.Pos
					if g.TrySubmit(func() { ix.prefetch(pos) }) {
						if held != nil {
							c.refineLeaf(held, &st, lb)
						}
						held = leaf
						continue
					}
				}
				c.refineLeaf(leaf, &st, lb)
			}
			if held != nil {
				c.refineLeaf(held, &st, lb)
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
