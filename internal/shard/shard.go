// Package shard partitions a collection across N independent MESSI shards
// that answer as one index — the coarse-grained layer above the paper's
// intra-tree parallelism. One tree scales by fanning its phases out to a
// worker pool (internal/messi); a serving system at collection sizes past a
// single tree's memory ceiling additionally partitions the data, so builds,
// merges and ingestion parallelize across trees ("Parallel and Distributed
// Data Series Processing on Modern and Emerging Hardware" names exactly
// this distribution step above ParIS+/MESSI).
//
// The design keeps the single-index guarantees:
//
//   - One shared worker pool. Every shard attaches to the same
//     internal/engine pool (messi.Options.Engine), so parallelism is
//     governed globally: N shards of one query, or tasks of many queries,
//     never oversubscribe the machine, and admission control spans the
//     whole sharded index.
//   - One shared best-so-far. A query scatters to all shards through the
//     messi Shared search variants with a single xsync.Best (or KBest)
//     threaded into every shard's traversal, so a tight bound found on
//     shard 0 prunes shards 1..N-1 mid-flight — not merely at merge time.
//     Each shard records answers under its local→global position map, so
//     the shared accumulator always holds collection-level positions.
//   - One consistent cut. Appends publish a copy-on-write per-shard count
//     vector under the route lock; a query captures that vector once and
//     caps every shard at its entry, so the answer covers exactly the
//     global prefix [0, Observed) — the property the conformance and
//     race-stress suites verify against serial scans.
//   - One copy of the base data. Each shard is built over a zero-copy
//     position-remapping view (series.View) of the caller's collection,
//     not a materialized per-shard copy, so sharding never doubles
//     base-value residency: N shards read the same flat array a 1-shard
//     index would. Decode replays the same views, so loading is equally
//     copy-free.
//
// Routing is pluggable (Policy): round-robin by arrival order, or
// content-hashing so identical series co-locate. Persistence wraps the
// per-shard DSI1/DSL1 blobs in a DSS1 manifest (persist.go); plain
// single-index files load as a 1-shard instance.
package shard

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dsidx/internal/core"
	"dsidx/internal/engine"
	"dsidx/internal/messi"
	"dsidx/internal/metrics"
	"dsidx/internal/series"
	"dsidx/internal/storage"
)

// MaxShards bounds the shard count: shard ids persist as one byte per
// appended series in the DSS1 route log.
const MaxShards = 256

// Options configures a sharded index: the per-shard MESSI options (Workers
// and MaxInFlight size the one pool every shard shares) plus the partition
// shape.
type Options struct {
	messi.Options
	// Shards is the number of partitions (0 means 1).
	Shards int
	// Policy routes series to shards (nil means RoundRobin).
	Policy Policy
	// CopyBase restores the legacy build: each shard indexes a
	// materialized flat copy of its slice of the base collection instead
	// of a zero-copy position-remapping view, doubling base-data
	// residency. Answers, stats and encoded bytes are identical either
	// way — the conformance harness toggles it randomly and a
	// differential test pins the equivalence — so the knob exists only
	// for that testing and as a measurement baseline, never for serving.
	// Mutually exclusive with ColdStorage.
	CopyBase bool
	// ColdStorage, when set, places shards' base values on a device behind
	// a block cache instead of RAM — the out-of-core tier. Answers stay
	// bit-identical to a hot build (float32 values round-trip the device
	// exactly); the conformance harness tosses placement randomly to pin
	// that. Mutually exclusive with CopyBase.
	ColdStorage *ColdStorage
	// AllowPartial opts queries into best-effort answers when shards are
	// unavailable: instead of failing with ErrShardsUnavailable, the query
	// answers from the shards still serving and records the skipped set in
	// QueryStats.UncoveredShards. Off by default — a partial answer is no
	// longer the exact nearest neighbor, so the caller must opt in.
	AllowPartial bool
	// QuarantineAfter is the number of CONSECUTIVE permanent cold-read
	// failures after which a shard is quarantined (0 means
	// DefaultQuarantineAfter). Retry-exhausted transient faults never
	// count: only errors the storage tier classified permanent advance
	// the streak, and any clean query resets it.
	QuarantineAfter int
	// AutoRestage schedules a background re-stage (Restage) as soon as a
	// shard is quarantined, using the shared pool's tracked-job path.
	// Without it the shard stays quarantined until the operator calls
	// Restage explicitly.
	AutoRestage bool
}

// ColdStorage configures the out-of-core tier: which shards are cold, what
// device backs them, and how much RAM the block cache may use. A cold
// shard's base series live in one shared series file on the device and are
// read through a storage.DiskReader (views over it replace the in-RAM
// views), with leaf-ordered raw blocks disabled for that shard so
// refinement actually reads the cold tier; its tree and SAX summaries stay
// resident. Hot shards keep today's behavior exactly, so one Sharded index
// mixes tiers per shard — the Milvus-style hot/cold placement pattern.
//
// When EVERY shard is cold, the index itself holds no reference to the
// caller's flat collection (global reads resolve through the device cache
// too), so the caller may drop it and the base tier's RAM ceiling becomes
// the cache budget.
//
// Appended series always stay hot: the delta buffer and its merged
// positions live in each shard's own chunked store, which is small by
// construction (merges bound it).
type ColdStorage struct {
	// NewStore returns the byte store backing the tier's series file; nil
	// means a fresh in-memory MemStore (hermetic, simulation-only). Real
	// persistence supplies a FileStore. The caller owns the store's
	// lifetime — close it after the index is closed, not before.
	NewStore func() (storage.Store, error)
	// Profile is the simulated device the store is wrapped in; the zero
	// Profile means storage.Unthrottled. Construction (the staging write
	// and the build's sequential scans) runs at latency scale 0 — a
	// precondition, like the experiments' dataset staging — and the scale
	// is restored to 1 when the index is ready, so query-time accesses pay
	// full device time. Modeled busy-time metrics accumulate throughout.
	Profile storage.Profile
	// CacheBytes is the block-cache budget in bytes (0 means
	// storage.DefaultCacheBytes).
	CacheBytes int64
	// BlockSeries is the cache granularity in consecutive series (0 means
	// storage.DefaultBlockSeries).
	BlockSeries int
	// Cold reports whether shard si is placed cold; nil places every
	// shard cold.
	Cold func(si int) bool
	// Retry overrides the cold readers' transient-fault retry policy (the
	// zero value means storage defaults: 3 retries, capped exponential
	// backoff). Applies to the shared tier and to re-staged shard files.
	Retry storage.RetryPolicy
	// Source, when set, is the hot reader re-staging copies base values
	// from (it must cover the full base collection in global positions).
	// When nil, Restage reads through the index's own base reader — fine
	// on a mixed hot/cold build, but on an all-cold build that is the
	// failing device itself, so callers that want to re-stage around a
	// dead store should keep a hot source and pass it here.
	Source series.Reader
}

func (o Options) normalize() (Options, error) {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Shards > MaxShards {
		return o, fmt.Errorf("shard: %d shards exceeds the maximum %d", o.Shards, MaxShards)
	}
	if o.Policy == nil {
		o.Policy = RoundRobin{}
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CopyBase && o.ColdStorage != nil {
		return o, fmt.Errorf("shard: CopyBase and ColdStorage are mutually exclusive")
	}
	return o, nil
}

// Sharded is a partitioned index over N messi shards, answering the full
// MESSI surface — exact 1-NN/k-NN/DTW, approximate search, batches, live
// appends, Flush, persistence — with every answer position in the global
// (collection-order) position space.
type Sharded struct {
	opt       Options
	n         int
	policy    Policy
	seriesLen int
	base      series.Reader // the flat collection, or the cold tier's DiskReader when all shards are cold
	baseLen   int
	eng       *engine.Engine
	shards    []*messi.Index

	// cold is the shared out-of-core tier (nil when every shard is hot);
	// coldShards[si] reports shard si's placement, coldParts[si] the
	// swappable device binding its views resolve through (nil for hot
	// shards), and health[si] its fault accounting.
	cold       *coldTier
	coldShards []bool
	coldParts  []*coldPart
	health     []shardHealth

	// baseMap[si][localPos] is the global position of shard si's build-time
	// series; mappers[si] extends it over appends. Both immutable after
	// construction (append rows are published before they become readable).
	baseMap [][]int32
	mappers []func(int32) int32

	// Live-append routing state. appendMap[si] maps a shard's append-local
	// index to its global position; routeLog row g is {shard, shard-local
	// pos} of global append g — the landed order. cuts is the published
	// copy-on-write per-shard append-count vector: one atomic load yields a
	// consistent global prefix for a whole scatter-gather query.
	mu        sync.Mutex
	appendMap []*series.ChunkedRows[int32]
	routeLog  *series.ChunkedRows[int32]
	cuts      atomic.Pointer[[]int32]
	appended  atomic.Int64

	regOnce sync.Once
	reg     *metrics.Registry
}

// splitBase partitions the base collection by policy, returning one
// position-remapping view per shard and each shard's local→global base
// position map (the same []int32 backs both — the view IS the map). The
// split is a pure function of (collection, policy, n): Decode replays it
// to rebuild views and maps without persisting them.
//
// Nothing is copied: each shard's messi index reads its series straight
// out of the caller's collection through the view, so a sharded index
// holds the base raw data exactly once — the same single-residency
// guarantee an unsharded index gives, and the property the CI memory
// smoke test pins (bytes/series within 1.1x of a flat build). The legacy
// copying split survives behind Options.CopyBase for differential
// testing.
func splitBase(coll *series.Collection, policy Policy, n int) (views []*series.View, baseMap [][]int32) {
	baseMap = make([][]int32, n)
	for i := 0; i < coll.Len(); i++ {
		si := policy.Route(i, coll.At(i), n)
		baseMap[si] = append(baseMap[si], int32(i))
	}
	views = make([]*series.View, n)
	for si := range views {
		views[si] = series.NewView(coll, baseMap[si])
	}
	return views, baseMap
}

// newShell assembles the Sharded state common to Build and Decode: the
// base split (views, or flat copies under Options.CopyBase, or cold
// view-over-DiskReader parts under Options.ColdStorage), the shared
// engine, and empty append-routing structures. The caller fills s.shards
// (one per part) and then calls finish.
func newShell(coll *series.Collection, opt Options) (*Sharded, []series.Reader, error) {
	views, baseMap := splitBase(coll, opt.Policy, opt.Shards)
	parts := make([]series.Reader, opt.Shards)
	for si, v := range views {
		if opt.CopyBase {
			parts[si] = v.Materialize()
		} else {
			parts[si] = v
		}
	}
	s := &Sharded{
		opt:       opt,
		n:         opt.Shards,
		policy:    opt.Policy,
		seriesLen: coll.SeriesLen(),
		base:      coll,
		baseLen:   coll.Len(),
		eng:       engine.New(engine.Options{Workers: opt.Workers, MaxInFlight: opt.MaxInFlight}),
		shards:    make([]*messi.Index, opt.Shards),
		baseMap:   baseMap,
		health:    make([]shardHealth, opt.Shards),
		appendMap: make([]*series.ChunkedRows[int32], opt.Shards),
		routeLog:  series.NewChunkedRows[int32](2, 0),
	}
	for si := range s.appendMap {
		s.appendMap[si] = series.NewChunkedRows[int32](1, 0)
	}
	cuts := make([]int32, opt.Shards)
	s.cuts.Store(&cuts)
	if opt.ColdStorage != nil {
		if err := s.initCold(coll, opt.ColdStorage, parts); err != nil {
			s.eng.Close()
			return nil, nil, err
		}
	}
	return s, parts, nil
}

// coldTier is the shared device state behind every cold shard: one disk,
// one series file holding the whole base collection in global order, one
// block-cached reader the cold views remap into.
type coldTier struct {
	disk   *storage.Disk
	reader *storage.DiskReader
}

// initCold stages the base collection onto the cold device and swaps the
// cold shards' parts from in-RAM views to views over the block-cached
// reader. The staging write and the upcoming build-time reads run at
// latency scale 0 (construction is a precondition, not a measured query);
// finish restores scale 1.
func (s *Sharded) initCold(coll *series.Collection, cs *ColdStorage, parts []series.Reader) error {
	cold := make([]bool, s.n)
	any, all := false, true
	for si := range cold {
		cold[si] = cs.Cold == nil || cs.Cold(si)
		if cold[si] {
			any = true
		} else {
			all = false
		}
	}
	if !any {
		return nil // every shard placed hot: no tier to set up
	}
	store := storage.Store(storage.NewMemStore())
	if cs.NewStore != nil {
		st, err := cs.NewStore()
		if err != nil {
			return fmt.Errorf("shard: cold store: %w", err)
		}
		store = st
	}
	profile := cs.Profile
	if profile == (storage.Profile{}) {
		profile = storage.Unthrottled
	}
	disk := storage.NewDisk(store, profile)
	disk.SetScale(0)
	f, err := storage.WriteCollection(disk, coll)
	if err != nil {
		return fmt.Errorf("shard: staging cold tier: %w", err)
	}
	dr, err := storage.NewDiskReader(f, storage.DiskReaderOptions{
		CacheBytes:  cs.CacheBytes,
		BlockSeries: cs.BlockSeries,
		Retry:       cs.Retry,
	})
	if err != nil {
		return fmt.Errorf("shard: cold tier: %w", err)
	}
	// Each cold shard's view remaps into a coldPart rather than the reader
	// directly, so a re-stage can swap the shard onto a fresh store with
	// one atomic pointer store — no index rebuild, no view rebuild.
	s.coldParts = make([]*coldPart, s.n)
	shared := &coldSrc{reader: dr, disk: disk, local: false}
	for si := range parts {
		if cold[si] {
			cp := newColdPart(coll.Len(), coll.SeriesLen(), s.baseMap[si], shared)
			s.coldParts[si] = cp
			parts[si] = series.NewView(cp, s.baseMap[si])
		}
	}
	if all {
		// Nothing references the caller's flat collection anymore — global
		// position reads resolve through the cache too — so the caller may
		// drop it, and base residency shrinks to the cache budget.
		s.base = dr
	}
	s.cold = &coldTier{disk: disk, reader: dr}
	s.coldShards = cold
	return nil
}

// shardOptions is shard si's messi configuration: identical tuning, one
// shared pool. Cold shards disable leaf-ordered raw blocks — a full hot
// copy of the values would defeat the tier — so their refinement reads
// resolve through the device cache (and get the prefetch-masked path).
func (s *Sharded) shardOptions(si int) messi.Options {
	mo := s.opt.Options
	mo.Engine = s.eng
	if s.isCold(si) {
		mo.DisableLeafRaw = true
	}
	return mo
}

// isCold reports shard si's tier.
func (s *Sharded) isCold(si int) bool { return s.cold != nil && s.coldShards[si] }

// ColdStats reports the cold tier's cache and device counters; the zero
// value when every shard is hot.
type ColdStats struct {
	// ColdShards is the number of cold-placed shards.
	ColdShards int
	// Cache snapshots the shared block cache.
	Cache storage.CacheStats
	// Device snapshots the cold device's I/O accounting.
	Device storage.Metrics
}

// ColdStats snapshots the out-of-core tier's counters.
func (s *Sharded) ColdStats() ColdStats {
	if s.cold == nil {
		return ColdStats{}
	}
	n := 0
	for _, c := range s.coldShards {
		if c {
			n++
		}
	}
	return ColdStats{ColdShards: n, Cache: s.cold.reader.Stats(), Device: s.cold.disk.Metrics()}
}

// ColdDisk exposes the cold tier's device for experiments (latency scaling,
// metric resets between phases); nil when every shard is hot.
func (s *Sharded) ColdDisk() *storage.Disk {
	if s.cold == nil {
		return nil
	}
	return s.cold.disk
}

// finish is called once every shard exists: it builds the per-shard
// position mappers and releases the constructor's engine reference (each
// shard retained its own, so the pool now lives exactly as long as the
// shards do).
func (s *Sharded) finish() {
	s.mappers = make([]func(int32) int32, s.n)
	for si := range s.mappers {
		bm := s.baseMap[si]
		am := s.appendMap[si]
		s.mappers[si] = func(p int32) int32 {
			if int(p) < len(bm) {
				return bm[p]
			}
			return am.At(int(p) - len(bm))[0]
		}
	}
	if s.cold != nil {
		s.cold.disk.SetScale(1) // construction staged at scale 0; queries pay modeled latency
	}
	s.eng.Close()
}

// abort releases everything a failed construction acquired: the shards
// decoded so far and the constructor's engine reference.
func (s *Sharded) abort() {
	for _, sh := range s.shards {
		if sh != nil {
			sh.Close()
		}
	}
	s.eng.Close()
}

// Build partitions coll by the configured policy and builds one MESSI
// index per shard, all attached to a single shared worker pool.
func Build(coll *series.Collection, cfg core.Config, opt Options) (*Sharded, error) {
	opt, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	s, parts, err := newShell(coll, opt)
	if err != nil {
		return nil, err
	}
	for si := range s.shards {
		s.shards[si], err = messi.Build(parts[si], cfg, s.shardOptions(si))
		if err != nil {
			s.abort()
			return nil, err
		}
	}
	s.finish()
	return s, nil
}

// Close releases every shard's reference to the shared worker pool; the
// pool stops after the last one (waiting for in-flight background merges).
// It is idempotent and safe to call concurrently with appends and queries.
func (s *Sharded) Close() {
	for _, sh := range s.shards {
		sh.Close()
	}
}

// Shards returns the number of partitions.
func (s *Sharded) Shards() int { return s.n }

// Shard exposes partition si for diagnostics and tests.
func (s *Sharded) Shard(si int) *messi.Index { return s.shards[si] }

// PolicyName reports the routing policy.
func (s *Sharded) PolicyName() string { return s.policy.Name() }

// Count returns the number of series the index answers over: the base
// collection plus every published append, across all shards.
func (s *Sharded) Count() int { return s.baseLen + int(s.appended.Load()) }

// At returns the series at a global position — base collection order
// first, then appends in arrival order. Every position a query result
// reports resolves through here.
func (s *Sharded) At(pos int) series.Series {
	if pos < s.baseLen {
		return s.base.At(pos)
	}
	r := s.routeLog.At(pos - s.baseLen)
	return s.shards[r[0]].At(int(r[1]))
}

// EngineStats snapshots the shared pool's counters — one pool serves every
// shard, so this is already the aggregate view.
func (s *Sharded) EngineStats() engine.Stats { return s.eng.Stats() }

// Admit blocks until the shared pool's admission control grants a query
// slot; one slot covers a whole scatter-gather query across all shards.
func (s *Sharded) Admit() (release func()) { return s.eng.Admit() }

// AdmitContext is Admit with cancellation.
func (s *Sharded) AdmitContext(ctx context.Context) (release func(), err error) {
	return s.eng.AdmitContext(ctx)
}

// AdmitTenantContext is AdmitContext under a tenant identity; tenant "" is
// exactly AdmitContext.
func (s *Sharded) AdmitTenantContext(ctx context.Context, tenant string) (release func(), err error) {
	return s.eng.AdmitTenantContext(ctx, tenant)
}

// TenantStats snapshots the shared pool's per-tenant accounting.
func (s *Sharded) TenantStats() []engine.TenantStat { return s.eng.TenantStats() }

// MaxInFlight returns the admission bound on concurrently admitted
// scatter-gather queries.
func (s *Sharded) MaxInFlight() int { return s.eng.MaxInFlight() }

// view captures one consistent cross-shard cut: the per-shard append
// counts published by the most recent append, plus the global series count
// they imply. Every shard of one query is capped at its entry, so the
// query answers over exactly the global prefix [0, observed).
func (s *Sharded) view() (cuts []int32, observed int) {
	c := *s.cuts.Load()
	total := 0
	for _, v := range c {
		total += int(v)
	}
	return c, s.baseLen + total
}

// scatter runs fn for every shard concurrently (each call coordinates its
// shard's search, whose tasks run on the shared pool) and merges the
// per-shard work stats into stats. The last available shard runs on the
// calling goroutine and the others on goroutines of their own, so a
// one-shard index pays no goroutine handoff per query. The logical query
// is counted once here; the per-shard sub-searches register only as active
// executors, so the engine's Queries counter reads in logical QPS at any
// shard count.
//
// Fault handling: quarantined shards are skipped up front, and a shard
// that fails mid-query with a storage-classified error (a contained
// *storage.BlockError from the cold tier) is absorbed into its health
// record rather than failing the process. If any shard ends uncovered the
// query fails fast with ErrShardsUnavailable — or, under
// Options.AllowPartial, answers from the covered shards and reports the
// gap in stats.UncoveredShards. Non-storage errors are bugs and fail the
// query as-is.
func (s *Sharded) scatter(tenant string, stats *messi.QueryStats, fn func(si int) (*messi.QueryStats, error)) error {
	s.eng.CountQueryTenant(tenant)
	sts := make([]*messi.QueryStats, s.n)
	errs := make([]error, s.n)
	skipped := make([]bool, s.n)
	var wg sync.WaitGroup
	last := -1
	for si := 0; si < s.n; si++ {
		if !s.available(si) {
			skipped[si] = true
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				sts[si], errs[si] = fn(si)
			}(last)
		}
		last = si
	}
	if last >= 0 {
		sts[last], errs[last] = fn(last)
	}
	wg.Wait()
	var skippedIDs, failedIDs []int
	var cause error
	for si := 0; si < s.n; si++ {
		switch {
		case skipped[si]:
			skippedIDs = append(skippedIDs, si)
		case errs[si] != nil:
			if !s.noteShardError(si, errs[si]) {
				return errs[si]
			}
			failedIDs = append(failedIDs, si)
			if cause == nil {
				cause = errs[si]
			}
		default:
			s.noteShardSuccess(si)
		}
	}
	if miss := uncovered(skippedIDs, failedIDs); len(miss) > 0 {
		if cause == nil && len(skippedIDs) > 0 {
			cause = s.health[skippedIDs[0]].getErr()
		}
		if !s.opt.AllowPartial {
			return &ErrShardsUnavailable{Shards: miss, Cause: cause}
		}
		stats.UncoveredShards = miss
	}
	for _, st := range sts {
		if st == nil {
			continue
		}
		stats.ProbeLeaves += st.ProbeLeaves
		stats.LeavesInserted += st.LeavesInserted
		stats.LeavesPopped += st.LeavesPopped
		stats.EntriesChecked += st.EntriesChecked
		stats.RawDistances += st.RawDistances
	}
	return nil
}

// Query answers req by scattering it over every shard under one consistent
// cut: the cut vector captured at call time pins each shard's append
// prefix, so the query answers over exactly the global prefix it observed,
// and a window's lower cut (req.LastN positions back from that prefix)
// restricts every shard to exactly the global suffix, however appends were
// routed. Exact kinds share one sink across shards, so a bound tightened by
// any shard prunes the others mid-flight; the answer is bit-identical to a
// serial scan of the observed slice. Approximate probes keep one sink per
// shard, merged in shard order so ties go to the lowest shard index.
//
// Tombstone audit for the shared k-best set: a deleted position can never
// re-enter the results through cross-shard deduplication. Every global
// position is owned by exactly one shard (the mappers are disjoint by
// construction — base positions partition via baseMap, appended positions
// via the route log), so the only goroutines that can offer a position run
// inside its owner's QueryShared, after that shard's tombstone filter
// consulted the delete state captured at query start. KBest dedup only
// drops re-offers of a position already present; it never revives one that
// was filtered, and no other shard can offer it.
// TestDeletedNearestNeverInKNN pins this across shard counts, placements
// and compaction states.
func (s *Sharded) Query(q series.Series, req messi.Request) ([]core.Result, *messi.QueryStats, error) {
	if err := req.Validate(q, s.seriesLen); err != nil {
		return nil, nil, err
	}
	cuts, observed := s.view()
	stats := &messi.QueryStats{Observed: observed}
	if observed == 0 {
		return nil, stats, nil
	}
	var low int32
	if req.LastN > 0 {
		low = int32(max(0, observed-req.LastN))
	}
	sink := messi.NewSink(req)
	var per []*messi.Sink // Approx: each successful shard's own sink
	if req.Kind == messi.Approx {
		per = make([]*messi.Sink, s.n)
	}
	if err := s.scatter(req.Tenant, stats, func(si int) (*messi.QueryStats, error) {
		sk := sink
		if per != nil {
			sk = messi.NewSink(req)
		}
		st, err := s.shards[si].QueryShared(q, req, messi.Scope{AppendCut: int(cuts[si]), LowPos: low}, sk, s.mappers[si])
		if per != nil && err == nil {
			per[si] = sk
		}
		return st, err
	}); err != nil {
		return nil, nil, err
	}
	if per == nil {
		return sink.Results(), stats, nil
	}
	var best []core.Result
	for _, sk := range per {
		if sk == nil {
			continue
		}
		if r := sk.Results(); len(r) > 0 && (best == nil || r[0].Dist < best[0].Dist) {
			best = r
		}
	}
	return best, stats, nil
}

// Search answers an exact 1-NN query; see Query.
func (s *Sharded) Search(q series.Series, workers int) (core.Result, *messi.QueryStats, error) {
	rs, st, err := s.Query(q, messi.Request{Workers: workers})
	return core.First(rs), st, err
}

// SearchKNN answers an exact k-NN query with one shared k-best set across
// all shards; k ≤ 0 answers nothing.
func (s *Sharded) SearchKNN(q series.Series, k, workers int) ([]core.Result, *messi.QueryStats, error) {
	if k <= 0 {
		return nil, &messi.QueryStats{}, nil
	}
	return s.Query(q, messi.Request{Kind: messi.KNN, K: k, Workers: workers})
}

// SearchDTW answers an exact 1-NN DTW query (Sakoe-Chiba half-width
// window) with the shared best-so-far threaded through every shard's
// LB_Keogh cascade.
func (s *Sharded) SearchDTW(q series.Series, window, workers int) (core.Result, *messi.QueryStats, error) {
	rs, st, err := s.Query(q, messi.Request{Kind: messi.DTW, Band: window, Workers: workers})
	return core.First(rs), st, err
}

// SearchApproximate returns the best answer among every shard's
// approximate probe — still microseconds, still an upper bound on the
// exact answer, and always a position inside the prefix this call
// observed, even mid-append.
func (s *Sharded) SearchApproximate(q series.Series) (core.Result, error) {
	rs, _, err := s.Query(q, messi.Request{Kind: messi.Approx})
	return core.First(rs), err
}

// BatchSearchStats answers many exact 1-NN queries concurrently under the
// shared pool's admission control; one admission slot covers one query's
// whole cross-shard scatter.
func (s *Sharded) BatchSearchStats(qs []series.Series) ([]core.Result, []messi.QueryStats, error) {
	return messi.RunBatch(s.eng, qs, func(q series.Series) (core.Result, *messi.QueryStats, error) {
		return s.Search(q, 0)
	})
}

// BatchSearch is BatchSearchStats without the per-query stats.
func (s *Sharded) BatchSearch(qs []series.Series) ([]core.Result, error) {
	results, _, err := s.BatchSearchStats(qs)
	return results, err
}

// Append routes one series to its shard and returns its global position.
// The series is visible to queries before Append returns; merges into the
// shard's tree happen in the background exactly as for a plain index.
func (s *Sharded) Append(ser series.Series) (int, error) {
	if len(ser) != s.seriesLen {
		return 0, fmt.Errorf("shard: append length %d != %d", len(ser), s.seriesLen)
	}
	s.mu.Lock()
	g := s.appendLocked(ser)
	s.publishLocked(1)
	s.mu.Unlock()
	return g, nil
}

// AppendBatch routes a batch of series, returning the global position of
// the first; the batch occupies consecutive global positions and becomes
// visible atomically (the cut vector publishes once, after the last
// series lands).
func (s *Sharded) AppendBatch(ss []series.Series) (int, error) {
	for i, ser := range ss {
		if len(ser) != s.seriesLen {
			return 0, fmt.Errorf("shard: append batch series %d length %d != %d",
				i, len(ser), s.seriesLen)
		}
	}
	s.mu.Lock()
	start := s.Count()
	for _, ser := range ss {
		s.appendLocked(ser)
	}
	s.publishLocked(len(ss))
	s.mu.Unlock()
	return start, nil
}

// appendLocked lands one pre-validated series: route, record the mapping
// BEFORE the shard publishes (readers acquire the shard's append counter,
// so a position a query can see always has a visible mapping row), then
// append to the shard. Returns the global position. Caller holds s.mu and
// publishes the cut afterwards.
func (s *Sharded) appendLocked(ser series.Series) int {
	g := s.baseLen + s.routeLog.Len()
	si := s.policy.Route(g, ser, s.n)
	local := len(s.baseMap[si]) + s.appendMap[si].Len()
	s.appendMap[si].Append([]int32{int32(g)})
	s.routeLog.Append([]int32{int32(si), int32(local)})
	if _, err := s.shards[si].Append(ser); err != nil {
		// Lengths are validated before routing; a shard of the same config
		// cannot reject the append.
		panic(fmt.Sprintf("shard: shard %d rejected a validated append: %v", si, err))
	}
	return g
}

// publishLocked publishes n freshly landed appends as one atomic cut: a
// copy-on-write bump of the per-shard count vector (derived from the route
// log, whose suffix the caller just wrote), then the global counter.
func (s *Sharded) publishLocked(n int) {
	old := *s.cuts.Load()
	next := make([]int32, len(old))
	copy(next, old)
	lo := s.routeLog.Len() - n
	for g := lo; g < s.routeLog.Len(); g++ {
		next[s.routeLog.At(g)[0]]++
	}
	s.cuts.Store(&next)
	s.appended.Add(int64(n))
}

// AppendWithTTL is Append with an expiry deadline: the series lands and is
// immediately searchable, and a later ExpireBefore(now) with now past the
// deadline tombstones it. The TTL is attached before the cut publishes, so
// no reader can observe the series without its deadline.
func (s *Sharded) AppendWithTTL(ser series.Series, deadline int64) (int, error) {
	if len(ser) != s.seriesLen {
		return 0, fmt.Errorf("shard: append length %d != %d", len(ser), s.seriesLen)
	}
	s.mu.Lock()
	g := s.appendLocked(ser)
	r := s.routeLog.At(g - s.baseLen)
	if err := s.shards[r[0]].SetTTL(int(r[1]), deadline); err != nil {
		s.mu.Unlock()
		// appendLocked just landed this exact local position.
		panic(fmt.Sprintf("shard: shard %d rejected TTL on a landed append: %v", r[0], err))
	}
	s.publishLocked(1)
	s.mu.Unlock()
	return g, nil
}

// locate resolves a global position to its (shard, shard-local position)
// pair. Base positions binary-search the per-shard base maps (each an
// ascending slice of global positions); appended positions read the route
// log row, which was written before the position became visible. Caller
// guarantees 0 <= pos < Count().
func (s *Sharded) locate(pos int) (si, local int) {
	if pos < s.baseLen {
		for si, bm := range s.baseMap {
			j := sort.Search(len(bm), func(i int) bool { return bm[i] >= int32(pos) })
			if j < len(bm) && bm[j] == int32(pos) {
				return si, j
			}
		}
		panic(fmt.Sprintf("shard: base position %d in no shard's base map", pos))
	}
	r := s.routeLog.At(pos - s.baseLen)
	return int(r[0]), int(r[1])
}

// Delete tombstones the series at global position pos on whichever shard
// holds it; every subsequent search on every shard skips it. Reports
// whether this call newly deleted it.
func (s *Sharded) Delete(pos int) (bool, error) {
	n, err := s.DeleteRange(pos, pos+1)
	return n > 0, err
}

// DeleteRange tombstones every series in the global position range
// [lo, hi), returning how many this call newly deleted. The range must lie
// within [0, Count()].
func (s *Sharded) DeleteRange(lo, hi int) (int, error) {
	total := s.Count()
	if lo < 0 || hi < lo || hi > total {
		return 0, fmt.Errorf("shard: delete range [%d, %d) outside [0, %d]", lo, hi, total)
	}
	deleted := 0
	for pos := lo; pos < hi; pos++ {
		si, local := s.locate(pos)
		ok, err := s.shards[si].Delete(local)
		if err != nil {
			return deleted, err
		}
		if ok {
			deleted++
		}
	}
	return deleted, nil
}

// SetTTL sets (or replaces) the expiry deadline on the series at global
// position pos.
func (s *Sharded) SetTTL(pos int, deadline int64) error {
	if pos < 0 || pos >= s.Count() {
		return fmt.Errorf("shard: ttl position %d outside [0, %d)", pos, s.Count())
	}
	si, local := s.locate(pos)
	return s.shards[si].SetTTL(local, deadline)
}

// ExpireBefore tombstones every TTL'd series whose deadline is at or
// before now, across all shards, returning how many it newly deleted.
func (s *Sharded) ExpireBefore(now int64) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.ExpireBefore(now)
	}
	return n
}

// Tombstoned counts deleted (or expired) series across all shards.
func (s *Sharded) Tombstoned() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Tombstoned()
	}
	return n
}

// Live counts landed-and-not-tombstoned series across all shards.
func (s *Sharded) Live() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Live()
	}
	return n
}

// Compact synchronously flushes every shard and rebuilds its tree without
// tombstoned entries, reclaiming their tree residency.
func (s *Sharded) Compact() {
	for _, sh := range s.shards {
		sh.Compact()
	}
}

// Pending sums the shards' unmerged delta sizes.
func (s *Sharded) Pending() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.Pending()
	}
	return total
}

// Flush synchronously merges every shard's delta into its tree.
func (s *Sharded) Flush() {
	for _, sh := range s.shards {
		sh.Flush()
	}
}

// IngestStats merges the shards' write-path counters. MergeThreshold is
// the per-shard threshold (each shard schedules its own merges).
func (s *Sharded) IngestStats() messi.IngestStats {
	var out messi.IngestStats
	for _, sh := range s.shards {
		st := sh.IngestStats()
		out.Appended += st.Appended
		out.Pending += st.Pending
		out.Merged += st.Merged
		out.Merges += st.Merges
		out.SnapshotSwaps += st.SnapshotSwaps
		out.MergeThreshold = st.MergeThreshold
		out.Live += st.Live
		out.Tombstoned += st.Tombstoned
	}
	return out
}
