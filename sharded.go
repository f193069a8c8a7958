package dsidx

import (
	"context"
	"fmt"

	"dsidx/internal/messi"
	"dsidx/internal/shard"
)

// ShardPolicy selects how a Sharded index routes series to shards.
type ShardPolicy int

const (
	// ShardRoundRobin routes series by arrival order (series i to shard
	// i mod N): near-equal shard sizes, content-independent — the default.
	ShardRoundRobin ShardPolicy = iota
	// ShardByHash routes each series by a hash of its values, so identical
	// series always land on the same shard regardless of arrival order.
	ShardByHash
)

func (p ShardPolicy) internal() (shard.Policy, error) {
	switch p {
	case ShardRoundRobin:
		return shard.RoundRobin{}, nil
	case ShardByHash:
		return shard.HashSeries{}, nil
	default:
		return nil, fmt.Errorf("dsidx: unknown ShardPolicy %d", p)
	}
}

// WithShards partitions a Sharded index into n shards (default 1; at most
// 256). More shards parallelize builds and merges coarsely and cap each
// tree's size; queries scatter-gather over all of them with one shared
// best-so-far, so answers are unchanged.
func WithShards(n int) Option { return func(o *options) { o.shards = n } }

// WithShardPolicy selects the routing policy of a Sharded index (default
// ShardRoundRobin). When opening a saved index, the file's recorded policy
// wins; passing a different one explicitly is an error.
func WithShardPolicy(p ShardPolicy) Option {
	return func(o *options) { o.shardPolicy, o.shardPolicySet = p, true }
}

// WithAllowPartial opts a Sharded index into best-effort answers when
// shards are unavailable (quarantined after repeated device failures, or
// failing mid-query): instead of the whole query failing with a typed
// shards-unavailable error, it answers from the shards still serving and
// reports the gap in SearchStats.UncoveredShards. Off by default — a
// partial answer is no longer guaranteed to be the exact nearest neighbor,
// so callers must opt in explicitly.
func WithAllowPartial(enabled bool) Option {
	return func(o *options) { o.allowPartial = enabled }
}

// Sharded is a partitioned MESSI index: the collection is split across N
// independent shards — each a full MESSI index — that answer as one.
// Search variants scatter to every shard with a single shared best-so-far
// (a bound found on one shard prunes the others mid-flight) and gather
// results in the collection's global position space, so every answer is
// identical to the same query against an unsharded index. All shards share
// one worker pool and one admission budget, so WithWorkers and
// WithMaxInFlight govern the whole sharded index, not each shard.
//
// The full MESSI surface is available: exact 1-NN/k-NN/DTW and approximate
// search, BatchSearch, live Append/AppendBatch with background merges,
// Flush, Serve, persistence (Save/OpenSharded) and merged stats.
type Sharded struct {
	inner *shard.Sharded
}

// shardOptions converts public options to the internal shard form. The
// policy stays nil when not explicitly chosen, so loading a saved index
// adopts the file's recorded policy instead of conflicting with it.
func (o options) shardOptions() (shard.Options, error) {
	var policy shard.Policy
	if o.shardPolicySet {
		var err error
		if policy, err = o.shardPolicy.internal(); err != nil {
			return shard.Options{}, err
		}
	}
	return shard.Options{
		Shards:       o.shards,
		Policy:       policy,
		AllowPartial: o.allowPartial,
		Options: messi.Options{
			Workers:        o.workers,
			MaxInFlight:    o.maxInFlight,
			MergeThreshold: o.mergeThreshold,
			ProbeLeaves:    o.probeLeaves,
			DisableLeafRaw: o.leafRawOff,
			AutoTune:       o.autoTune,
		},
	}, nil
}

// NewSharded builds a sharded MESSI index over an in-memory collection,
// partitioned by WithShards and WithShardPolicy.
func NewSharded(coll *Collection, opts ...Option) (*Sharded, error) {
	o := buildOptions(opts)
	so, err := o.shardOptions()
	if err != nil {
		return nil, err
	}
	inner, err := shard.Build(coll, o.coreConfig(), so)
	if err != nil {
		return nil, err
	}
	return &Sharded{inner: inner}, nil
}

// Save writes the sharded index to path: a DSS1 manifest wrapping every
// shard's own index encoding, live-append stores included.
func (s *Sharded) Save(path string) error {
	return writeFileAtomic(path, s.inner.Encode())
}

// OpenSharded reopens a saved sharded index over the collection it was
// built from. The file defines the shard count and policy; WithShards and
// WithShardPolicy, when given, must match it. A pre-sharding single-index
// file (as written by MESSI.Save) opens as a 1-shard instance with
// unchanged positions and answers.
func OpenSharded(path string, coll *Collection, opts ...Option) (*Sharded, error) {
	data, err := readIndexFile(path)
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	// shardOptions leaves Shards 0 and Policy nil when unset, which Decode
	// reads as "whatever the file says".
	so, err := o.shardOptions()
	if err != nil {
		return nil, err
	}
	inner, err := shard.Decode(data, coll, so)
	if err != nil {
		return nil, err
	}
	return &Sharded{inner: inner}, nil
}

// Close releases every shard's reference to the shared worker pool; the
// pool stops after the last one. Idempotent and safe with queries in
// flight.
func (s *Sharded) Close() { s.inner.Close() }

// Shards returns the number of partitions.
func (s *Sharded) Shards() int { return s.inner.Shards() }

// Len returns the number of indexed series across all shards, live
// appends included.
func (s *Sharded) Len() int { return s.inner.Count() }

// Stats merges the shards' tree shapes into one aggregate view.
func (s *Sharded) Stats() IndexStats {
	var out IndexStats
	leaves := 0
	for si := 0; si < s.inner.Shards(); si++ {
		st := statsOf(s.inner.Shard(si).Tree())
		out.Series += st.Series
		out.RootNodes += st.RootNodes
		out.InnerNodes += st.InnerNodes
		out.Leaves += st.Leaves
		out.MaxDepth = max(out.MaxDepth, st.MaxDepth)
		out.LeafFillAvg += st.LeafFillAvg * float64(st.Leaves)
		leaves += st.Leaves
	}
	if leaves > 0 {
		out.LeafFillAvg /= float64(leaves)
	}
	return out
}

// Search returns the exact nearest neighbor of q under Euclidean distance,
// scatter-gathered over every shard with one shared best-so-far.
func (s *Sharded) Search(q Series) (Match, error) {
	r, _, err := s.inner.Search(q, 0)
	return matchOf(r), err
}

// SearchWithWorkers is Search with an explicit per-shard worker count (for
// scaling studies).
func (s *Sharded) SearchWithWorkers(q Series, workers int) (Match, error) {
	r, _, err := s.inner.Search(q, workers)
	return matchOf(r), err
}

// SearchKNN returns the exact k nearest neighbors of q in ascending
// distance order; one k-best set is shared by every shard.
func (s *Sharded) SearchKNN(q Series, k int) ([]Match, error) {
	rs, _, err := s.inner.SearchKNN(q, k, 0)
	return matchesOf(rs), err
}

// SearchDTW returns the exact nearest neighbor of q under dynamic time
// warping with a Sakoe-Chiba band of half-width window.
func (s *Sharded) SearchDTW(q Series, window int) (Match, error) {
	r, _, err := s.inner.SearchDTW(q, window, 0)
	return matchOf(r), err
}

// SearchApproximate returns the best answer among every shard's
// approximate probe, still in microseconds; its distance upper-bounds the
// exact answer's.
func (s *Sharded) SearchApproximate(q Series) (Match, error) {
	r, err := s.inner.SearchApproximate(q)
	return matchOf(r), err
}

// SearchWindow returns the exact nearest neighbor of q among the most
// recent n landed series across all shards — the window is a consistent
// global suffix captured at call time, regardless of how appends were
// routed, minus deleted series.
func (s *Sharded) SearchWindow(q Series, n int) (Match, error) {
	r, _, err := s.inner.SearchWindow(q, n, 0)
	return matchOf(r), err
}

// SearchTenant is Search under an opaque tenant ID (see MESSI.SearchTenant;
// the fairness machinery is the shared pool's, so it spans all shards).
func (s *Sharded) SearchTenant(q Series, tenant string) (Match, error) {
	r, _, err := s.inner.SearchScoped(q, 0, messi.Scope{AppendCut: -1, Tenant: tenant})
	return matchOf(r), err
}

// SearchKNNTenant is SearchKNN under an opaque tenant ID.
func (s *Sharded) SearchKNNTenant(q Series, k int, tenant string) ([]Match, error) {
	rs, _, err := s.inner.SearchKNNScoped(q, k, 0, messi.Scope{AppendCut: -1, Tenant: tenant})
	return matchesOf(rs), err
}

// SearchDTWTenant is SearchDTW under an opaque tenant ID.
func (s *Sharded) SearchDTWTenant(q Series, window int, tenant string) (Match, error) {
	r, _, err := s.inner.SearchDTWScoped(q, window, 0, messi.Scope{AppendCut: -1, Tenant: tenant})
	return matchOf(r), err
}

// SearchApproximateTenant is SearchApproximate under an opaque tenant ID.
func (s *Sharded) SearchApproximateTenant(q Series, tenant string) (Match, error) {
	r, err := s.inner.SearchApproximateScoped(q, messi.Scope{AppendCut: -1, Tenant: tenant})
	return matchOf(r), err
}

// SearchWindowTenant is SearchWindow under an opaque tenant ID.
func (s *Sharded) SearchWindowTenant(q Series, n int, tenant string) (Match, error) {
	r, _, err := s.inner.SearchWindowTenant(q, n, 0, tenant)
	return matchOf(r), err
}

// BatchSearch answers one exact 1-NN query per element of qs concurrently
// under the shared admission budget; results[i] answers qs[i].
func (s *Sharded) BatchSearch(qs []Series) ([]Match, error) {
	rs, err := s.inner.BatchSearch(qs)
	return matchesOf(rs), err
}

// BatchSearchStats is BatchSearch additionally returning each query's
// merged cross-shard work stats.
func (s *Sharded) BatchSearchStats(qs []Series) ([]Match, []SearchStats, error) {
	rs, sts, err := s.inner.BatchSearchStats(qs)
	stats := make([]SearchStats, len(sts))
	for i, st := range sts {
		stats[i] = statsFromQuery(st)
	}
	return matchesOf(rs), stats, err
}

// Append routes one series to its shard and returns its global position
// (positions continue past the build-time collection, in arrival order).
// The series is visible to queries before Append returns.
func (s *Sharded) Append(ser Series) (int, error) { return s.inner.Append(ser) }

// AppendBatch adds a batch at consecutive global positions, returning the
// first; the batch becomes visible atomically across all shards.
func (s *Sharded) AppendBatch(ss []Series) (int, error) { return s.inner.AppendBatch(ss) }

// Flush synchronously merges every shard's pending appends into its tree.
func (s *Sharded) Flush() { s.inner.Flush() }

// Delete removes the series at global position pos from every future
// search on every shard (see MESSI.Delete). Reports whether this call
// newly deleted it.
func (s *Sharded) Delete(pos int) (bool, error) { return s.inner.Delete(pos) }

// DeleteRange deletes every series at global positions [lo, hi),
// returning how many this call newly deleted.
func (s *Sharded) DeleteRange(lo, hi int) (int, error) { return s.inner.DeleteRange(lo, hi) }

// AppendWithTTL is Append with an expiry deadline attached (see
// MESSI.AppendWithTTL); the deadline routes to whichever shard receives
// the series.
func (s *Sharded) AppendWithTTL(ser Series, deadline int64) (int, error) {
	return s.inner.AppendWithTTL(ser, deadline)
}

// SetTTL sets (or replaces) the expiry deadline on the series at global
// position pos.
func (s *Sharded) SetTTL(pos int, deadline int64) error { return s.inner.SetTTL(pos, deadline) }

// ExpireBefore deletes every series whose TTL deadline is at or before
// now, across all shards, returning how many it newly deleted.
func (s *Sharded) ExpireBefore(now int64) int { return s.inner.ExpireBefore(now) }

// Tombstoned counts deleted (or expired) series across all shards; Live
// counts the rest. Len() == Live() + Tombstoned().
func (s *Sharded) Tombstoned() int { return s.inner.Tombstoned() }

// Live counts landed-and-not-deleted series across all shards.
func (s *Sharded) Live() int { return s.inner.Live() }

// Compact synchronously flushes every shard and rebuilds its tree without
// tombstoned entries.
func (s *Sharded) Compact() { s.inner.Compact() }

// TenantStats snapshots the shared pool's per-tenant accounting, sorted by
// tenant ID.
func (s *Sharded) TenantStats() []TenantStats { return tenantStatsOf(s.inner.TenantStats()) }

// IngestStats merges the shards' write-path counters.
func (s *Sharded) IngestStats() IngestStats {
	return ingestStatsOf(s.inner.IngestStats())
}

// EngineStats snapshots the one worker pool all shards share — already the
// aggregate view of the sharded index's execution.
// ShardHealth is one shard's serving condition inside a Sharded index.
type ShardHealth struct {
	// State is "serving", "quarantined" (repeated permanent device
	// failures; queries skip the shard) or "restaging" (being rewritten
	// onto a fresh store).
	State string
	// Cold reports whether the shard's base values live on the
	// out-of-core tier.
	Cold bool
	// Failures counts queries the shard failed with a storage-classified
	// error; PermanentFailures is the permanent subset.
	Failures          uint64
	PermanentFailures uint64
	// Quarantines and Restages count lifecycle transitions.
	Quarantines uint64
	Restages    uint64
	// LastError describes the most recent storage failure ("" when none).
	LastError string
}

// ShardedHealth is a Sharded index's liveness snapshot: the aggregate
// query/merge failure counters plus each shard's serving state.
type ShardedHealth struct {
	// Searches, FailedSearches and MergeAborts aggregate the per-shard
	// counters (see Health on MESSI).
	Searches       uint64
	FailedSearches uint64
	MergeAborts    uint64
	// TaskPanics and BgPanics are the shared pool's containment counters.
	TaskPanics uint64
	BgPanics   uint64
	// Live and Tombstoned partition the landed series across shards into
	// searchable and deleted/expired.
	Live       int
	Tombstoned int
	// Shards holds one entry per shard; Quarantined lists the ids not
	// currently serving, ascending.
	Shards      []ShardHealth
	Quarantined []int
}

// Health snapshots the index's serving condition. Safe to call
// concurrently with queries, appends and background re-stages.
func (s *Sharded) Health() ShardedHealth {
	h := s.inner.Health()
	out := ShardedHealth{
		Searches:       h.Searches,
		FailedSearches: h.FailedSearches,
		MergeAborts:    h.MergeAborts,
		TaskPanics:     h.TaskPanics,
		BgPanics:       h.BgPanics,
		Live:           h.Live,
		Tombstoned:     h.Tombstoned,
		Shards:         make([]ShardHealth, len(h.Shards)),
		Quarantined:    h.Quarantined,
	}
	for i, sh := range h.Shards {
		out.Shards[i] = ShardHealth{
			State:             sh.State.String(),
			Cold:              sh.Cold,
			Failures:          sh.Failures,
			PermanentFailures: sh.PermanentFailures,
			Quarantines:       sh.Quarantines,
			Restages:          sh.Restages,
			LastError:         sh.LastError,
		}
	}
	return out
}

func (s *Sharded) EngineStats() EngineStats {
	return engineStatsOf(s.inner.EngineStats())
}

// Serve turns the sharded index into a long-running query server over the
// same request/response protocol as MESSI.Serve; one admission slot covers
// one request's whole cross-shard scatter. Every dequeued request produces
// exactly one response — drain the returned channel until it closes.
func (s *Sharded) Serve(ctx context.Context, in <-chan QueryRequest) <-chan QueryResponse {
	return serve(ctx, in, s)
}

func (s *Sharded) admitContext(ctx context.Context, tenant string) (func(), error) {
	return s.inner.AdmitTenantContext(ctx, tenant)
}
func (s *Sharded) maxInFlight() int { return s.inner.MaxInFlight() }
