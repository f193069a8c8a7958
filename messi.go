package dsidx

import (
	"context"

	"dsidx/internal/engine"
	"dsidx/internal/messi"
)

// MESSI is the parallel in-memory index (paper §III, Figure 3). Queries are
// exact; construction and search scale with the number of workers.
//
// The index owns a persistent worker pool shared by every in-flight query:
// all Search variants are safe for concurrent use from any number of
// goroutines, and BatchSearch / Serve multiplex many queries onto the pool
// with admission control. Close releases the pool's goroutines; an unclosed
// index releases them when garbage-collected.
//
// The index also accepts live writes: Append and AppendBatch add series
// while queries run. New series land in a delta buffer (summarized on
// arrival, exact-scanned by queries, so answers stay exact), and a
// background merge — scheduled on the same worker pool once the buffer
// reaches WithMergeThreshold — folds them into the tree without blocking
// readers. IngestStats exposes the write path's counters; Flush forces a
// synchronous merge.
type MESSI struct {
	inner *messi.Index
}

// NewMESSI builds a MESSI index over an in-memory collection.
func NewMESSI(coll *Collection, opts ...Option) (*MESSI, error) {
	o := buildOptions(opts)
	inner, err := messi.Build(coll, o.coreConfig(), messi.Options{
		Workers:        o.workers,
		MaxInFlight:    o.maxInFlight,
		MergeThreshold: o.mergeThreshold,
		ProbeLeaves:    o.probeLeaves,
		DisableLeafRaw: o.leafRawOff,
		AutoTune:       o.autoTune,
	})
	if err != nil {
		return nil, err
	}
	return &MESSI{inner: inner}, nil
}

// Close stops the index's worker pool. It is idempotent and safe to call
// with queries in flight; queries issued after Close still answer
// correctly, executing serially on the calling goroutine.
func (ix *MESSI) Close() { ix.inner.Close() }

// Search returns the exact nearest neighbor of q under Euclidean distance.
func (ix *MESSI) Search(q Series) (Match, error) {
	r, _, err := ix.inner.Search(q, 0)
	return matchOf(r), err
}

// SearchWithWorkers is Search with an explicit worker count (for scaling
// studies).
func (ix *MESSI) SearchWithWorkers(q Series, workers int) (Match, error) {
	r, _, err := ix.inner.Search(q, workers)
	return matchOf(r), err
}

// SearchKNN returns the exact k nearest neighbors of q in ascending
// distance order.
func (ix *MESSI) SearchKNN(q Series, k int) ([]Match, error) {
	rs, _, err := ix.inner.SearchKNN(q, k, 0)
	return matchesOf(rs), err
}

// SearchDTW returns the exact nearest neighbor of q under dynamic time
// warping with a Sakoe-Chiba band of half-width window, answered on the
// same index with no rebuild (paper §V).
func (ix *MESSI) SearchDTW(q Series, window int) (Match, error) {
	r, _, err := ix.inner.SearchDTW(q, window, 0)
	return matchOf(r), err
}

// SearchApproximate returns the classic iSAX approximate answer: the best
// series of the single leaf matching the query's summary, in microseconds.
// Its distance is an upper bound on the exact answer's distance.
func (ix *MESSI) SearchApproximate(q Series) (Match, error) {
	r, err := ix.inner.SearchApproximate(q)
	return matchOf(r), err
}

// SearchWindow returns the exact nearest neighbor of q among the most
// recent n appended-or-built series — a sliding-window query. The window is
// a consistent suffix captured at call time: series landing mid-query are
// invisible, deleted series are skipped, and a window wider than everything
// landed degenerates to Search.
func (ix *MESSI) SearchWindow(q Series, n int) (Match, error) {
	r, _, err := ix.inner.SearchWindow(q, n, 0)
	return matchOf(r), err
}

// SearchTenant is Search under an opaque tenant ID: the query is accounted
// to the tenant, and under multi-tenant load its worker share is the
// tenant's slice of the pool rather than the whole of it. Tenant "" is
// exactly Search.
func (ix *MESSI) SearchTenant(q Series, tenant string) (Match, error) {
	r, _, err := ix.inner.SearchScoped(q, 0, messi.Scope{AppendCut: -1, Tenant: tenant})
	return matchOf(r), err
}

// SearchKNNTenant is SearchKNN under an opaque tenant ID.
func (ix *MESSI) SearchKNNTenant(q Series, k int, tenant string) ([]Match, error) {
	rs, _, err := ix.inner.SearchKNNScoped(q, k, 0, messi.Scope{AppendCut: -1, Tenant: tenant})
	return matchesOf(rs), err
}

// SearchDTWTenant is SearchDTW under an opaque tenant ID.
func (ix *MESSI) SearchDTWTenant(q Series, window int, tenant string) (Match, error) {
	r, _, err := ix.inner.SearchDTWScoped(q, window, 0, messi.Scope{AppendCut: -1, Tenant: tenant})
	return matchOf(r), err
}

// SearchApproximateTenant is SearchApproximate under an opaque tenant ID.
func (ix *MESSI) SearchApproximateTenant(q Series, tenant string) (Match, error) {
	r, err := ix.inner.SearchApproximateScoped(q, messi.Scope{AppendCut: -1, Tenant: tenant})
	return matchOf(r), err
}

// SearchWindowTenant is SearchWindow under an opaque tenant ID.
func (ix *MESSI) SearchWindowTenant(q Series, n int, tenant string) (Match, error) {
	r, _, err := ix.inner.SearchWindowTenant(q, n, 0, tenant)
	return matchOf(r), err
}

// Stats returns the index tree shape.
func (ix *MESSI) Stats() IndexStats { return statsOf(ix.inner.Tree()) }

// Len returns the number of indexed series, including live appends.
func (ix *MESSI) Len() int { return ix.inner.Count() }

// Append adds one series to the serving index and returns its position
// (positions continue past the build-time collection). The series becomes
// visible to queries before Append returns; a background merge folds it
// into the index tree later. Safe for concurrent use with queries, other
// appends, Flush, Save and Close.
func (ix *MESSI) Append(s Series) (int, error) { return ix.inner.Append(s) }

// AppendBatch adds a batch of series at consecutive positions, returning
// the position of the first. The batch becomes visible atomically: a
// concurrent query sees either none or all of it.
func (ix *MESSI) AppendBatch(ss []Series) (int, error) { return ix.inner.AppendBatch(ss) }

// Flush synchronously merges every series appended before the call into
// the index tree. Queries do not require it — unmerged series are already
// searched exactly — so Flush is about merge timing (e.g. before Save, or
// to bound per-query delta-scan cost ahead of a traffic spike).
func (ix *MESSI) Flush() { ix.inner.Flush() }

// Delete removes the series at position pos from every future search: it
// is tombstoned immediately (no search flavor can return it from the
// moment Delete returns) and physically dropped from the tree by the next
// merge or Compact. Positions are never reused. Reports whether this call
// newly deleted it; deleting a deleted position is a no-op.
func (ix *MESSI) Delete(pos int) (bool, error) { return ix.inner.Delete(pos) }

// DeleteRange deletes every series at positions [lo, hi), returning how
// many this call newly deleted. The range must lie within [0, Len()].
func (ix *MESSI) DeleteRange(lo, hi int) (int, error) { return ix.inner.DeleteRange(lo, hi) }

// AppendWithTTL is Append with an expiry deadline attached: once a later
// ExpireBefore(now) observes now at or past the deadline, the series is
// deleted exactly as by Delete. Deadlines are opaque int64s — wall-clock
// nanoseconds, a logical epoch, whatever the caller's clock produces; the
// index never reads a clock itself.
func (ix *MESSI) AppendWithTTL(s Series, deadline int64) (int, error) {
	return ix.inner.AppendWithTTL(s, deadline)
}

// SetTTL sets (or replaces) the expiry deadline on the series at position
// pos; a deadline already past still requires an ExpireBefore call to take
// effect.
func (ix *MESSI) SetTTL(pos int, deadline int64) error { return ix.inner.SetTTL(pos, deadline) }

// ExpireBefore deletes every series whose TTL deadline is at or before
// now, returning how many it newly deleted. The caller owns the clock:
// call it from a ticker for wall-clock TTLs, or at logical epoch
// boundaries.
func (ix *MESSI) ExpireBefore(now int64) int { return ix.inner.ExpireBefore(now) }

// Tombstoned counts deleted (or expired) series; Live counts the rest.
// Len stays the full position space: Len() == Live() + Tombstoned().
func (ix *MESSI) Tombstoned() int { return ix.inner.Tombstoned() }

// Live counts landed-and-not-deleted series.
func (ix *MESSI) Live() int { return ix.inner.Live() }

// Compact synchronously flushes pending appends and rebuilds the index
// tree without its tombstoned entries, reclaiming their tree residency.
// Searches never require it — tombstoned series are filtered either way —
// and it is safe to call concurrently with queries and appends.
func (ix *MESSI) Compact() { ix.inner.Compact() }

// IngestStats is a snapshot of the live-ingestion counters.
type IngestStats struct {
	// Appended counts series accepted by Append/AppendBatch since the
	// index was created or loaded.
	Appended uint64
	// Pending is the current delta-buffer size: appended series not yet
	// merged into the tree (queries exact-scan them in the meantime).
	Pending int
	// Merged is the number of appended series the tree covers.
	Merged int
	// Merges counts completed background/Flush merge cycles;
	// SnapshotSwaps counts tree-snapshot publications (one per merge
	// cycle that installed a new tree).
	Merges        uint64
	SnapshotSwaps uint64
	// MergeThreshold is the live delta size that triggers a background
	// merge (the WithMergeThreshold option, possibly moved by
	// WithAutoTune).
	MergeThreshold int
	// Live and Tombstoned partition the landed series (base plus appends)
	// into searchable and deleted/expired.
	Live       int
	Tombstoned int
}

// ingestStatsOf mirrors the internal snapshot into the public type.
func ingestStatsOf(st messi.IngestStats) IngestStats {
	return IngestStats{
		Appended:       st.Appended,
		Pending:        st.Pending,
		Merged:         st.Merged,
		Merges:         st.Merges,
		SnapshotSwaps:  st.SnapshotSwaps,
		MergeThreshold: st.MergeThreshold,
		Live:           st.Live,
		Tombstoned:     st.Tombstoned,
	}
}

// IngestStats snapshots the write path's counters.
func (ix *MESSI) IngestStats() IngestStats {
	return ingestStatsOf(ix.inner.IngestStats())
}

// BatchSearch answers one exact 1-NN query per element of qs, running them
// concurrently on the shared worker pool under admission control. The
// result at index i answers qs[i]. Results are identical to issuing each
// query through Search serially.
func (ix *MESSI) BatchSearch(qs []Series) ([]Match, error) {
	rs, err := ix.inner.BatchSearch(qs)
	return matchesOf(rs), err
}

// SearchStats reports the work one query performed — the pruning behavior
// behind its latency. Lower RawDistances relative to Observed means the
// index discarded more of the collection without touching raw values.
type SearchStats struct {
	// ProbeLeaves is the number of leaves the approximate phase probed to
	// seed the best-so-far (the WithProbeLeaves option).
	ProbeLeaves int
	// LeavesInserted counts leaves that survived tree pruning;
	// LeavesPopped counts those actually examined afterwards.
	LeavesInserted int
	LeavesPopped   int
	// EntriesChecked counts per-series lower bounds computed.
	EntriesChecked int
	// RawDistances counts exact distances computed, approximate phase
	// included.
	RawDistances int
	// Observed is the number of series the query answered over (base
	// collection plus published appends at query start).
	Observed int
	// UncoveredShards lists the shards a partial-results query (a Sharded
	// index with WithAllowPartial) could not cover; empty whenever the
	// answer is complete, and always empty on an unsharded index.
	UncoveredShards []int
}

func statsFromQuery(st messi.QueryStats) SearchStats {
	return SearchStats{
		ProbeLeaves:     st.ProbeLeaves,
		LeavesInserted:  st.LeavesInserted,
		LeavesPopped:    st.LeavesPopped,
		EntriesChecked:  st.EntriesChecked,
		RawDistances:    st.RawDistances,
		Observed:        st.Observed,
		UncoveredShards: st.UncoveredShards,
	}
}

// BatchSearchStats is BatchSearch additionally returning each query's work
// stats, so batched workloads can report pruning ratios the same way
// single-query experiments do. stats[i] describes the query that produced
// results[i].
func (ix *MESSI) BatchSearchStats(qs []Series) ([]Match, []SearchStats, error) {
	rs, sts, err := ix.inner.BatchSearchStats(qs)
	stats := make([]SearchStats, len(sts))
	for i, st := range sts {
		stats[i] = statsFromQuery(st)
	}
	return matchesOf(rs), stats, err
}

// EngineStats is a snapshot of the shared worker pool's throughput
// counters.
type EngineStats struct {
	// Workers is the pool size (tasks executing at any instant ≤ Workers).
	Workers int
	// PendingTasks is the current depth of the shared run queue.
	PendingTasks int
	// InFlight is the number of queries currently admitted by
	// BatchSearch/Serve; PeakInFlight is its high-water mark.
	InFlight     int
	PeakInFlight int
	// Queries counts queries executed since the index was built — through
	// any entry path, direct Search calls included, not only admitted
	// BatchSearch/Serve traffic. Tasks counts pool tasks executed.
	// Sampling Queries across an interval yields throughput (QPS).
	Queries uint64
	Tasks   uint64
	// Saturation counters: AdmitWaits counts admissions that blocked on a
	// full in-flight budget, AdmitWaitNanos their total blocked time, and
	// SubmitFallbacks optional pool tasks dropped because the run queue
	// was full. Together they say whether the pool is the bottleneck.
	AdmitWaits      uint64
	AdmitWaitNanos  uint64
	SubmitFallbacks uint64
	// Containment counters: TaskPanics counts pool tasks whose panic was
	// caught at the worker boundary, BgPanics background jobs (merges)
	// whose panic was caught. Nonzero values mean queries failed with
	// typed errors instead of crashing the process — inspect Health for
	// the query-level view.
	TaskPanics uint64
	BgPanics   uint64
}

// engineStatsOf mirrors the internal snapshot into the public type.
func engineStatsOf(st engine.Stats) EngineStats {
	return EngineStats{
		Workers:         st.Workers,
		PendingTasks:    st.PendingTasks,
		InFlight:        st.InFlight,
		PeakInFlight:    st.PeakInFlight,
		Queries:         st.Queries,
		Tasks:           st.Tasks,
		AdmitWaits:      st.AdmitWaits,
		AdmitWaitNanos:  st.AdmitWaitNanos,
		SubmitFallbacks: st.SubmitFallbacks,
		TaskPanics:      st.TaskPanics,
		BgPanics:        st.BgPanics,
	}
}

// Health is an index's liveness snapshot: how many queries ran, how many
// failed with a contained error instead of crashing, and how many
// background merges were abandoned after a contained panic. A healthy
// index reports zeros everywhere but Searches.
type Health struct {
	// Searches counts exact/approximate searches started;
	// FailedSearches the subset that returned an error.
	Searches       uint64
	FailedSearches uint64
	// MergeAborts counts background merges abandoned because a task
	// panicked; the delta buffer stays searchable and the next append or
	// Flush retries.
	MergeAborts uint64
	// TaskPanics and BgPanics are the worker pool's containment counters
	// (see EngineStats).
	TaskPanics uint64
	BgPanics   uint64
	// Live and Tombstoned partition the landed series into searchable and
	// deleted/expired.
	Live       int
	Tombstoned int
}

// Health snapshots the index's failure counters. Safe to call concurrently
// with queries and appends.
func (ix *MESSI) Health() Health {
	h := ix.inner.Health()
	return Health{
		Searches:       h.Searches,
		FailedSearches: h.FailedSearches,
		MergeAborts:    h.MergeAborts,
		TaskPanics:     h.TaskPanics,
		BgPanics:       h.BgPanics,
		Live:           h.Live,
		Tombstoned:     h.Tombstoned,
	}
}

// TenantStats is one tenant's scheduling-and-throughput snapshot.
type TenantStats struct {
	// Tenant is the opaque ID supplied on Search*Tenant calls or
	// QueryRequest.Tenant.
	Tenant string
	// InFlight and ActiveQueries are the tenant's currently admitted and
	// currently executing query counts.
	InFlight      int
	ActiveQueries int
	// Queries counts the tenant's lifetime queries; AdmitWaits its
	// admissions that blocked on the tenant's own fairness gate.
	Queries    uint64
	AdmitWaits uint64
}

// tenantStatsOf mirrors the engine's per-tenant snapshot.
func tenantStatsOf(ts []engine.TenantStat) []TenantStats {
	out := make([]TenantStats, len(ts))
	for i, t := range ts {
		out[i] = TenantStats{
			Tenant:        t.Tenant,
			InFlight:      t.InFlight,
			ActiveQueries: t.ActiveQueries,
			Queries:       t.Queries,
			AdmitWaits:    t.AdmitWaits,
		}
	}
	return out
}

// TenantStats snapshots every tenant ever seen, sorted by ID; untenanted
// traffic never appears. Empty until the first tenanted call.
func (ix *MESSI) TenantStats() []TenantStats { return tenantStatsOf(ix.inner.TenantStats()) }

// EngineStats snapshots the worker pool's counters. Sample it periodically
// to derive throughput.
func (ix *MESSI) EngineStats() EngineStats {
	return engineStatsOf(ix.inner.EngineStats())
}

// Serve turns the index into a long-running query server: it answers
// requests from in until in closes or ctx is canceled, then closes the
// returned channel. Up to MaxInFlight requests are answered concurrently on
// the shared worker pool, so responses arrive in completion order — match
// them to requests by ID. Serve may be called multiple times; all serving
// loops share the same pool and admission budget.
//
// Every request Serve dequeues from in produces exactly one response, Err
// set when cancellation preempted it; drain the returned channel until it
// closes to balance submissions against answers after a shutdown.
func (ix *MESSI) Serve(ctx context.Context, in <-chan QueryRequest) <-chan QueryResponse {
	return serve(ctx, in, ix)
}

// admitContext and maxInFlight adapt the index to the shared serving loop.
func (ix *MESSI) admitContext(ctx context.Context, tenant string) (func(), error) {
	return ix.inner.AdmitTenantContext(ctx, tenant)
}
func (ix *MESSI) maxInFlight() int { return ix.inner.MaxInFlight() }
