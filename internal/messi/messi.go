// Package messi implements MESSI (paper §III, Figure 3), the first parallel
// in-memory data series index, extended into a live serving system.
//
// Index creation: the in-memory RawData array is split into fixed-size
// blocks; index workers claim blocks with Fetch&Inc and write each series'
// iSAX summary into the global SAX array, recording its position in the
// worker's own partition of the per-root-subtree iSAX buffer (each buffer
// is "split into parts and each worker works on its own part", eliminating
// synchronization — paper footnote 2). When all summaries exist, workers
// claim whole buffers with Fetch&Inc and build the corresponding subtrees
// independently (footnote 3).
//
// Query answering: a multi-probe approximate search (the Options.ProbeLeaves
// best leaves under the query's summary) seeds the shared BSF; workers
// then traverse distinct root subtrees, pruning by node-level lower bounds
// against the live BSF, and collect the surviving leaves — minus the
// already-probed ones — in per-worker runs, sorted after the traversal into
// one candidate array by ascending lower bound. (The paper inserts them
// into a set of lock-protected min-priority queues instead.) Workers then
// claim candidates from that array with Fetch&Inc, which
// is exact global best-first order: a claimed leaf whose bound beats the
// BSF has its whole summary block lower-bounded in one batched pass
// (bit-identical to the per-entry bounds), then survivors pay an
// early-abandoning real distance read from the leaf's contiguous raw block
// (leaf-ordered storage, unless Options.DisableLeafRaw). The first claimed
// candidate whose bound is not below the BSF ends the phase: every later
// one is prunable too. Compared to ParIS, the tree prunes *before*
// lower-bound computation and the candidates are refined best-first — the
// two effects behind Figure 12's speedups; the
// batched bounds and leaf-ordered reads give the refinement loop the
// sequential memory behavior the paper gets from SIMD over flat arrays.
//
// Live ingestion: the paper builds the index as a one-shot batch job; this
// implementation additionally accepts new series while queries run (see
// ingest.go). Appends land in a concurrent delta buffer, summarized with
// SAX on arrival; queries union the tree's candidates with an exact scan of
// the delta, so answers stay bit-identical to a serial scan of everything
// the query observed. A background merge — the ParIS+ buffer-fill /
// tree-insert split, run as tasks on the index's worker pool — folds the
// delta into a copied-aside version of the affected subtrees and swaps in
// the merged snapshot atomically, never blocking readers.
package messi

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/engine"
	"dsidx/internal/metrics"
	"dsidx/internal/series"
	"dsidx/internal/xsync"
)

// Options configures index creation and query answering.
type Options struct {
	// Workers is the number of index worker goroutines (the paper's
	// "number of cores"). 0 means GOMAXPROCS.
	Workers int
	// BlockSeries is the stage-1 chunk size in series (0 means 1024); small
	// blocks assigned with Fetch&Inc give the load balancing the paper
	// describes.
	BlockSeries int
	// SharedBuffers selects the alternative stage-1 design the paper's
	// footnote 2 reports trying and rejecting: one lock-protected buffer
	// per root subtree shared by all workers, instead of per-worker buffer
	// parts. Kept for the ablation experiment; expect worse performance
	// under contention.
	SharedBuffers bool
	// MaxInFlight bounds the number of queries admitted simultaneously by
	// BatchSearch and the serving layer (0 means 2×Workers). Directly
	// invoked Search calls are not admission-controlled.
	MaxInFlight int
	// MergeThreshold is the delta-buffer size (in series) at which a
	// background merge into the tree is scheduled (0 means 4096). Queries
	// stay exact at any threshold — the delta is exact-scanned — so this
	// knob only trades merge frequency against per-query delta-scan cost.
	MergeThreshold int
	// ProbeLeaves is the number of leaves the approximate phase probes to
	// seed the best-so-far before exact search (0 means 2; 1 restores the
	// paper's single-leaf seed). More probes cost a few extra candidate
	// distances up front but tighten the BSF, so tree pruning discards
	// more of the index — the net raw-distance count must not grow, which
	// the pruning regression test enforces for the default.
	ProbeLeaves int
	// AutoTune lets the index adjust the live ProbeLeaves and
	// MergeThreshold values from the observed query/append mix (tune.go).
	// Tuning never changes answers: ProbeLeaves only affects how the
	// best-so-far is seeded before the exact phase, and MergeThreshold
	// only decides when the delta folds into the tree — both paths are
	// answer-invariant by construction, and the conformance harness
	// randomly enables tuning to enforce it.
	AutoTune bool
	// DisableLeafRaw turns off leaf-ordered raw storage. By default every
	// leaf keeps a contiguous copy of its series' values (filled at build,
	// carried through splits and live merges), so leaf refinement streams
	// sequential memory instead of chasing positions through the
	// collection — at the cost of one extra copy of the raw data.
	// Disabling trades that memory back for per-entry random reads.
	DisableLeafRaw bool
	// Engine attaches the index to an existing shared worker pool instead
	// of creating its own — how a sharding layer runs every shard's tasks
	// through one globally governed pool. The engine is retained for the
	// index's lifetime; Close releases only this index's reference, so the
	// pool survives until its last holder closes. When set, Workers and
	// MaxInFlight describe the shared pool (they do not size a new one).
	Engine *engine.Engine
}

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BlockSeries <= 0 {
		o.BlockSeries = 1024
	}
	if o.MergeThreshold <= 0 {
		o.MergeThreshold = 4096
	}
	if o.ProbeLeaves <= 0 {
		o.ProbeLeaves = 2
	}
	return o
}

// BuildStats splits creation time into the two phases of Figure 5.
type BuildStats struct {
	Summarize time.Duration // stage 1: iSAX summary computation
	TreeBuild time.Duration // stage 2: subtree construction
	Total     time.Duration
}

// snapshot is one immutable version of the indexed state: a tree covering
// the base collection plus the first mergedA appended series. Queries load
// the current snapshot once and use it throughout, so a concurrent merge
// (which installs a new snapshot, never mutating a published one) is
// invisible to in-flight queries. The flat SAX rows backing the snapshot
// live outside it — baseSAX for the build-time collection, saxLog for
// appends — both immutable below the published counts, so snapshots stay
// two words and merges never copy summary data.
type snapshot struct {
	tree    *core.Tree
	mergedA int // appended series covered by the tree
}

// Index is a MESSI index over an in-memory collection, serving exact
// queries while accepting live appends.
//
// Query answering runs on a persistent, index-owned worker pool shared by
// every in-flight query (see internal/engine): Query and its Search and
// SearchDTW wrappers may be called concurrently from any number of
// goroutines, and their traversal/refinement tasks interleave on the pool
// instead of spawning per-call goroutines. Append and AppendBatch
// (ingest.go) are safe concurrently with all of the above. Close releases
// the pool; an unclosed Index releases it when garbage-collected.
type Index struct {
	cfg     core.Config
	opt     Options
	raw     series.Reader // immutable base collection (flat or a view)
	baseLen int
	build   BuildStats

	// prefetch is non-nil when raw is device-backed (resolves a
	// series.Prefetcher through any view chain): the refinement path then
	// masks cold-leaf device reads behind distance computation (query.go).
	// Nil for RAM-resident collections — the hot path is untouched.
	prefetch func(pos []int32)

	// snap is the current tree snapshot; swapped whole by merges.
	snap atomic.Pointer[snapshot]

	// Live-ingestion state (ingest.go). store and saxLog hold appended
	// series (raw values and on-arrival summaries) in stable chunked
	// storage; appended is the published count gating reader visibility
	// into both. baseSAX holds the build-time collection's summaries,
	// immutable after construction.
	baseSAX     *core.SAXArray
	store       *series.Chunked
	saxLog      *series.ChunkedRows[uint8]
	appended    atomic.Int64
	ingestMu    sync.Mutex // serializes appenders
	ingestSM    *core.Summarizer
	ingestBf    []uint8
	mergeMu     sync.Mutex // serializes merges (background and Flush)
	merging     atomic.Bool
	merges      atomic.Uint64
	mergeAborts atomic.Uint64 // merge cycles abandoned after a contained task panic
	// restored is the appended count carried in from Decode, so
	// IngestStats.Appended counts only series accepted since this Index
	// was created or loaded. Written once before the index is shared.
	restored int64
	// snapSwaps counts snapshot installs (merge cycles that actually
	// published a new tree).
	snapSwaps atomic.Uint64

	// Delete/TTL state (tombstone.go). tombs is the published copy-on-write
	// tombstone set every search consults; tombMu serializes mutators and
	// guards ttls, the pending per-position expiry deadlines.
	tombs  atomic.Pointer[tombSet]
	tombMu sync.Mutex
	ttls   []ttlEntry

	// searches counts Shared-entry searches served by this index (for a
	// sharded index: this shard's sub-searches); queryDur is their
	// latency histogram. Both feed the metrics registry and the tuner.
	// searchFails counts searches that returned a contained-fault error
	// instead of an answer.
	searches    atomic.Uint64
	searchFails atomic.Uint64
	queryDur    *metrics.Histogram

	// Live tuning state (tune.go): the knob values queries and merges
	// actually read. They start at the configured options and move only
	// when Options.AutoTune is set.
	probeLive   atomic.Int32
	mergeLive   atomic.Int32
	tuneOps     atomic.Uint64 // queries+appends since creation, drives the retune cadence
	tuneAdjusts atomic.Uint64
	tuneMu      sync.Mutex // serializes retunes; guards lastQ/lastA
	lastQ       uint64
	lastA       uint64

	eng     *engine.Engine
	engRef  *engineRef
	scratch sync.Pool // *searchScratch, sized for cfg/opt
	lbPool  sync.Pool // *lbScratch, one per concurrently running task
}

// engineRef pairs the index's engine reference with a once, so Close and
// the garbage-collection cleanup release it exactly one time even when a
// shared pool (Options.Engine) is counting references across indexes.
type engineRef struct {
	eng  *engine.Engine
	once sync.Once
}

func (r *engineRef) release() { r.once.Do(r.eng.Close) }

// initLive gives a constructed index its ingestion state, worker pool and
// scratch pool, and arranges for the pool goroutines to be released if the
// index is garbage-collected without Close (experiments build thousands of
// short-lived indexes).
func (ix *Index) initLive(tree *core.Tree, baseSAX *core.SAXArray, mergedA int) {
	ix.baseLen = ix.raw.Len()
	ix.baseSAX = baseSAX
	if ix.store == nil {
		ix.store = series.NewChunked(ix.cfg.SeriesLen, 0)
		ix.saxLog = series.NewChunkedRows[uint8](ix.cfg.Segments, 0)
	}
	ix.ingestSM = core.NewSummarizer(ix.cfg, tree.Quantizer())
	ix.ingestBf = make([]uint8, ix.cfg.Segments)
	if pf, ok := series.ResolvePrefetcher(ix.raw); ok {
		// Leaf position lists mix base series with appended ones; only the
		// base lives behind ix.raw (appends stay in the in-RAM delta store),
		// so positions past baseLen are dropped before delegating.
		base := int32(ix.baseLen)
		ix.prefetch = func(pos []int32) {
			inBase := make([]int32, 0, len(pos))
			for _, p := range pos {
				if p < base {
					inBase = append(inBase, p)
				}
			}
			if len(inBase) > 0 {
				pf(inBase)
			}
		}
	}
	ix.snap.Store(&snapshot{tree: tree, mergedA: mergedA})
	ix.probeLive.Store(int32(ix.opt.ProbeLeaves))
	ix.mergeLive.Store(int32(ix.opt.MergeThreshold))
	ix.queryDur = metrics.NewHistogram(metrics.Opts{
		Name: "dsidx_index_query_seconds",
		Help: "Search latency per index (sub-searches for a sharded index).",
	}, metrics.LatencyBuckets)
	if ix.opt.Engine != nil {
		ix.eng = ix.opt.Engine.Retain()
	} else {
		ix.eng = engine.New(engine.Options{Workers: ix.opt.Workers, MaxInFlight: ix.opt.MaxInFlight})
	}
	ix.engRef = &engineRef{eng: ix.eng}
	ix.scratch.New = func() any { return ix.newScratch() }
	ix.lbPool.New = func() any { return &lbScratch{} }
	runtime.AddCleanup(ix, func(r *engineRef) { r.release() }, ix.engRef)
}

// Close releases the index's worker pool reference. An index-owned pool
// stops after any in-flight background merge completes (the pool stays
// live for it); a shared pool (Options.Engine) keeps running for its other
// holders. Close is idempotent and safe to call concurrently with appends
// and queries; after the pool fully stops, queries execute serially on the
// calling goroutine, appends still land in the delta buffer, and merges
// happen only through Flush.
func (ix *Index) Close() { ix.engRef.release() }

// EngineStats snapshots the shared pool's throughput counters.
func (ix *Index) EngineStats() engine.Stats { return ix.eng.Stats() }

// Admit blocks until the engine's admission control grants a query slot and
// returns its release function. Callers that run their own concurrent
// queries (the concurrency experiments) wrap each in an Admit/release pair.
func (ix *Index) Admit() (release func()) { return ix.eng.Admit() }

// ProbeLeaves returns the live approximate-phase probe count — the
// configured value unless AutoTune has moved it (the per-query
// QueryStats.ProbeLeaves may be lower when a query's root subtree holds
// fewer leaves).
func (ix *Index) ProbeLeaves() int { return ix.probeLeavesNow() }

// Health is one index's fault-tolerance snapshot: how often queries and
// merges hit contained faults, alongside the engine's panic-containment
// counters. All zeros on a healthy index.
type Health struct {
	// Searches and FailedSearches count Shared-entry searches served and
	// the subset that returned a contained-fault error instead of an
	// answer.
	Searches       uint64
	FailedSearches uint64
	// MergeAborts counts merge cycles abandoned after a contained task
	// panic (the previous snapshot kept serving).
	MergeAborts uint64
	// TaskPanics and BgPanics mirror the engine's containment counters
	// (pool-task and background-job boundaries). A shared pool reports
	// the same values through every index attached to it.
	TaskPanics uint64
	BgPanics   uint64
	// Live and Tombstoned split Count() into series a full search ranges
	// over and series deleted (or TTL-expired) but still occupying
	// positions.
	Live       int
	Tombstoned int
}

// Health snapshots the index's fault counters.
func (ix *Index) Health() Health {
	es := ix.eng.Stats()
	return Health{
		Searches:       ix.searches.Load(),
		FailedSearches: ix.searchFails.Load(),
		MergeAborts:    ix.mergeAborts.Load(),
		TaskPanics:     es.TaskPanics,
		BgPanics:       es.BgPanics,
		Live:           ix.Live(),
		Tombstoned:     ix.Tombstoned(),
	}
}

// Build creates a MESSI index over coll — any read-only collection: the
// flat in-memory RawData array of the paper, or a position-remapping
// series.View over someone else's collection (how a sharding layer builds
// each shard over its slice of the base data without copying it). The
// index retains coll and reads it on every unmaterialized refinement, so
// it must stay immutable for the index's lifetime.
func Build(coll series.Reader, cfg core.Config, opt Options) (*Index, error) {
	opt = opt.normalize()
	cfg.SeriesLen = coll.SeriesLen()
	tree, err := core.NewTree(cfg)
	if err != nil {
		return nil, fmt.Errorf("messi: %w", err)
	}
	cfg = tree.Config()
	n := coll.Len()
	ix := &Index{cfg: cfg, opt: opt, raw: coll}
	sax := core.NewSAXArray(n, cfg.Segments)

	start := time.Now()

	// Stage 1: summarization. The default design gives every worker its own
	// partition of each iSAX buffer (no synchronization); the SharedBuffers
	// ablation instead funnels all workers through one locked buffer per
	// root subtree (the design footnote 2 rejects).
	blocks := xsync.Blocks(n, opt.BlockSeries)
	parts := make([]map[uint32][]int32, opt.Workers) // parts[w][key] = positions
	var shared []lockedBuffer
	if opt.SharedBuffers {
		shared = make([]lockedBuffer, cfg.RootFanout())
	}
	var blockCursor xsync.Counter
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sm := core.NewSummarizer(cfg, tree.Quantizer())
			mine := make(map[uint32][]int32, 256)
			for {
				bi := blockCursor.Next()
				if int(bi) >= len(blocks) {
					break
				}
				blk := blocks[bi]
				for i := blk.Lo; i < blk.Hi; i++ {
					dst := sax.At(i)
					sm.Summarize(coll.At(i), dst)
					key := tree.RootKey(dst)
					if opt.SharedBuffers {
						shared[key].append(int32(i))
					} else {
						mine[key] = append(mine[key], int32(i))
					}
				}
			}
			parts[w] = mine
		}(w)
	}
	wg.Wait()
	ix.build.Summarize = time.Since(start)

	// Stage 2: one worker per buffer (Fetch&Inc over the key list) builds
	// the whole subtree from every worker's part — distinct subtrees, no
	// synchronization.
	t0 := time.Now()
	if opt.SharedBuffers {
		// Re-shape the shared buffers into the single-part layout so stage
		// 2 is identical for both designs.
		single := make(map[uint32][]int32, 1024)
		for key := range shared {
			if len(shared[key].pos) > 0 {
				single[uint32(key)] = shared[key].pos
			}
		}
		parts = []map[uint32][]int32{single}
	}
	keys := make([]uint32, 0, 1024)
	seen := make([]bool, cfg.RootFanout())
	for _, part := range parts {
		for key := range part {
			if !seen[key] {
				seen[key] = true
				keys = append(keys, key)
			}
		}
	}
	// Claim keys in sorted order, not map-iteration order: with one worker
	// the whole build is then a pure function of the collection, so two
	// builds over identical content (say, a position-remapping view vs a
	// flat copy of the same series) encode byte-identically — the property
	// the sharding layer's differential tests compare against.
	slices.Sort(keys)
	var keyCursor xsync.Counter
	wg = sync.WaitGroup{}
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ki := keyCursor.Next()
				if int(ki) >= len(keys) {
					return
				}
				key := keys[ki]
				for _, part := range parts {
					for _, pos := range part[key] {
						tree.SubtreeInsert(key, sax.At(int(pos)), pos)
					}
				}
				// Leaf-ordered storage: once the subtree's shape is final
				// (no more splits), copy each leaf's series into one
				// contiguous block — materializing after the build avoids
				// re-copying raw values through every intermediate split.
				if !opt.DisableLeafRaw {
					tree.Subtree(key).MaterializeLeaves(cfg.SeriesLen,
						func(pos int32) []float32 { return coll.At(int(pos)) })
				}
			}
		}()
	}
	wg.Wait()
	ix.build.TreeBuild = time.Since(t0)
	ix.build.Total = time.Since(start)
	ix.initLive(tree, sax, 0)
	return ix, nil
}

// lockedBuffer is the footnote-2 alternative: one mutex-protected position
// buffer per root subtree, contended by every worker.
type lockedBuffer struct {
	mu  sync.Mutex
	pos []int32
}

func (b *lockedBuffer) append(p int32) {
	b.mu.Lock()
	b.pos = append(b.pos, p)
	b.mu.Unlock()
}

// Count returns the number of series the index answers over: the base
// collection plus every published append (merged or not).
func (ix *Index) Count() int { return ix.baseLen + int(ix.appended.Load()) }

// Tree exposes the current snapshot's tree for diagnostics and tests. It
// covers the base collection plus the merged part of the delta buffer.
func (ix *Index) Tree() *core.Tree { return ix.snap.Load().tree }

// BuildStats returns the creation-phase breakdown of Figure 5.
func (ix *Index) BuildStats() BuildStats { return ix.build }

// Raw returns the immutable base collection the index was built over —
// the caller's flat collection, or the view a sharding layer built this
// shard through. Appended series live in the index's own stable storage
// (see At).
func (ix *Index) Raw() series.Reader { return ix.raw }

// At returns the series at a global position: the base collection for
// positions below its length, the append store above. Every position a
// query result reports resolves through here.
func (ix *Index) At(pos int) series.Series {
	if pos < ix.baseLen {
		return ix.raw.At(pos)
	}
	return ix.store.At(pos - ix.baseLen)
}
