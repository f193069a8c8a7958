// Package adsplus implements the ADS+ baseline (Zoumpatianos, Idreos,
// Palpanas, VLDBJ 2016) as the paper evaluates it: the state-of-the-art
// *serial* iSAX index that ParIS/ParIS+ are compared against for on-disk
// data. Index creation reads the raw file sequentially and builds the tree
// with a single thread; exact query answering is the serial
// skip-sequential algorithm (SIMS): an approximate tree search seeds the
// best-so-far, a scan of the in-memory SAX array prunes by lower bound, and
// surviving candidates are read from disk in position order for exact
// distances. ParIS parallelizes exactly these stages, so this package is
// also the single-threaded reference point of the scaling figures.
package adsplus

import (
	"fmt"
	"math"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/isax"
	"dsidx/internal/series"
	"dsidx/internal/storage"
)

// BuildStats breaks index creation into the components of Figure 4:
// time spent reading raw data, pure CPU time (summarization + tree
// building), and time writing index leaves.
type BuildStats struct {
	Read  time.Duration
	CPU   time.Duration
	Write time.Duration
	Total time.Duration
}

// QueryStats counts the work of the last query, for the pruning-power
// analyses in EXPERIMENTS.md.
type QueryStats struct {
	Candidates   int // series surviving the lower-bound scan
	RawDistances int // exact distances computed (including approx phase)
	PrunedByScan int // series eliminated by the SAX-array scan
	ApproxDist   float64
	LeafOfApprox int
}

// Index is a built ADS+ index over an on-disk series file.
type Index struct {
	cfg    core.Config
	tree   *core.Tree
	sax    *core.SAXArray
	raw    *storage.SeriesFile
	leaves *storage.LeafStore
	build  BuildStats
}

// BatchSize is the number of series read per sequential batch during index
// creation (the "raw data buffer" granularity).
const BatchSize = 8192

// Build creates an ADS+ index over the series in raw, writing materialized
// leaves through leafStore (which may share the device with raw, as in the
// paper's single-disk setup).
func Build(raw *storage.SeriesFile, leafStore *storage.LeafStore, cfg core.Config) (*Index, error) {
	cfg.SeriesLen = raw.Length()
	tree, err := core.NewTree(cfg)
	if err != nil {
		return nil, fmt.Errorf("adsplus: %w", err)
	}
	cfg = tree.Config()
	n := int(raw.Count())
	ix := &Index{cfg: cfg, tree: tree, sax: core.NewSAXArray(n, cfg.Segments), raw: raw, leaves: leafStore}

	sm := core.NewSummarizer(cfg, tree.Quantizer())
	start := time.Now()
	for lo := int64(0); lo < raw.Count(); lo += BatchSize {
		count := int64(BatchSize)
		if lo+count > raw.Count() {
			count = raw.Count() - lo
		}
		t0 := time.Now()
		batch, err := raw.ReadBatch(lo, count)
		if err != nil {
			return nil, fmt.Errorf("adsplus: reading batch at %d: %w", lo, err)
		}
		ix.build.Read += time.Since(t0)

		t0 = time.Now()
		for i := 0; i < batch.Len(); i++ {
			pos := int32(lo) + int32(i)
			dst := ix.sax.At(int(pos))
			sm.Summarize(batch.At(i), dst)
			tree.Insert(dst, pos)
		}
		ix.build.CPU += time.Since(t0)
	}

	// Materialize leaves (the Write component of Figure 4). The paper's
	// systems interleave flushing with memory pressure; at this repository's
	// scale a single final flush preserves the same total write volume.
	t0 := time.Now()
	var flushErr error
	tree.VisitLeaves(func(nd *core.Node) {
		if flushErr == nil {
			flushErr = core.FlushLeaf(nd, cfg.Segments, leafStore)
		}
	})
	if flushErr != nil {
		return nil, fmt.Errorf("adsplus: flushing leaves: %w", flushErr)
	}
	ix.build.Write += time.Since(t0)
	ix.build.Total = time.Since(start)
	return ix, nil
}

// BuildStats returns the creation-time breakdown.
func (ix *Index) BuildStats() BuildStats { return ix.build }

// Tree exposes the underlying tree (read-only) for diagnostics.
func (ix *Index) Tree() *core.Tree { return ix.tree }

// Count returns the number of indexed series.
func (ix *Index) Count() int { return ix.sax.Len() }

// Search answers an exact 1-NN query, returning the position and squared
// Euclidean distance of the nearest series.
func (ix *Index) Search(q series.Series) (core.Result, *QueryStats, error) {
	if len(q) != ix.cfg.SeriesLen {
		return core.NoResult(), nil, fmt.Errorf("adsplus: query length %d != %d", len(q), ix.cfg.SeriesLen)
	}
	stats := &QueryStats{}
	sm := core.NewSummarizer(ix.cfg, ix.tree.Quantizer())
	qsax := make([]uint8, ix.cfg.Segments)
	sm.Summarize(q, qsax)
	qpaa := make([]float64, ix.cfg.Segments)
	copy(qpaa, sm.PAA(q))

	best := core.NoResult()
	buf := make(series.Series, ix.cfg.SeriesLen)
	table := isax.NewQueryTable(ix.tree.Quantizer(), qpaa, ix.cfg.SeriesLen)

	// Phase 1: approximate answer from the closest leaf (BSF seed). As in
	// the paper, the BSF is "the real distance between the query and the
	// best candidate series" of that leaf — the candidate is chosen by its
	// in-memory summary lower bound, so the phase costs one random read.
	leaf := ix.tree.BestLeafApprox(qsax, qpaa)
	if leaf == nil {
		return best, stats, nil // empty index
	}
	leafSAX, pos, err := core.LoadLeaf(leaf, ix.cfg.Segments, ix.leaves)
	if err != nil {
		return best, stats, fmt.Errorf("adsplus: approximate phase: %w", err)
	}
	if len(pos) > 0 {
		w := ix.cfg.Segments
		bestEntry, bestLB := 0, math.Inf(1)
		for i := range pos {
			if lb := table.MinDistSAX(leafSAX[i*w : (i+1)*w]); lb < bestLB {
				bestEntry, bestLB = i, lb
			}
		}
		seeds := []int32{pos[bestEntry]}
		// Robustness at scaled-down leaf sizes: also refine the globally
		// best-bounded positions (see SAXArray.TopKByLowerBound).
		seeds = append(seeds, ix.sax.TopKByLowerBound(table, 4)...)
		for _, p := range seeds {
			if err := ix.raw.ReadSeries(int64(p), buf); err != nil {
				return best, stats, fmt.Errorf("adsplus: reading series %d: %w", p, err)
			}
			stats.RawDistances++
			if d := series.SquaredEDEarlyAbandon(q, buf, best.Dist); d < best.Dist {
				best = core.Result{Pos: p, Dist: d}
			}
		}
	}
	stats.ApproxDist = best.Dist
	stats.LeafOfApprox = leaf.Count

	// Phase 2: serial lower-bound scan over the SAX array.
	n := ix.sax.Len()
	candidates := make([]int32, 0, n/16)
	for i := 0; i < n; i++ {
		if table.MinDistSAX(ix.sax.At(i)) < best.Dist {
			candidates = append(candidates, int32(i))
		}
	}
	stats.Candidates = len(candidates)
	stats.PrunedByScan = n - len(candidates)

	// Phase 3: skip-sequential exact distances in position order (ascending
	// file offsets minimize seek cost, as in ADS+'s SIMS).
	for _, p := range candidates {
		// Re-check against the tightened best-so-far before paying a read.
		if table.MinDistSAX(ix.sax.At(int(p))) >= best.Dist {
			continue
		}
		if err := ix.raw.ReadSeries(int64(p), buf); err != nil {
			return best, stats, fmt.Errorf("adsplus: reading candidate %d: %w", p, err)
		}
		stats.RawDistances++
		if d := series.SquaredEDEarlyAbandon(q, buf, best.Dist); d < best.Dist {
			best = core.Result{Pos: p, Dist: d}
		}
	}
	return best, stats, nil
}
