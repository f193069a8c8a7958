package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/paris"
	"dsidx/internal/series"
	"dsidx/internal/vector"
)

// AblationBufferPartitioning compares MESSI's per-worker buffer parts
// against the lock-protected shared buffers the paper's footnote 2 rejects.
func AblationBufferPartitioning(cfg Config) (*Table, error) {
	cfg = cfg.Normalize()
	w := newWorkload(cfg, gen.Synthetic)
	t := &Table{
		ID:      "ablation-buffers",
		Title:   "MESSI stage-1 buffer design (Synthetic)",
		Unit:    "seconds",
		Columns: []string{"Summarize", "Total"},
	}
	cores := cfg.MaxCores
	for _, shared := range []bool{false, true} {
		label := "per-worker parts"
		if shared {
			label = "locked shared buffers"
		}
		// Median of 3 builds: contention effects are noisy.
		var sums, totals []float64
		for rep := 0; rep < 3; rep++ {
			ix, err := messi.Build(w.coll, core.Config{LeafCapacity: leafCapacity},
				messi.Options{Workers: cores, SharedBuffers: shared})
			if err != nil {
				return nil, fmt.Errorf("ablation-buffers shared=%v: %w", shared, err)
			}
			ix.Close()
			bs := ix.BuildStats()
			sums = append(sums, seconds(bs.Summarize))
			totals = append(totals, seconds(bs.Total))
		}
		t.AddRow(label, sortedCopy(sums)[1], sortedCopy(totals)[1])
	}
	t.Note("paper footnote 2: the locked design 'resulted in worse performance due to contention'")
	return t, nil
}

// AblationVectorKernels measures the distance-kernel implementation
// ladder: the dispatched production kernel (AVX2 assembly where the CPU
// has it), the forced scalar oracle, and the 8-way unrolled "SIMD-style"
// Go transcription kept from before the assembly layer existed.
func AblationVectorKernels(cfg Config) (*Table, error) {
	cfg = cfg.Normalize()
	t := &Table{
		ID:      "ablation-kernels",
		Title:   fmt.Sprintf("Distance kernels: dispatch (%s) vs scalar vs unrolled", vector.Impl()),
		Unit:    "nanoseconds per 256-point distance",
		Columns: []string{"ns/op"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	const n, pairs = 256, 512
	a := make([][]float32, pairs)
	b := make([][]float32, pairs)
	for i := range a {
		a[i] = make([]float32, n)
		b[i] = make([]float32, n)
		for j := 0; j < n; j++ {
			a[i][j] = float32(rng.NormFloat64())
			b[i][j] = float32(rng.NormFloat64())
		}
	}
	var sink float64
	measure := func(fn func(x, y []float32) float64) float64 {
		const reps = 200
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for i := range a {
				sink += fn(a[i], b[i])
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(reps*pairs)
	}
	vector.ForceScalar(false)
	defer vector.ForceScalar(false)
	t.AddRow(fmt.Sprintf("dispatch (%s, production)", vector.Impl()), measure(vector.SquaredED))
	vector.ForceScalar(true)
	t.AddRow("scalar oracle (forced)", measure(vector.SquaredED))
	t.AddRow("8-way unrolled (Go)", measure(vector.SquaredEDUnrolled))
	vector.ForceScalar(false)
	if sink == 0 {
		t.Note("sink zero (unexpected)")
	}
	t.Note("the unroll transcribes the paper's SIMD style in pure Go; the assembly layer implements the same pinned summation order bit-identically (internal/vector)")
	return t, nil
}

// AblationQueryHardness sweeps the query perturbation eps and reports the
// fraction of the collection surviving the lower-bound scan — the pruning
// power that every speedup in Figures 8-12 rests on, and the quantitative
// justification for the perturbed-query substitution in DESIGN.md.
func AblationQueryHardness(cfg Config) (*Table, error) {
	cfg = cfg.Normalize()
	w := newWorkload(cfg, gen.Synthetic)
	t := &Table{
		ID:      "ablation-hardness",
		Title:   "Pruning power vs query difficulty (Synthetic, ParIS in-memory)",
		Unit:    "fraction of collection",
		Columns: []string{"candidates", "raw_dists"},
	}
	ix, err := paris.BuildInMemory(w.coll, core.Config{LeafCapacity: leafCapacity},
		paris.Options{Workers: cfg.MaxCores})
	if err != nil {
		return nil, fmt.Errorf("ablation-hardness: %w", err)
	}
	n := float64(w.coll.Len())
	g := gen.Generator{Kind: gen.Synthetic, Seed: cfg.Seed}
	for _, eps := range []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1.0} {
		queries := g.PerturbedQueries(w.coll, cfg.QueryCount, eps)
		var cands, raws int
		for qi := 0; qi < queries.Len(); qi++ {
			_, stats, err := ix.Search(queries.At(qi), cfg.MaxCores)
			if err != nil {
				return nil, err
			}
			cands += stats.Candidates
			raws += stats.RawDistances
		}
		q := float64(queries.Len())
		t.AddRow(fmt.Sprintf("eps=%.2f", eps), float64(cands)/q/n, float64(raws)/q/n)
	}
	t.Note("harder queries (larger eps ⇒ more distant NN) prune less — the dense-collection regime of the paper corresponds to small eps")
	return t, nil
}

// AblationLeafCapacity measures the MESSI build/query tradeoff as leaf
// capacity varies: small leaves prune tighter but cost more splits.
func AblationLeafCapacity(cfg Config) (*Table, error) {
	cfg = cfg.Normalize()
	w := newWorkload(cfg, gen.Synthetic)
	t := &Table{
		ID:      "ablation-leafcap",
		Title:   "MESSI leaf capacity tradeoff (Synthetic)",
		Unit:    "build: seconds; query: milliseconds",
		Columns: []string{"build_s", "query_ms", "leaves"},
	}
	cores := cfg.MaxCores
	for _, cap := range []int{64, 128, 256, 512, 1024, 2048} {
		t0 := time.Now()
		ix, err := messi.Build(w.coll, core.Config{LeafCapacity: cap},
			messi.Options{Workers: cores})
		if err != nil {
			return nil, fmt.Errorf("ablation-leafcap cap=%d: %w", cap, err)
		}
		build := seconds(time.Since(t0))
		mean, err := timeQueries(w.queries, func(q series.Series) error {
			_, _, err := ix.Search(q, cores)
			return err
		})
		ix.Close()
		if err != nil {
			return nil, err
		}
		st := ix.Tree().Stats()
		t.AddRow(fmt.Sprintf("leaf=%d", cap), build, millis(mean), float64(st.Leaves))
	}
	return t, nil
}
