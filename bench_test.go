package dsidx_test

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus per-operation microbenchmarks.
//
// The figure benches delegate to internal/experiments (the same code
// cmd/dsbench runs) at a reduced default scale so `go test -bench=.` stays
// practical; set DSIDX_BENCH_SERIES (e.g. 200000) to run the figures at
// paper-reproduction scale, as recorded in EXPERIMENTS.md. Each bench logs
// the regenerated table, so -v output contains the figure itself.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dsidx"
	"dsidx/internal/core"
	"dsidx/internal/experiments"
	"dsidx/internal/gen"
	"dsidx/internal/messi"
	"dsidx/internal/paris"
	"dsidx/internal/series"
	"dsidx/internal/ucr"
	"dsidx/internal/vector"
)

func benchConfig() experiments.Config {
	n := 20_000
	if env := os.Getenv("DSIDX_BENCH_SERIES"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v > 0 {
			n = v
		}
	}
	return experiments.Config{SeriesCount: n, QueryCount: 2, Seed: 2020, MaxCores: 24}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			if _, err := tbl.WriteTo(&sb); err != nil {
				b.Fatal(err)
			}
			b.Logf("\n%s", sb.String())
		}
	}
}

// One benchmark per figure of the paper's evaluation (§IV).

func BenchmarkFig4IndexCreationParIS(b *testing.B)  { benchFigure(b, "fig4") }
func BenchmarkFig5IndexCreationMESSI(b *testing.B)  { benchFigure(b, "fig5") }
func BenchmarkFig6CreationByDataset(b *testing.B)   { benchFigure(b, "fig6") }
func BenchmarkFig7InMemoryCreation(b *testing.B)    { benchFigure(b, "fig7") }
func BenchmarkFig8ParISPlusQueryDisk(b *testing.B)  { benchFigure(b, "fig8") }
func BenchmarkFig9MESSIQueryScaling(b *testing.B)   { benchFigure(b, "fig9") }
func BenchmarkFig10QueryHDD(b *testing.B)           { benchFigure(b, "fig10") }
func BenchmarkFig11QuerySSD(b *testing.B)           { benchFigure(b, "fig11") }
func BenchmarkFig12QueryInMemory(b *testing.B)      { benchFigure(b, "fig12") }
func BenchmarkAblationBufferPartition(b *testing.B) { benchFigure(b, "ablation-buffers") }
func BenchmarkAblationLeafCapacity(b *testing.B)    { benchFigure(b, "ablation-leafcap") }

// Kernel ablation (vectorized vs scalar distances) as native Go benches.

func benchVectors(b *testing.B, n int) ([]float32, []float32) {
	b.Helper()
	g := gen.Generator{Kind: gen.Synthetic, Length: n, Seed: 5}
	return g.Series(0), g.Series(1)
}

func BenchmarkAblationVectorKernelsScalar(b *testing.B) {
	x, y := benchVectors(b, 256)
	b.SetBytes(256 * 4)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += vector.ScalarSquaredED(x, y)
	}
	_ = sink
}

func BenchmarkAblationVectorKernelsUnrolled(b *testing.B) {
	x, y := benchVectors(b, 256)
	b.SetBytes(256 * 4)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += vector.SquaredEDUnrolled(x, y)
	}
	_ = sink
}

func BenchmarkEarlyAbandonED(b *testing.B) {
	x, y := benchVectors(b, 256)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += vector.SquaredEDEarlyAbandon(x, y, 1.0)
	}
	_ = sink
}

// Per-operation benches on the core data structures.

func benchCollection(b *testing.B, n int) *series.Collection {
	b.Helper()
	return gen.Generator{Kind: gen.Synthetic, Seed: 9}.Collection(n)
}

func BenchmarkSummarize(b *testing.B) {
	coll := benchCollection(b, 1000)
	tree, err := core.NewTree(core.Config{SeriesLen: 256})
	if err != nil {
		b.Fatal(err)
	}
	sm := core.NewSummarizer(tree.Config(), tree.Quantizer())
	dst := make([]uint8, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.Summarize(coll.At(i%coll.Len()), dst)
	}
}

func BenchmarkMESSIBuild(b *testing.B) {
	coll := benchCollection(b, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := messi.Build(coll, core.Config{}, messi.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ix.Close()
	}
}

func BenchmarkMESSIQuery(b *testing.B) {
	coll := benchCollection(b, 50_000)
	ix, err := messi.Build(coll, core.Config{}, messi.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	queries := gen.Generator{Kind: gen.Synthetic, Seed: 9}.PerturbedQueries(coll, 16, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search(queries.At(i%queries.Len()), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMESSIConcurrentQPS is the serving-engine throughput baseline:
// b.N queries answered with a fixed number in flight on the index's shared
// worker pool. The queries/s metric across the 1/4/16 sweep is the number
// future scheduler/scratch changes are measured against; single-query
// latency is (elapsed × inflight)/N.
func BenchmarkMESSIConcurrentQPS(b *testing.B) {
	coll := benchCollection(b, 50_000)
	ix, err := messi.Build(coll, core.Config{}, messi.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	queries := gen.Generator{Kind: gen.Synthetic, Seed: 9}.PerturbedQueries(coll, 64, 0.05)
	for _, inflight := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("inflight-%d", inflight), func(b *testing.B) {
			var cursor atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < inflight; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := cursor.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						if _, _, err := ix.Search(queries.At(int(i)%queries.Len()), 0); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkMESSIBatchSearch measures the one-call batch path (admission
// control included), complementing the explicit-goroutine sweep above.
func BenchmarkMESSIBatchSearch(b *testing.B) {
	coll := benchCollection(b, 50_000)
	ix, err := messi.Build(coll, core.Config{}, messi.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	queries := gen.Generator{Kind: gen.Synthetic, Seed: 9}.PerturbedQueries(coll, 32, 0.05)
	qs := make([]series.Series, queries.Len())
	for i := range qs {
		qs[i] = queries.At(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.BatchSearchStats(qs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(qs))/b.Elapsed().Seconds(), "queries/s")
}

func BenchmarkParISInMemoryQuery(b *testing.B) {
	coll := benchCollection(b, 50_000)
	ix, err := paris.BuildInMemory(coll, core.Config{}, paris.Options{})
	if err != nil {
		b.Fatal(err)
	}
	queries := gen.Generator{Kind: gen.Synthetic, Seed: 9}.PerturbedQueries(coll, 16, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Search(queries.At(i%queries.Len()), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUCRParallelScan(b *testing.B) {
	coll := benchCollection(b, 50_000)
	queries := gen.Generator{Kind: gen.Synthetic, Seed: 9}.PerturbedQueries(coll, 16, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ucr.ParallelScan(coll, queries.At(i%queries.Len()), 0)
	}
}

func BenchmarkMESSIQueryDTW(b *testing.B) {
	coll := benchCollection(b, 20_000)
	ix, err := messi.Build(coll, core.Config{}, messi.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	queries := gen.Generator{Kind: gen.Synthetic, Seed: 9}.PerturbedQueries(coll, 8, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.SearchDTW(queries.At(i%queries.Len()), 16, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Public API end-to-end bench (what a library user experiences).

func BenchmarkPublicAPIQuickstart(b *testing.B) {
	coll := dsidx.Generate(dsidx.Synthetic, 20_000, 256, 42)
	idx, err := dsidx.NewMESSI(coll)
	if err != nil {
		b.Fatal(err)
	}
	queries := dsidx.GeneratePerturbedQueries(coll, 16, 0.05, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Search(queries.At(i % queries.Len())); err != nil {
			b.Fatal(err)
		}
	}
}
