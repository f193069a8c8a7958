package messi

import (
	"math"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
	"dsidx/internal/ucr"
)

func dataset(t *testing.T, kind gen.Kind, n int) (*series.Collection, *series.Collection) {
	t.Helper()
	g := gen.Generator{Kind: kind, Seed: 71}
	return g.Collection(n), g.Queries(6)
}

func build(t *testing.T, coll *series.Collection, workers int) *Index {
	t.Helper()
	ix, err := Build(coll, core.Config{LeafCapacity: 32},
		Options{Workers: workers, BlockSeries: 100})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildIndexesEverything(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		coll, _ := dataset(t, gen.Synthetic, 1100)
		ix := build(t, coll, workers)
		if ix.Count() != coll.Len() || ix.Tree().Count() != coll.Len() {
			t.Fatalf("workers=%d: indexed %d/%d", workers, ix.Tree().Count(), coll.Len())
		}
		if err := ix.Tree().CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestBuildDeterministicTreeContent(t *testing.T) {
	// Different worker counts must index the same set of positions (tree
	// shape may differ only in insertion order effects, but the multiset of
	// entries per root subtree is fixed by the data).
	coll, _ := dataset(t, gen.SALD, 900)
	collect := func(ix *Index) map[int32]bool {
		seen := make(map[int32]bool)
		ix.Tree().VisitLeaves(func(n *core.Node) {
			for _, p := range n.Pos {
				if seen[p] {
					t.Fatalf("duplicate position %d", p)
				}
				seen[p] = true
			}
		})
		return seen
	}
	a := collect(build(t, coll, 1))
	b := collect(build(t, coll, 8))
	if len(a) != len(b) || len(a) != coll.Len() {
		t.Fatalf("different entry sets: %d vs %d (want %d)", len(a), len(b), coll.Len())
	}
}

func TestBuildStats(t *testing.T) {
	coll, _ := dataset(t, gen.Synthetic, 600)
	ix := build(t, coll, 4)
	bs := ix.BuildStats()
	if bs.Summarize <= 0 || bs.TreeBuild <= 0 || bs.Total <= 0 {
		t.Errorf("phases not recorded: %+v", bs)
	}
	if bs.Total < bs.Summarize {
		t.Errorf("Total %v < Summarize %v", bs.Total, bs.Summarize)
	}
}

func TestSearchExactness(t *testing.T) {
	for _, kind := range []gen.Kind{gen.Synthetic, gen.SALD, gen.Seismic} {
		t.Run(kind.String(), func(t *testing.T) {
			coll, queries := dataset(t, kind, 1000)
			ix := build(t, coll, 8)
			for _, workers := range []int{1, 4, 16} {
				for qi := 0; qi < queries.Len(); qi++ {
					q := queries.At(qi)
					_, wantDist := coll.BruteForce1NN(q)
					got, stats, err := ix.Search(q, workers)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(got.Dist-wantDist) > 1e-6*math.Max(1, wantDist) {
						t.Fatalf("workers=%d query %d: dist %v, want %v",
							workers, qi, got.Dist, wantDist)
					}
					if d := series.SquaredED(q, coll.At(int(got.Pos))); math.Abs(d-got.Dist) > 1e-9 {
						t.Fatalf("returned pos %d has dist %v, claimed %v", got.Pos, d, got.Dist)
					}
					if stats.LeavesPopped > stats.LeavesInserted {
						t.Fatalf("popped %d > inserted %d", stats.LeavesPopped, stats.LeavesInserted)
					}
				}
			}
		})
	}
}

func TestSearchPrunesAgainstFullScan(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 4000)
	ix := build(t, coll, 8)
	for qi := 0; qi < queries.Len(); qi++ {
		_, stats, err := ix.Search(queries.At(qi), 8)
		if err != nil {
			t.Fatal(err)
		}
		if stats.RawDistances >= coll.Len()/2 {
			t.Fatalf("query %d: %d raw distances on %d series — pruning broken",
				qi, stats.RawDistances, coll.Len())
		}
	}
}

func TestSearchEmptyAndValidation(t *testing.T) {
	empty, err := Build(series.NewCollection(0, 256), core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := empty.Search(make(series.Series, 256), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pos != -1 || !math.IsInf(got.Dist, 1) {
		t.Fatalf("empty search = %+v", got)
	}
	if _, _, err := empty.Search(make(series.Series, 13), 2); err == nil {
		t.Error("mismatched query length accepted")
	}
}

func TestSearchKNNMatchesSerialKNN(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 800)
	ix := build(t, coll, 8)
	const k = 10
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		want := ucr.ScanKNN(coll, q, k)
		got, _, err := ix.Query(q, Request{Kind: KNN, K: k, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), k)
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*math.Max(1, want[i].Dist) {
				t.Fatalf("query %d rank %d: dist %v, want %v", qi, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestSearchKNNDegenerate(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 100)
	ix := build(t, coll, 4)
	if got, _, err := ix.Query(queries.At(0), Request{Kind: KNN, K: 0, Workers: 2}); err == nil {
		t.Errorf("k=0 accepted: %v", got)
	}
	got, _, err := ix.Query(queries.At(0), Request{Kind: KNN, K: 1, Workers: 2})
	if err != nil || len(got) != 1 {
		t.Fatalf("k=1: %v %v", got, err)
	}
	one, _, err := ix.Search(queries.At(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0].Dist-one.Dist) > 1e-9 {
		t.Errorf("k=1 dist %v != 1-NN dist %v", got[0].Dist, one.Dist)
	}
}

func TestSearchDTWMatchesUCRDTW(t *testing.T) {
	g := gen.Generator{Kind: gen.SALD, Length: 128, Seed: 73}
	coll := g.Collection(400)
	queries := g.Queries(4)
	ix := build(t, coll, 8)
	window := 8
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		want := ucr.ScanDTW(coll, q, window)
		got, stats, err := ix.SearchDTW(q, window, 8)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-want.Dist) > 1e-6*math.Max(1, want.Dist) {
			t.Fatalf("query %d: DTW dist %v, want %v", qi, got.Dist, want.Dist)
		}
		// The approximate-phase leaf may be re-examined by the queue phase,
		// so allow one leaf's worth of duplicates over a full scan.
		if stats.RawDistances > coll.Len()+32 {
			t.Fatalf("query %d: %d DTW computations on %d series", qi, stats.RawDistances, coll.Len())
		}
	}
}

func TestSearchDTWZeroWindowMatchesED(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 300)
	ix := build(t, coll, 4)
	q := queries.At(0)
	ed, _, err := ix.Search(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	dtw, _, err := ix.SearchDTW(q, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ed.Dist-dtw.Dist) > 1e-6 {
		t.Fatalf("zero-window DTW %v != ED %v", dtw.Dist, ed.Dist)
	}
}

// TestQueryWorkerVariants checks exact answers under different phase-B
// layouts: one to more query workers than the index's pool holds.
func TestQueryWorkerVariants(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 600)
	ix, err := Build(coll, core.Config{LeafCapacity: 32}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, workers := range []int{1, 2, 8, 32} {
		for qi := 0; qi < queries.Len(); qi++ {
			q := queries.At(qi)
			_, wantDist := coll.BruteForce1NN(q)
			got, _, err := ix.Search(q, workers)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Dist-wantDist) > 1e-6*math.Max(1, wantDist) {
				t.Fatalf("workers=%d query %d: dist %v, want %v", workers, qi, got.Dist, wantDist)
			}
		}
	}
}

func TestIndexAdmissionProbeAndRaw(t *testing.T) {
	coll, _ := dataset(t, gen.Synthetic, 400)
	ix := build(t, coll, 2)
	defer ix.Close()
	if ix.Raw() != series.Reader(coll) {
		t.Fatal("Raw() does not return the collection the index was built over")
	}
	if got := ix.ProbeLeaves(); got < 1 {
		t.Fatalf("ProbeLeaves() = %d", got)
	}
	release := ix.Admit()
	release()
}
