package messi

import (
	"math"
	"sync"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
)

func TestSearchApproximateUpperBoundsExact(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 1000)
	ix := build(t, coll, 8)
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		approx, err := ix.SearchApproximate(q)
		if err != nil {
			t.Fatal(err)
		}
		exact, _, err := ix.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if approx.Pos < 0 {
			t.Fatalf("query %d: approximate returned no answer", qi)
		}
		if approx.Dist < exact.Dist-1e-9 {
			t.Fatalf("query %d: approximate %v below exact %v", qi, approx.Dist, exact.Dist)
		}
		// The reported distance must be real.
		if d := series.SquaredED(q, coll.At(int(approx.Pos))); math.Abs(d-approx.Dist) > 1e-9 {
			t.Fatalf("query %d: approximate pos %d has dist %v, claimed %v",
				qi, approx.Pos, d, approx.Dist)
		}
	}
}

func TestSearchApproximateQualityOnPerturbedQueries(t *testing.T) {
	// For a query that is a perturbed dataset member, the approximate
	// answer should usually BE the exact answer (the regime the paper's
	// approximate searches live in).
	g := gen.Generator{Kind: gen.Synthetic, Seed: 71}
	coll := g.Collection(2000)
	queries := g.PerturbedQueries(coll, 20, 0.05)
	ix := build(t, coll, 8)
	hits := 0
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		approx, err := ix.SearchApproximate(q)
		if err != nil {
			t.Fatal(err)
		}
		exact, _, err := ix.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(approx.Dist-exact.Dist) < 1e-9 {
			hits++
		}
	}
	if hits < queries.Len()/2 {
		t.Errorf("approximate matched exact on only %d/%d perturbed queries", hits, queries.Len())
	}
}

func TestSearchApproximateValidation(t *testing.T) {
	coll, _ := dataset(t, gen.Synthetic, 50)
	ix := build(t, coll, 2)
	if _, err := ix.SearchApproximate(make(series.Series, 5)); err == nil {
		t.Error("mismatched query length accepted")
	}
	empty, err := Build(series.NewCollection(0, 256), core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := empty.SearchApproximate(make(series.Series, 256))
	if err != nil {
		t.Fatal(err)
	}
	if r.Pos != -1 {
		t.Error("empty index should return no result")
	}
}

func TestConcurrentMixedSearches(t *testing.T) {
	// Exact, approximate, kNN and DTW searches share the index read-only;
	// they must coexist under the race detector.
	coll, queries := dataset(t, gen.Synthetic, 600)
	ix := build(t, coll, 4)
	var wg sync.WaitGroup
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		wg.Add(4)
		go func() { defer wg.Done(); _, _, _ = ix.Search(q, 2) }()
		go func() { defer wg.Done(); _, _ = ix.SearchApproximate(q) }()
		go func() { defer wg.Done(); _, _, _ = ix.Query(q, Request{Kind: KNN, K: 3, Workers: 2}) }()
		go func() { defer wg.Done(); _, _, _ = ix.SearchDTW(q, 8, 2) }()
	}
	wg.Wait()
}

func TestSharedBuffersBuildEquivalence(t *testing.T) {
	// The footnote-2 ablation variant must index the identical entry set.
	coll, queries := dataset(t, gen.SALD, 800)
	def, err := Build(coll, core.Config{LeafCapacity: 32}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Build(coll, core.Config{LeafCapacity: 32}, Options{Workers: 8, SharedBuffers: true})
	if err != nil {
		t.Fatal(err)
	}
	if def.Tree().Count() != shared.Tree().Count() {
		t.Fatalf("counts differ: %d vs %d", def.Tree().Count(), shared.Tree().Count())
	}
	if err := shared.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		a, _, err := def.Search(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := shared.Search(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Dist-b.Dist) > 1e-9 {
			t.Fatalf("query %d: %v != %v", qi, a.Dist, b.Dist)
		}
	}
}
