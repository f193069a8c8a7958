package messi

import (
	"math"
	"testing"

	"dsidx/internal/gen"
	"dsidx/internal/vector"
)

// TestSearchImplIndependent runs the same searches under both kernel
// implementations in one process — the dispatch seam test at the level
// users observe. Because the SIMD and scalar kernels are bit-identical,
// the answers (position AND the exact distance bits), k-NN result lists,
// and DTW answers must not depend on which implementation dispatch
// selected.
func TestSearchImplIndependent(t *testing.T) {
	defer vector.ForceScalar(false)
	coll, queries := dataset(t, gen.Synthetic, 1500)
	ix := build(t, coll, 4)
	defer ix.Close()

	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)

		vector.ForceScalar(false)
		fast, _, err := ix.Search(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		fastK, _, err := ix.Query(q, Request{Kind: KNN, K: 5, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}

		vector.ForceScalar(true)
		slow, _, err := ix.Search(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		slowK, _, err := ix.Query(q, Request{Kind: KNN, K: 5, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		vector.ForceScalar(false)

		if fast.Pos != slow.Pos || math.Float64bits(fast.Dist) != math.Float64bits(slow.Dist) {
			t.Fatalf("query %d: %s answer %+v differs from scalar answer %+v",
				qi, vector.Detected(), fast, slow)
		}
		if len(fastK) != len(slowK) {
			t.Fatalf("query %d: k-NN lengths differ: %d vs %d", qi, len(fastK), len(slowK))
		}
		for i := range fastK {
			if fastK[i].Pos != slowK[i].Pos || math.Float64bits(fastK[i].Dist) != math.Float64bits(slowK[i].Dist) {
				t.Fatalf("query %d k-NN[%d]: %+v vs scalar %+v", qi, i, fastK[i], slowK[i])
			}
		}
	}
}
