package messi

import (
	"math"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
)

// verifyLeafRaw asserts every leaf of the index's current tree is
// materialized and that each entry's raw block is bit-identical to the
// series its position resolves to — the alignment the refinement hot path
// depends on.
func verifyLeafRaw(t *testing.T, ix *Index) {
	t.Helper()
	n := ix.cfg.SeriesLen
	leaves, entries := 0, 0
	ix.Tree().VisitLeaves(func(leaf *core.Node) {
		leaves++
		if leaf.Raw == nil {
			t.Fatalf("leaf %v not materialized", leaf.Word)
		}
		if len(leaf.Raw) != leaf.Count*n {
			t.Fatalf("leaf %v: %d raw values for %d entries", leaf.Word, len(leaf.Raw), leaf.Count)
		}
		for i, p := range leaf.Pos {
			entries++
			want := ix.At(int(p))
			got := leaf.Raw[i*n : (i+1)*n]
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("leaf %v entry %d (pos %d) raw[%d] = %v, want %v",
						leaf.Word, i, p, j, got[j], want[j])
				}
			}
		}
	})
	if leaves == 0 {
		t.Fatal("tree has no leaves")
	}
	_ = entries
}

func TestLeafRawAlignedAfterBuild(t *testing.T) {
	coll, _ := dataset(t, gen.Synthetic, 1500)
	ix := build(t, coll, 8)
	defer ix.Close()
	verifyLeafRaw(t, ix)
	if err := ix.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeafRawSurvivesMergeCycle(t *testing.T) {
	// A live-ingest merge must preserve leaf-ordered storage for the
	// merged-in series: after the delta folds into the tree, every leaf —
	// including leaves that were split or newly created by the merge —
	// holds its entries' raw values contiguously.
	g := gen.Generator{Kind: gen.Synthetic, Seed: 77}
	coll := g.Collection(800)
	extra := g.Queries(300)
	ix, err := Build(coll, core.Config{LeafCapacity: 16}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for i := 0; i < extra.Len(); i++ {
		if _, err := ix.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix.Flush()
	if got := ix.IngestStats().Merged; got != extra.Len() {
		t.Fatalf("merged %d of %d appends", got, extra.Len())
	}
	verifyLeafRaw(t, ix)
	merged := 0
	ix.Tree().VisitLeaves(func(leaf *core.Node) {
		for _, p := range leaf.Pos {
			if int(p) >= coll.Len() {
				merged++
			}
		}
	})
	if merged != extra.Len() {
		t.Fatalf("tree holds %d merged-in positions, want %d", merged, extra.Len())
	}
	if err := ix.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeafRawRebuiltAfterDecode(t *testing.T) {
	// The serialized formats (DSI1/DSL1) carry no raw blocks; Decode must
	// rebuild the layout from the collection and the restored append
	// store, for merged and pending appends alike.
	g := gen.Generator{Kind: gen.Synthetic, Seed: 78}
	coll := g.Collection(600)
	extra := g.Queries(120)
	ix, err := Build(coll, core.Config{LeafCapacity: 16},
		Options{Workers: 2, MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for i := 0; i < extra.Len(); i++ {
		if _, err := ix.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
		if i == extra.Len()/2 {
			ix.Flush() // half merged, half pending
		}
	}
	ix2, err := Decode(ix.Encode(), coll, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	verifyLeafRaw(t, ix2)

	// And with materialization disabled, Decode leaves the tree bare.
	ix3, err := Decode(ix.Encode(), coll, Options{Workers: 2, DisableLeafRaw: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix3.Close()
	ix3.Tree().VisitLeaves(func(leaf *core.Node) {
		if leaf.Raw != nil {
			t.Fatalf("leaf %v materialized despite DisableLeafRaw", leaf.Word)
		}
	})
}

func TestLeafMaterializationAnswerEquivalence(t *testing.T) {
	// The layout is a pure memory-access optimization: materialized and
	// positional indexes must return bit-identical answers for every
	// search flavor, with live appends in the mix.
	g := gen.Generator{Kind: gen.SALD, Seed: 79}
	coll := g.Collection(1200)
	queries := g.Queries(6)
	extra := g.PerturbedQueries(coll, 64, 0.1)
	variants := make([]*Index, 2)
	for i, disable := range []bool{false, true} {
		ix, err := Build(coll, core.Config{LeafCapacity: 32},
			Options{Workers: 4, MergeThreshold: 48, DisableLeafRaw: disable})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		for j := 0; j < extra.Len(); j++ {
			if _, err := ix.Append(extra.At(j)); err != nil {
				t.Fatal(err)
			}
		}
		ix.Flush()
		variants[i] = ix
	}
	mat, pos := variants[0], variants[1]
	for qi := 0; qi < queries.Len(); qi++ {
		q := queries.At(qi)
		a, _, err := mat.Search(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := pos.Search(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d: ED answers diverge: %+v vs %+v", qi, a, b)
		}
		ka, _, err := mat.Query(q, Request{Kind: KNN, K: 5, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		kb, _, err := pos.Query(q, Request{Kind: KNN, K: 5, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ka {
			if math.Abs(ka[i].Dist-kb[i].Dist) > 0 {
				t.Fatalf("query %d rank %d: kNN dists diverge: %v vs %v", qi, i, ka[i].Dist, kb[i].Dist)
			}
		}
		da, _, err := mat.SearchDTW(q, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		db, _, err := pos.SearchDTW(q, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if da != db {
			t.Fatalf("query %d: DTW answers diverge: %+v vs %+v", qi, da, db)
		}
	}
}

func TestMultiProbePruningRegression(t *testing.T) {
	// Multi-probe BSF seeding exists to cut refinement work; this guards
	// the balance. On the standard test workload the default probe count
	// must not compute more raw distances than the classic single-probe
	// seed — a probe-count regression (or a probe phase that re-pays
	// probed leaves) would show up here as extra distances.
	g := gen.Generator{Kind: gen.Synthetic, Seed: 71}
	coll := g.Collection(20_000)
	queries := g.Queries(12)
	perturbed := g.PerturbedQueries(coll, 12, 0.05)

	sum := func(ix *Index) (raw int) {
		for _, qs := range []*series.Collection{queries, perturbed} {
			for i := 0; i < qs.Len(); i++ {
				_, st, err := ix.Search(qs.At(i), 1)
				if err != nil {
					t.Fatal(err)
				}
				raw += st.RawDistances
			}
		}
		return raw
	}

	single, err := Build(coll, core.Config{}, Options{Workers: 1, ProbeLeaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	multi, err := Build(coll, core.Config{}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()
	if multi.opt.ProbeLeaves <= 1 {
		t.Fatalf("default ProbeLeaves = %d, want multi-probe", multi.opt.ProbeLeaves)
	}

	baseline := sum(single)
	got := sum(multi)
	t.Logf("raw distances: single-probe %d, default %d-probe %d", baseline, multi.opt.ProbeLeaves, got)
	if got > baseline {
		t.Fatalf("multi-probe computed %d raw distances, single-probe baseline %d — pruning regressed",
			got, baseline)
	}

	// Multi-probe must also report its probes and keep answers identical.
	q := queries.At(0)
	a, st, err := multi.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.ProbeLeaves != multi.opt.ProbeLeaves {
		t.Fatalf("ProbeLeaves stat %d, want %d", st.ProbeLeaves, multi.opt.ProbeLeaves)
	}
	b, _, err := single.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("answers diverge across probe counts: %+v vs %+v", a, b)
	}
}

func TestBatchSearchStatsMatchesSearch(t *testing.T) {
	coll, queries := dataset(t, gen.Synthetic, 1000)
	ix := build(t, coll, 4)
	defer ix.Close()
	qs := make([]series.Series, queries.Len())
	for i := range qs {
		qs[i] = queries.At(i)
	}
	results, stats, err := ix.BatchSearchStats(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(qs) || len(stats) != len(qs) {
		t.Fatalf("%d results, %d stats for %d queries", len(results), len(stats), len(qs))
	}
	for i, q := range qs {
		want, wantSt, err := ix.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Fatalf("query %d: batch %+v vs direct %+v", i, results[i], want)
		}
		if stats[i].Observed != wantSt.Observed || stats[i].Observed != coll.Len() {
			t.Fatalf("query %d: Observed %d, want %d", i, stats[i].Observed, coll.Len())
		}
		if stats[i].RawDistances <= 0 || stats[i].EntriesChecked <= 0 {
			t.Fatalf("query %d: empty stats %+v", i, stats[i])
		}
		// Probes are capped by the leaves reachable from the query's root
		// subtree, so shallow subtrees may yield fewer than the configured
		// count.
		if stats[i].ProbeLeaves < 1 || stats[i].ProbeLeaves > ix.opt.ProbeLeaves {
			t.Fatalf("query %d: ProbeLeaves %d outside [1,%d]", i, stats[i].ProbeLeaves, ix.opt.ProbeLeaves)
		}
	}
}
