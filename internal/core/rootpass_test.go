package core

import (
	"maps"
	"math"
	"slices"
	"testing"

	"dsidx/internal/gen"
	"dsidx/internal/isax"
	"dsidx/internal/paa"
)

// emitted is one (leaf, bound) pair a traversal emitted, with the bound
// compared by its bits.
type emitted struct {
	leaf  *Node
	bound uint64
}

func collect(into map[emitted]int) func(*Node, float64) {
	return func(leaf *Node, lb float64) { into[emitted{leaf, math.Float64bits(lb)}]++ }
}

// TestPruneRootsMatchesPruneWalkTable pins the root pass to the walk it
// replaces: at an unpruned, a tight and a zero threshold, and for ED and
// DTW tables, PruneRoots over RootKeys — whole, and split into uneven
// blocks the way query tasks claim it — emits exactly the (leaf, bound)
// multiset PruneWalkTable emits from every OccupiedKeys root.
func TestPruneRootsMatchesPruneWalkTable(t *testing.T) {
	cfg := testConfig()
	tree, coll, _ := buildTestTree(t, 3000, cfg)
	inner := 0
	for _, key := range tree.OccupiedKeys() {
		if !tree.Subtree(key).IsLeaf() {
			inner++
		}
	}
	if inner == 0 {
		t.Fatal("test tree has no inner root; the descent branch goes unchecked")
	}
	quant := tree.Quantizer()
	g := gen.Generator{Kind: gen.Synthetic, Length: cfg.SeriesLen, Seed: 4321}
	for qi := 0; qi < 4; qi++ {
		q := g.Series(-(int64(qi) + 1))
		qpaa := paa.Transform(q, cfg.Segments)
		_, nnDist := coll.BruteForce1NN(q)
		up, low := make([]float64, cfg.Segments), make([]float64, cfg.Segments)
		for j := range qpaa {
			up[j], low[j] = qpaa[j]+0.2, qpaa[j]-0.2
		}
		tables := map[string]*isax.QueryTable{
			"ed":  isax.NewQueryTable(quant, qpaa, cfg.SeriesLen),
			"dtw": isax.NewDTWQueryTable(quant, up, low, cfg.SeriesLen),
		}
		for kind, table := range tables {
			mt := isax.NewMultiTable(quant, table)
			for _, limit := range []float64{math.Inf(1), nnDist * (1 + 1e-7), 0} {
				bsf := func() float64 { return limit }
				want := map[emitted]int{}
				for _, key := range tree.OccupiedKeys() {
					tree.PruneWalkTable(tree.Subtree(key), mt, bsf, collect(want))
				}
				keys := tree.RootKeys()
				whole := map[emitted]int{}
				tree.PruneRoots(keys, mt, bsf, collect(whole))
				blocks := map[emitted]int{}
				for lo := 0; lo < len(keys); lo += 37 {
					tree.PruneRoots(keys[lo:min(lo+37, len(keys))], mt, bsf, collect(blocks))
				}
				for name, got := range map[string]map[emitted]int{"whole": whole, "blocks": blocks} {
					if !maps.Equal(got, want) {
						t.Fatalf("query %d %s bsf %v (%s): root pass emitted %d distinct pairs, walk %d",
							qi, kind, limit, name, len(got), len(want))
					}
				}
				if math.IsInf(limit, 1) && len(want) != tree.Stats().Leaves {
					t.Fatalf("query %d %s: unpruned walk emitted %d leaves of %d", qi, kind, len(want), tree.Stats().Leaves)
				}
			}
		}
	}
}

// TestRootKeysSortedAndDropped checks the cached root list: ascending,
// the same set as OccupiedKeys, shared by clones, and rebuilt after a key
// is added through either insertion or SetSubtree.
func TestRootKeysSortedAndDropped(t *testing.T) {
	tree, _, sax := buildTestTree(t, 500, testConfig())
	keys := tree.RootKeys()
	if !slices.IsSorted(keys) {
		t.Fatal("RootKeys not ascending")
	}
	occ := tree.OccupiedKeys()
	slices.Sort(occ)
	if !slices.Equal(keys, occ) {
		t.Fatal("RootKeys and OccupiedKeys name different roots")
	}
	if &tree.RootKeys()[0] != &keys[0] {
		t.Fatal("RootKeys rebuilt the list for an unchanged tree")
	}
	shell := tree.CloneShell()
	if &shell.RootKeys()[0] != &keys[0] {
		t.Fatal("clone rebuilt the list of an unchanged key set")
	}
	free := uint32(0)
	for tree.Subtree(free) != nil {
		free++
	}
	shell.SetSubtree(free, &Node{Word: isax.RootWordFromKey(free, testConfig().Segments)})
	if got := shell.RootKeys(); len(got) != len(keys)+1 || !slices.Contains(got, free) || !slices.IsSorted(got) {
		t.Fatal("SetSubtree of a new key left the root list stale")
	}
	if len(tree.RootKeys()) != len(keys) {
		t.Fatal("a clone's new key leaked into the original's root list")
	}
	fresh, err := NewTree(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.RootKeys()) != 0 {
		t.Fatal("empty tree has root keys")
	}
	fresh.Insert(sax.At(0), 0)
	if got := fresh.RootKeys(); len(got) != 1 || got[0] != fresh.RootKey(sax.At(0)) {
		t.Fatalf("root list after first insert = %v", got)
	}
}
