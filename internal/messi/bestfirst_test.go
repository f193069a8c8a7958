package messi

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
)

// TestBestFirstPopsLeastLeaves pins that the refinement phase does the
// least work any exact best-first search can: with one query worker it
// refines exactly the non-probed leaves whose table bound is below the
// final answer's squared distance. Every such leaf must be refined (the
// BSF never drops below the answer), and none other may be, because in
// ascending bound order the answer's own leaf is refined before the first
// candidate whose bound reaches the answer.
func TestBestFirstPopsLeastLeaves(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Seed: 5}
	coll, queries := g.Collection(3000), g.Queries(8)
	ix, err := Build(coll, core.Config{LeafCapacity: 16}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	tree := ix.Tree()
	refined := 0
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for qi := 0; qi < queries.Len(); qi++ {
				q := queries.At(qi)
				res, st, err := ix.Search(q, 1)
				if err != nil {
					t.Fatal(err)
				}
				sc := ix.newScratch()
				sc.summarizeQuery(q)
				sc.table.FillED(tree.Quantizer(), sc.qpaa, ix.cfg.SeriesLen)
				sc.mt.FillFrom(tree.Quantizer(), sc.table)
				sc.probed = tree.BestLeavesApprox(sc.qsax, sc.qpaa, ix.ProbeLeaves())
				want := 0
				tree.VisitLeaves(func(leaf *core.Node) {
					if sc.mt.DistWord(leaf.Word) < res.Dist && !sc.wasProbed(leaf) {
						want++
					}
				})
				if st.LeavesPopped != want {
					t.Fatalf("query %d: refined %d leaves, %d have a bound below the answer %v",
						qi, st.LeavesPopped, want, res.Dist)
				}
				refined += want
			}
		})
	}
	if refined == 0 {
		t.Fatal("no query refined a candidate leaf; the check is vacuous")
	}
}

// TestPooledScratchPinsNoLeaves checks that a scratch parked in the pool
// holds no tree node once a merge has retired the snapshot it searched:
// the candidate array, its sort buffer, the per-task runs and the probed
// list are cleared over their whole capacity.
func TestPooledScratchPinsNoLeaves(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Seed: 9}
	coll, queries := g.Collection(2000), g.Queries(4)
	ix, err := Build(coll, core.Config{LeafCapacity: 16},
		Options{Workers: 4, MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	const rounds, perRound = 40, 10
	extra := g.Collection(coll.Len() + rounds*perRound)
	reused := 0
	for round := 0; round < rounds && reused < queries.Len(); round++ {
		qi := round % queries.Len()
		_, st, err := ix.Search(queries.At(qi), 4)
		if err != nil {
			t.Fatal(err)
		}
		if st.LeavesInserted == 0 {
			t.Fatalf("query %d queued no candidates; the check below would be vacuous", qi)
		}
		old := ix.snap.Load()
		for i := 0; i < perRound; i++ {
			if _, err := ix.Append(extra.At(coll.Len() + round*perRound + i)); err != nil {
				t.Fatal(err)
			}
		}
		ix.Flush()
		if ix.snap.Load() == old {
			t.Fatal("Flush did not swap the snapshot")
		}
		// The pool may have dropped the scratch (under a GC, or at random
		// with the race detector on); only a reused one (a grown candidate
		// array) can carry stale pointers, so rounds repeat until several
		// were checked.
		sc := ix.getScratch()
		if cap(sc.cands) > 0 {
			reused++
		}
		for i, n := range sc.probed[:cap(sc.probed)] {
			if n != nil {
				t.Fatalf("query %d: probed[%d] still points at a leaf", qi, i)
			}
		}
		for i, c := range sc.cands[:cap(sc.cands)] {
			if c.leaf != nil {
				t.Fatalf("query %d: cands[%d] still points at a leaf", qi, i)
			}
		}
		for i, c := range sc.spare[:cap(sc.spare)] {
			if c.leaf != nil {
				t.Fatalf("query %d: spare[%d] still points at a leaf", qi, i)
			}
		}
		for r, run := range sc.runs[:cap(sc.runs)] {
			for i, c := range run[:cap(run)] {
				if c.leaf != nil {
					t.Fatalf("query %d: runs[%d][%d] still points at a leaf", qi, r, i)
				}
			}
		}
		ix.putScratch(sc)
	}
	if reused == 0 {
		t.Fatal("the pool never returned a used scratch")
	}
}

// TestSortByBound checks the radix sort against a comparison sort, on
// bounds that differ only below the radix key's 20 mantissa bits, exact
// ties, zeros and +Inf.
func TestSortByBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	leaves := make([]core.Node, 64)
	gens := map[string]func() float64{
		"uniform":    func() float64 { return rng.Float64() * 1e3 },
		"near-ties":  func() float64 { return 7 + float64(rng.Intn(16))*1e-9 },
		"exact-ties": func() float64 { return float64(rng.Intn(4)) },
		"mixed": func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return math.Inf(1)
			}
			return rng.ExpFloat64()
		},
	}
	byBound := func(a, b candidate) int { return cmp.Compare(a.bound, b.bound) }
	for name, draw := range gens {
		for _, n := range []int{0, 1, 2, 17, 3000} {
			var c []candidate
			for i := 0; i < n; i++ {
				c = append(c, candidate{bound: draw(), leaf: &leaves[rng.Intn(len(leaves))]})
			}
			want := slices.Clone(c)
			slices.SortFunc(want, byBound)
			spare := sortByBound(c, make([]candidate, n/2)) // too short: must grow
			if n > 1 && len(spare) != n {
				t.Fatalf("%s n=%d: spare len %d", name, n, len(spare))
			}
			count := map[*core.Node]int{}
			for i := range c {
				if math.Float64bits(c[i].bound) != math.Float64bits(want[i].bound) {
					t.Fatalf("%s n=%d: [%d] = %v, want %v", name, n, i, c[i].bound, want[i].bound)
				}
				count[c[i].leaf]++
				count[want[i].leaf]--
			}
			for _, v := range count {
				if v != 0 {
					t.Fatalf("%s n=%d: sorting changed the leaves", name, n)
				}
			}
		}
	}
}
