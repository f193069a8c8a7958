package messi

// Race-detector stress suite for the mutation surface added with deletes:
// concurrent deleters and appenders against mixed exact/kNN/DTW/window
// readers, with every answer verified post hoc against serial scans.
//
// Verification model: appends land as a monotone prefix and each deleter
// kills a disjoint arithmetic progression of positions in order, so a
// reader's pre/post snapshots (landed count n1..n2, per-deleter progress
// c1..c2) bound the set of states its query could have observed. When the
// snapshots agree (no concurrent movement), the answer must be bit-identical
// to ucr.ScanLive over that exact state. When they differ, the answer must
// be (a) a valid series: landed by n2, not yet deleted at c1, distance
// recomputed with the shared kernel equal bit-for-bit, and (b) minimal:
// no position that was certainly live for the whole query (landed before
// n1, still alive at c2) may beat it. Both sides of the comparison use the
// same distance kernels as the index, so equality is exact, not
// tolerance-based (see ucr.Scan).

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/series"
	"dsidx/internal/ucr"
	"dsidx/internal/vector"
)

const (
	delStressBase     = 1200 // series in the built base
	delStressExtra    = 400  // series appended concurrently
	delStressDeleters = 2    // each kills a disjoint arithmetic progression
	delStressReaders  = 8
	delStressKNNK     = 5
	delStressDTWWin   = 8
)

// delStressIters is per reader; the suite must stay viable on a single
// CPU under -race, so -short trims the query count, not the concurrency.
func delStressIters() int {
	if testing.Short() {
		return 8
	}
	return 20
}

// delObs is one reader observation: the pre/post snapshots bracketing a
// query plus its answer, verified serially after all goroutines join.
type delObs struct {
	kind   int // 0 = 1-NN ED, 1 = k-NN ED, 2 = 1-NN DTW, 3 = window ED
	qi     int
	winN   int // window size (kind 3 only)
	n1, n2 int
	c1, c2 [delStressDeleters]int
	res    []core.Result
}

// delDeadAt reports whether position p is deleted once each deleter d has
// completed c[d] deletes of its progression p ≡ d (mod delStressDeleters).
func delDeadAt(p int, c [delStressDeleters]int) bool {
	return p/delStressDeleters < c[p%delStressDeleters]
}

func TestConcurrentDeleteStress(t *testing.T) {
	g := gen.Generator{Kind: gen.Synthetic, Length: 64, Seed: 1109}
	mirror := g.Collection(delStressBase + delStressExtra)
	base := series.NewCollection(0, mirror.SeriesLen())
	for i := 0; i < delStressBase; i++ {
		base.Append(mirror.At(i))
	}
	queries := g.PerturbedQueries(mirror, 64, 0.05)

	ix, err := Build(base, core.Config{LeafCapacity: 64}, Options{MergeThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	var (
		landed  atomic.Int64 // series visible: positions [0, landed)
		delProg [delStressDeleters]atomic.Int64
		done    atomic.Bool
		wg      sync.WaitGroup
	)
	landed.Store(delStressBase)

	// Appender: lands the remaining mirror suffix one at a time, flushing
	// periodically so delta merges run concurrently with the deleters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < delStressExtra; i++ {
			gpos := delStressBase + i
			p, err := ix.Append(mirror.At(gpos))
			if err != nil {
				t.Error(err)
				return
			}
			if p != gpos {
				t.Errorf("append landed at %d, want %d", p, gpos)
				return
			}
			landed.Store(int64(gpos + 1))
			if i%200 == 199 {
				ix.Flush()
			}
		}
	}()

	// Deleters: deleter d tombstones base positions d, d+D, d+2D, ... in
	// order, publishing progress only after each Delete returns.
	for d := 0; d < delStressDeleters; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for p := d; p < delStressBase/2; p += delStressDeleters {
				newly, err := ix.Delete(p)
				if err != nil {
					t.Error(err)
					return
				}
				if !newly {
					t.Errorf("delete #%d reported already-dead on first delete", p)
					return
				}
				delProg[p%delStressDeleters].Add(1)
			}
		}(d)
	}

	// Compactor: sweeps tombstones into the trees while everything runs.
	// The sweep rebuilds filtered subtrees, so it is paced rather than
	// spun — on one CPU a tight loop would starve the readers. It joins
	// on its own WaitGroup: it stops on done, which is only set after the
	// workers join, so parking it in wg would deadlock wg.Wait.
	var compWG sync.WaitGroup
	compWG.Add(1)
	go func() {
		defer compWG.Done()
		for !done.Load() {
			ix.Compact()
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Readers: mixed query kinds with pre/post snapshots, verified below.
	iters := delStressIters()
	obsCh := make(chan delObs, delStressReaders*iters)
	for r := 0; r < delStressReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				qi := (r*iters + it) % queries.Len()
				q := queries.At(qi)
				o := delObs{kind: (r + it) % 4, qi: qi}
				o.n1 = int(landed.Load())
				for d := range o.c1 {
					o.c1[d] = int(delProg[d].Load())
				}
				switch o.kind {
				case 0:
					res, _, err := ix.Search(q, 0)
					if err != nil {
						t.Error(err)
						return
					}
					o.res = []core.Result{res}
				case 1:
					res, _, err := ix.Query(q, Request{Kind: KNN, K: delStressKNNK})
					if err != nil {
						t.Error(err)
						return
					}
					o.res = res
				case 2:
					res, _, err := ix.SearchDTW(q, delStressDTWWin, 0)
					if err != nil {
						t.Error(err)
						return
					}
					o.res = []core.Result{res}
				case 3:
					o.winN = 64 + 97*it
					res, _, err := searchWindow(ix, q, o.winN)
					if err != nil {
						t.Error(err)
						return
					}
					o.res = []core.Result{res}
				}
				// Post-snapshots in the reverse order of the pre-snapshots,
				// so each counter's true value during the query lies inside
				// its recorded interval.
				for d := range o.c2 {
					o.c2[d] = int(delProg[d].Load())
				}
				o.n2 = int(landed.Load())
				obsCh <- o
			}
		}(r)
	}

	wg.Wait()
	done.Store(true)
	compWG.Wait()
	close(obsCh)

	quiescent := 0
	for o := range obsCh {
		if verifyDelObs(t, mirror, queries, o) {
			quiescent++
		}
	}
	if quiescent == 0 {
		t.Error("no observation had quiescent snapshots — exact-state branch never exercised")
	}
	if ix.Tombstoned() != delStressBase/2 {
		t.Errorf("tombstoned %d, want %d", ix.Tombstoned(), delStressBase/2)
	}
	if ix.Live() != delStressBase/2+delStressExtra {
		t.Errorf("live %d, want %d", ix.Live(), delStressBase/2+delStressExtra)
	}
}

// verifyDelObs checks one observation and reports whether it hit the exact
// quiescent-state branch.
func verifyDelObs(t *testing.T, mirror, queries *series.Collection, o delObs) bool {
	t.Helper()
	q := queries.At(o.qi)

	// Exact branch: no counter moved during the query, so the observed
	// state is unique and the answer must be bit-identical to the serial
	// scan over it.
	if o.n1 == o.n2 && o.c1 == o.c2 {
		dead := func(p int) bool { return p >= o.n1 || delDeadAt(p, o.c1) }
		switch o.kind {
		case 0:
			want := ucr.ScanLive(mirror, q, 0, dead)
			if o.res[0] != core.Result(want) {
				t.Errorf("query %d (1-NN, quiescent): got (#%d, %v), serial scan says (#%d, %v)",
					o.qi, o.res[0].Pos, o.res[0].Dist, want.Pos, want.Dist)
			}
		case 1:
			want := ucr.ScanLiveKNN(mirror, q, delStressKNNK, 0, dead)
			if len(o.res) != len(want) {
				t.Errorf("query %d (k-NN, quiescent): %d results, want %d", o.qi, len(o.res), len(want))
				break
			}
			for r := range want {
				if o.res[r] != core.Result(want[r]) {
					t.Errorf("query %d (k-NN, quiescent) rank %d: got (#%d, %v), serial scan says (#%d, %v)",
						o.qi, r, o.res[r].Pos, o.res[r].Dist, want[r].Pos, want[r].Dist)
				}
			}
		case 2:
			want := ucr.ScanLiveDTW(mirror, q, delStressDTWWin, 0, dead)
			if o.res[0] != core.Result(want) {
				t.Errorf("query %d (DTW, quiescent): got (#%d, %v), serial scan says (#%d, %v)",
					o.qi, o.res[0].Pos, o.res[0].Dist, want.Pos, want.Dist)
			}
		case 3:
			want := ucr.ScanLive(mirror, q, o.n1-o.winN, dead)
			if o.res[0] != core.Result(want) {
				t.Errorf("query %d (window %d, quiescent): got (#%d, %v), serial scan says (#%d, %v)",
					o.qi, o.winN, o.res[0].Pos, o.res[0].Dist, want.Pos, want.Dist)
			}
		}
		return true
	}

	// Concurrent branch. certain(p): landed before the query began and
	// never deleted by the time it ended — visible and live throughout.
	certain := func(p int) bool { return p < o.n1 && !delDeadAt(p, o.c2) }

	for r, res := range o.res {
		if res.Pos < 0 {
			continue
		}
		p := int(res.Pos)
		if p >= o.n2 {
			t.Errorf("query %d: answered #%d, only %d series had landed", o.qi, p, o.n2)
			return false
		}
		if delDeadAt(p, o.c1) {
			t.Errorf("query %d: answered #%d, deleted before the query began", o.qi, p)
			return false
		}
		if o.kind == 3 && p < o.n1-o.winN {
			t.Errorf("query %d: window %d answered #%d, below every possible cut", o.qi, o.winN, p)
			return false
		}
		var d float64
		if o.kind == 2 {
			d = series.DTW(q, mirror.At(p), delStressDTWWin, math.Inf(1))
		} else {
			d = vector.SquaredEDEarlyAbandon(q, mirror.At(p), math.Inf(1))
		}
		if d != res.Dist {
			t.Errorf("query %d: answer #%d reports dist %v, kernel says %v", o.qi, p, res.Dist, d)
			return false
		}
		if r > 0 && (res.Dist < o.res[r-1].Dist || res.Pos == o.res[r-1].Pos) {
			t.Errorf("query %d (k-NN): rank %d (#%d, %v) out of order after (#%d, %v)",
				o.qi, r, res.Pos, res.Dist, o.res[r-1].Pos, o.res[r-1].Dist)
			return false
		}
	}

	// Minimality: nothing certainly visible and live may beat the answer.
	switch o.kind {
	case 0, 2:
		got := o.res[0]
		limit := got.Dist
		if got.Pos < 0 {
			limit = math.Inf(1)
		}
		var env *series.Envelope
		if o.kind == 2 {
			env = series.NewEnvelope(q, delStressDTWWin)
		}
		for p := 0; p < o.n1; p++ {
			if !certain(p) {
				continue
			}
			var d float64
			if o.kind == 2 {
				if lb := series.LBKeogh(env, mirror.At(p), limit); lb >= limit {
					continue
				}
				d = series.DTW(q, mirror.At(p), delStressDTWWin, limit)
			} else {
				d = vector.SquaredEDEarlyAbandon(q, mirror.At(p), limit)
			}
			if d < limit {
				t.Errorf("query %d: certainly-live #%d at dist %v beats the answer (%v)", o.qi, p, d, limit)
				return false
			}
		}
	case 1:
		inRes := make(map[int32]bool, len(o.res))
		for _, r := range o.res {
			inRes[r.Pos] = true
		}
		limit := math.Inf(1)
		if len(o.res) == delStressKNNK {
			limit = o.res[len(o.res)-1].Dist
		}
		for p := 0; p < o.n1; p++ {
			if !certain(p) || inRes[int32(p)] {
				continue
			}
			if d := vector.SquaredEDEarlyAbandon(q, mirror.At(p), limit); d < limit {
				t.Errorf("query %d (k-NN): certainly-live #%d at dist %v beats the returned set (worst %v)",
					o.qi, p, d, limit)
				return false
			}
		}
	case 3:
		// Positions inside the window at every possible cut.
		got := o.res[0]
		limit := got.Dist
		if got.Pos < 0 {
			limit = math.Inf(1)
		}
		for p := o.n2 - o.winN; p < o.n1; p++ {
			if p < 0 || !certain(p) {
				continue
			}
			if d := vector.SquaredEDEarlyAbandon(q, mirror.At(p), limit); d < limit {
				t.Errorf("query %d (window %d): certainly-in-window #%d at dist %v beats the answer (%v)",
					o.qi, o.winN, p, d, limit)
				return false
			}
		}
	}
	return false
}

func TestCloseDuringCompaction(t *testing.T) {
	// Close must be safe to race against Compact, Delete, and queries:
	// no panic, no deadlock, and answers stay exact afterwards on the
	// degraded inline engine.
	g := gen.Generator{Kind: gen.Synthetic, Length: 64, Seed: 2218}
	coll := g.Collection(1200)
	ix, err := Build(coll, core.Config{LeafCapacity: 64}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := g.PerturbedQueries(coll, 1, 0.05).At(0)

	var wg sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !done.Load(); i += 3 {
				if i < coll.Len()/2 {
					if _, err := ix.Delete(i); err != nil {
						t.Error(err)
						return
					}
				}
				ix.Compact()
				if _, _, err := ix.Search(q, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond)
	ix.Close()
	ix.Close() // idempotent, racing the workers too
	time.Sleep(time.Millisecond)
	done.Store(true)
	wg.Wait()

	// Post-close: delete the first half entirely, compact, and verify the
	// inline engine still answers bit-exactly over the live suffix.
	if _, err := ix.DeleteRange(0, coll.Len()/2); err != nil {
		t.Fatal(err)
	}
	ix.Compact()
	dead := func(p int) bool { return p < coll.Len()/2 }
	want := ucr.ScanLive(coll, q, 0, dead)
	got, _, err := ix.Search(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != core.Result(want) {
		t.Fatalf("post-close search: got (#%d, %v), serial scan says (#%d, %v)",
			got.Pos, got.Dist, want.Pos, want.Dist)
	}
}
