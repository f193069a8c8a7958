package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"dsidx/internal/series"
)

// Every input the benchmark hands the program is made here, as a pure
// function of the run's seed. The generators are the benchmark's own, so a
// change to the repository's dataset generators cannot change the inputs.

// seriesLen is the length of every series: the paper's 256-point random walk.
const seriesLen = 256

// Input streams. Each draws from its own generator keyed by (seed, stream),
// so adding a stream never shifts another.
const (
	streamBase uint64 = iota + 1
	streamFar
	streamNear
	streamAppend
	streamPick
)

// rng returns the generator of one (seed, stream, index) triple.
func rng(seed int64, stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream<<48^i))
}

// randomWalks returns n z-normalized Gaussian random walks. Series i comes
// from its own generator, so the result does not depend on how many
// goroutines fill it.
func randomWalks(seed int64, stream uint64, n int) *series.Collection {
	coll := series.NewCollection(n, seriesLen)
	workers := min(runtime.GOMAXPROCS(0), max(1, n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				walk(rng(seed, stream, uint64(i)), coll.At(i))
			}
		}()
	}
	wg.Wait()
	return coll
}

// walk fills s with a random walk and z-normalizes it.
func walk(r *rand.Rand, s series.Series) {
	var x float64
	for i := range s {
		x += r.NormFloat64()
		s[i] = float32(x)
	}
	znorm(s)
}

// znorm rescales s to mean 0 and standard deviation 1 in place.
func znorm(s series.Series) {
	var sum, sq float64
	for _, v := range s {
		sum += float64(v)
	}
	mean := sum / float64(len(s))
	for _, v := range s {
		d := float64(v) - mean
		sq += d * d
	}
	sd := math.Sqrt(sq / float64(len(s)))
	if sd < 1e-12 {
		sd = 1
	}
	for i, v := range s {
		s[i] = float32((float64(v) - mean) / sd)
	}
}

// nearEps is the relative noise of a near query: a member of the collection
// perturbed by this much has its nearest neighbour close by, the pruning
// regime of a dense collection.
const nearEps = 0.05

// tightEps is the noise of the ingest phase's queries near a recent
// append: close enough that the neighbour's leaf is almost always among the
// leaves a search probes first, so their latency has one mode. At nearEps
// about half miss it, and a median taken between the two modes moved by
// 15-20% from run to run.
const tightEps = 0.01

// perturb returns a copy of s with Gaussian noise of relative size eps
// added from r, z-normalized again.
func perturb(r *rand.Rand, s series.Series, eps float64) series.Series {
	q := make(series.Series, len(s))
	for i, v := range s {
		q[i] = v + float32(r.NormFloat64()*eps)
	}
	znorm(q)
	return q
}

// isFar reports whether query i of a pool is far. Two in three queries are
// near: with an exact half, the median falls in the gap between the near
// and the far latency modes, where it jumps with run-to-run noise.
func isFar(i int) bool { return i%3 == 2 }

// queryPool returns n queries over coll: near ones (a perturbed member) and
// far ones (a fresh random walk), as isFar lays them out.
func queryPool(seed int64, coll *series.Collection, n int) []series.Series {
	pick := rng(seed, streamPick, 0)
	out := make([]series.Series, n)
	for i := range out {
		if !isFar(i) {
			out[i] = perturb(rng(seed, streamNear, uint64(i)), coll.At(pick.IntN(coll.Len())), nearEps)
			continue
		}
		q := make(series.Series, seriesLen)
		walk(rng(seed, streamFar, uint64(i)), q)
		out[i] = q
	}
	return out
}

// nearPool returns n near queries over coll only.
func nearPool(seed int64, coll *series.Collection, n int) []series.Series {
	pick := rng(seed, streamPick, 1)
	out := make([]series.Series, n)
	for i := range out {
		out[i] = perturb(rng(seed, streamNear, uint64(i)), coll.At(pick.IntN(coll.Len())), nearEps)
	}
	return out
}
