package main

import (
	"context"
	"math"
	"runtime"
	"time"

	"dsidx"
	"dsidx/internal/isax"
	"dsidx/internal/messi"
	"dsidx/internal/paa"
	"dsidx/internal/series"
	"dsidx/internal/vector"
)

// The traced run replays a deterministic sample of each workload's requests
// down the layer ladder, one rung per layer:
//
//	Serve → public index → shard.Sharded.Search → each shard's messi.Index.Search
//	→ the isax bound pass over the SAX summaries → the vector kernels
//
// Every rung is a span under the request's replay root. A layer's time is
// its rung minus the rung below, so serve.overhead_ms_p50 is the Serve rung
// minus the direct index call for the same request.

const (
	ladderSamples = 32   // requests replayed through the public, scan, isax and kernel rungs
	messiSamples  = 1000 // per-shard messi searches, enough for a p99
	kernelCands   = 512  // candidate series each kernel rung runs over
	dtwCands      = 64   // candidates for the full-DTW rung
	dtwWindow     = 13   // Sakoe-Chiba half-width, 5% of seriesLen
	segments      = 16   // the index's default iSAX word length
	maxBits       = 8    // and its default maximum cardinality
)

// work is the machine-independent count of one search.
type work struct {
	entries, raw, popped, inserted, observed int
}

func workOf(st *messi.QueryStats) work {
	if st == nil {
		return work{}
	}
	return work{st.EntriesChecked, st.RawDistances, st.LeavesPopped, st.LeavesInserted, st.Observed}
}

// ladder replays sampled requests of one workload.
type ladder struct {
	tr      *tracer
	r       *report
	seed    int64
	samples []series.Series
}

func newLadder(c runConfig, r *report, pool []series.Series) *ladder {
	return &ladder{tr: c.tr, r: r, seed: c.seed, samples: pool[:ladderSamples]}
}

// entry is the top of a workload's ladder: its Serve loop and its direct
// index call.
type entry struct {
	serve  func(context.Context, <-chan dsidx.QueryRequest) <-chan dsidx.QueryResponse
	direct func(q series.Series) error
}

// replay sends each sample down the rungs that need no rebuilt index: the
// Serve loop and the direct index call (alternating which goes first, so
// neither always meets warm caches), the serial UCR scan of the data the
// index holds, and the isax and kernel rungs over coll. scan returns the
// squared 1-NN distance, which the early-abandoning kernel rung uses as its
// limit, as the index's best-so-far would be. Each sample's rungs are
// children of one replay span.
func (l *ladder) replay(top entry, scan func(q series.Series) float64, coll *series.Collection) error {
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan dsidx.QueryRequest)
	out := top.serve(ctx, in)
	defer func() {
		close(in)
		for range out {
		}
		cancel()
	}()
	k, err := newKernels(l, coll)
	if err != nil {
		return err
	}
	var over, index, scanMs []float64
	for i, q := range l.samples {
		root := l.tr.start("replay", int64(i), 0)
		rung := func(name string, fn func()) time.Duration { return l.tr.timed(name, int64(i), root.id(), fn) }
		var viaServe, viaIndex time.Duration
		serveRung := func() {
			viaServe = rung("serve", func() {
				in <- dsidx.QueryRequest{ID: int64(i), Query: q}
				if resp := <-out; resp.Err != nil {
					err = resp.Err
				}
			})
		}
		indexRung := func() {
			viaIndex = rung("index", func() {
				if e := top.direct(q); e != nil {
					err = e
				}
			})
		}
		if i%2 == 0 {
			serveRung()
			indexRung()
		} else {
			indexRung()
			serveRung()
		}
		over = append(over, ms(viaServe-viaIndex))
		index = append(index, ms(viaIndex))
		var nn float64
		scanMs = append(scanMs, ms(rung("ucr.scan", func() { nn = scan(q) })))
		k.run(q, nn, rung)
		root.end()
	}
	l.r.set("serve.overhead_ms_p50", median(over))
	l.r.set("index.search_ms_p50", median(index))
	l.r.set("ucr.scan_ms_p50", median(scanMs))
	l.r.set("ucr.index_speedup", ratio(median(scanMs), median(index)))
	k.report(l.r)
	return err
}

// messiRung replays n requests through every shard's messi search alone,
// pooling the per-shard call latencies into messi.search_ms_p50/_p99 and
// per-request work counts into the messi.* ratios. With more than one
// shard it also reports the slowest shard and the skew (slowest / mean).
func (l *ladder) messiRung(pool []series.Series, n, shards int, search func(q series.Series, si int) (work, error)) error {
	var lat, slowest, skew []float64
	var sum work
	for i := range n {
		q := pool[i%len(pool)]
		var worst, total float64
		for si := range shards {
			var w work
			var err error
			d := l.tr.timed("messi.search", int64(ladderSamples+i), 0, func() { w, err = search(q, si) })
			if err != nil {
				return err
			}
			lat = append(lat, ms(d))
			worst = max(worst, ms(d))
			total += ms(d)
			sum.entries += w.entries
			sum.raw += w.raw
			sum.popped += w.popped
			sum.inserted += w.inserted
			sum.observed += w.observed
		}
		slowest = append(slowest, worst)
		skew = append(skew, ratio(worst, total/float64(shards)))
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return err
	}
	l.r.set("messi.search_ms_p50", p50)
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return err
	}
	l.r.set("messi.search_ms_p99", p99)
	l.setWork(sum, n)
	if shards > 1 {
		l.r.set("shard.slowest_shard_ms", median(slowest))
		l.r.set("shard.skew", median(skew))
	}
	return nil
}

// setWork records the messi.* counts of n queries.
func (l *ladder) setWork(sum work, n int) {
	per := func(v int) float64 { return float64(v) / float64(n) }
	l.r.set("messi.entries_checked_per_query", per(sum.entries))
	l.r.set("messi.raw_distances_per_query", per(sum.raw))
	l.r.set("messi.leaves_popped_per_query", per(sum.popped))
	l.r.set("messi.leaves_inserted_per_query", per(sum.inserted))
	l.r.set("messi.pruned_fraction", 1-ratio(float64(sum.entries), float64(sum.observed)))
	l.r.set("messi.raw_per_entry", ratio(float64(sum.raw), float64(sum.entries)))
}

// shardRung times n requests through the scatter-gather search and
// returns the raw distances they computed, for rawOverSingle.
func (l *ladder) shardRung(pool []series.Series, n int, search func(q series.Series) (work, error)) (int, error) {
	var lat []float64
	var raw int
	for i := range n {
		var w work
		var err error
		d := l.tr.timed("shard.search", int64(ladderSamples+messiSamples+i), 0, func() { w, err = search(pool[i%len(pool)]) })
		if err != nil {
			return 0, err
		}
		lat = append(lat, ms(d))
		raw += w.raw
	}
	l.r.set("shard.search_ms_p50", median(lat))
	l.r.set("shard.raw_distances_per_query", float64(raw)/float64(n))
	return raw, nil
}

// rawOverSingle replays the shard rung's n requests on a 1-shard index of
// the same data and records the sharded raw distances over its own.
func (l *ladder) rawOverSingle(pool []series.Series, n, raw int, single func(q series.Series) (work, error)) error {
	var one int
	for i := range n {
		w, err := single(pool[i%len(pool)])
		if err != nil {
			return err
		}
		one += w.raw
	}
	l.r.set("shard.raw_over_single", ratio(float64(raw), float64(one)))
	return nil
}

// kernels holds the isax and kernel rungs' inputs and per-sample timings:
// the SAX summaries of the whole collection for the bound pass, and
// candidates drawn from it for the kernels.
type kernels struct {
	quant                            *isax.Quantizer
	sax, candSAX                     []uint8
	cands                            []series.Series
	bounds, qpaa                     []float64
	table                            isax.QueryTable
	fill, bound, ed, ea, md, lb, dtw []float64
	sink                             float64
}

func newKernels(l *ladder, coll *series.Collection) (*kernels, error) {
	quant, err := isax.NewQuantizer(maxBits)
	if err != nil {
		return nil, err
	}
	k := &kernels{quant: quant, sax: summarize(quant, coll), bounds: make([]float64, coll.Len()),
		qpaa: make([]float64, segments)}
	pick := rng(l.seed, streamPick, 9)
	for range kernelCands {
		p := pick.IntN(coll.Len())
		k.cands = append(k.cands, coll.At(p))
		k.candSAX = append(k.candSAX, k.sax[p*segments:(p+1)*segments]...)
	}
	return k, nil
}

// run times every isax and kernel rung for query q, whose squared 1-NN
// distance is nn.
func (k *kernels) run(q series.Series, nn float64, rung func(string, func()) time.Duration) {
	perCall := func(d time.Duration, calls int) float64 { return float64(d.Nanoseconds()) / float64(calls) }
	paa.TransformInto(q, k.qpaa)
	k.fill = append(k.fill, perCall(rung("isax.table_fill", func() { k.table.FillED(k.quant, k.qpaa, seriesLen) }), 1))
	k.bound = append(k.bound, perCall(rung("isax.bound_pass", func() { k.table.MinDistSAXStrided(k.sax, k.bounds) }), len(k.bounds)))
	k.ed = append(k.ed, perCall(rung("vector.ed", func() {
		for _, c := range k.cands {
			k.sink += vector.SquaredED(q, c)
		}
	}), len(k.cands)))
	k.ea = append(k.ea, perCall(rung("vector.ea", func() {
		for _, c := range k.cands {
			k.sink += vector.SquaredEDEarlyAbandon(q, c, nn)
		}
	}), len(k.cands)))
	k.md = append(k.md, perCall(rung("vector.mindist", func() {
		vector.MinDistBatch(k.table.Cells(), k.candSAX, segments, k.table.Card(), k.bounds[:len(k.cands)])
	}), len(k.cands)))
	env := series.NewEnvelope(q, dtwWindow)
	k.lb = append(k.lb, perCall(rung("series.lbkeogh", func() {
		for _, c := range k.cands {
			k.sink += series.LBKeogh(env, c, math.Inf(1))
		}
	}), len(k.cands)))
	k.dtw = append(k.dtw, perCall(rung("series.dtw", func() {
		for _, c := range k.cands[:dtwCands] {
			k.sink += series.DTW(q, c, dtwWindow, math.Inf(1))
		}
	}), dtwCands))
}

func (k *kernels) report(r *report) {
	runtime.KeepAlive(k.sink)
	r.set("isax.table_fill_ns", median(k.fill))
	r.set("isax.bound_ns_per_entry", median(k.bound))
	r.set("vector.ed_ns", median(k.ed))
	r.set("vector.ea_ns", median(k.ea))
	r.set("vector.mindist_ns_per_bound", median(k.md))
	r.set("vector.bytes_per_ed", float64(2*seriesLen*4)) // two float32 series per call
	r.set("series.lbkeogh_ns", median(k.lb))
	r.set("series.dtw_ns", median(k.dtw))
}

// summarize computes the full-cardinality iSAX summary of every series in
// coll, laid out back to back as the index's SAX array is.
func summarize(quant *isax.Quantizer, coll *series.Collection) []uint8 {
	out := make([]uint8, coll.Len()*segments)
	coeffs := make([]float64, segments)
	for i := range coll.Len() {
		paa.TransformInto(coll.At(i), coeffs)
		quant.SymbolsInto(coeffs, out[i*segments:(i+1)*segments])
	}
	return out
}

// buildStats records the build phases summed over shards.
func buildStats(r *report, bs []messi.BuildStats) {
	var sum, tree time.Duration
	for _, b := range bs {
		sum += b.Summarize
		tree += b.TreeBuild
	}
	r.set("core.summarize_s", sum.Seconds())
	r.set("core.tree_build_s", tree.Seconds())
}
