package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dsidx"
	"dsidx/internal/core"
	"dsidx/internal/messi"
	"dsidx/internal/series"
	"dsidx/internal/shard"
	"dsidx/internal/storage"
	"dsidx/internal/ucr"
	"dsidx/internal/vector"
)

// workload is one named set of inputs and load the benchmark runs.
type workload struct {
	name, why string
	run       func(c runConfig, r *report) error
}

var workloads = []workload{
	{"mem-exact", "exact 1-NN on a 200k-series in-memory MESSI, one closed-loop client, 2 near : 1 far queries: vector, isax and messi traversal do the work", runMemExact},
	{"serve-mix", "1-NN, 10-NN and near-only DTW over Serve on 4 round-robin shards of 100k series, window 2, two tenants: scatter/gather, admission, serve loop", runServeMix},
}

// runConfig is one run's settings.
type runConfig struct {
	seed    int64
	measure time.Duration
	trace   bool
	tr      *tracer // nil unless trace
}

const (
	poolSize     = 16384 // queries per pool; a run rarely repeats one
	checkSamples = 16    // answers per run checked against the serial scan
	setupReps    = 3     // builds per run; setup_s is their median
	warmUp       = time.Second
	knnK         = 10
)

// loadFunc runs one measured phase of a workload's load for d, starting at
// request first and tracing into tr when it is not nil.
type loadFunc func(d time.Duration, tr *tracer, minSamples, first int) loopResult

// warm runs the load untimed, so caches fill and lazy set-up finishes
// before measuring. Its requests start far past any checked sample.
func warm(r *report, load loadFunc) {
	r.count(load(warmUp, nil, 0, 1<<30))
}

// measure runs a workload's measured load. Untraced it is one phase over
// the whole window, whose latencies become query_p50_ms, query_p99_ms and
// qps. Traced it alternates untraced and traced eighths of the window on
// the same index, so drift in the machine's speed hits both alike, and
// trace.overhead_frac compares their p50s. It returns every request the
// phase completed.
func measure(c runConfig, r *report, load loadFunc) loopResult {
	if !c.trace {
		res := load(c.measure, nil, minSamplesP99, 0)
		r.count(res)
		p50, err50 := percentile(inMs(res.lat), 0.5)
		p99, err99 := percentile(inMs(res.lat), 0.99)
		if err50 != nil || err99 != nil {
			// Too few samples to report: leave the metrics unset so the run
			// fails loudly instead of printing a p99 it does not have.
			return res
		}
		r.set("query_p50_ms", p50)
		r.set("query_p99_ms", p99)
		r.set("qps", float64(len(res.lat))/res.elapsed.Seconds())
		return res
	}
	var plain, traced, all loopResult
	first := 0
	const parts = 8
	for part := range parts {
		var tr *tracer
		half := &plain
		if part%2 == 1 {
			tr, half = c.tr, &traced
		}
		res := load(c.measure/parts, tr, 2*minTail, first)
		first += res.attempted
		r.count(res)
		for _, acc := range []*loopResult{half, &all} {
			acc.lat = append(acc.lat, res.lat...)
			acc.attempted += res.attempted
			acc.failed += res.failed
			acc.elapsed += res.elapsed
		}
	}
	base := median(inMs(plain.lat))
	r.set("trace.overhead_frac", (median(inMs(traced.lat))-base)/base)
	return all
}

// setUp builds an index setupReps times from inputs already in memory and
// keeps the last build. It records the median build time as setup_s and
// the live heap the kept build added, per series, as
// heap_bytes_per_series.
func setUp[T interface{ Close() }](r *report, n int, build func() (T, error)) (T, error) {
	var ix T
	var times []float64
	for rep := range setupReps {
		before := liveHeap()
		t0 := time.Now()
		x, err := build()
		el := time.Since(t0)
		if err != nil {
			return ix, fmt.Errorf("build: %w", err)
		}
		times = append(times, el.Seconds())
		if rep < setupReps-1 {
			x.Close()
			continue
		}
		r.set("heap_bytes_per_series", (float64(liveHeap())-float64(before))/float64(n))
		ix = x
	}
	r.set("setup_s", middle(times))
	return ix, nil
}

// engineDelta records the worker pool's counters over a phase of n
// queries.
func engineDelta(r *report, before, after dsidx.EngineStats, n int) {
	q := float64(n)
	r.set("engine.tasks_per_query", ratio(float64(after.Tasks-before.Tasks), q))
	r.set("engine.admit_waits_per_query", ratio(float64(after.AdmitWaits-before.AdmitWaits), q))
	r.set("engine.admit_wait_ms_per_query", ratio(float64(after.AdmitWaitNanos-before.AdmitWaitNanos)/1e6, q))
	r.set("engine.submit_fallbacks", float64(after.SubmitFallbacks-before.SubmitFallbacks))
	r.set("engine.peak_in_flight", float64(after.PeakInFlight))
}

// wrongAnswer reports whether got, an index's answer to req over coll,
// differs from the serial UCR scan's. The comparison is bit for bit: the
// scans and the index share their distance kernels.
func wrongAnswer(coll *series.Collection, req dsidx.QueryRequest, got []dsidx.Match) bool {
	var want []dsidx.Match
	switch req.Kind {
	case dsidx.QueryKNN:
		want = dsidx.ScanKNN(coll, req.Query, req.K)
	case dsidx.QueryDTW:
		want = []dsidx.Match{dsidx.ScanNearestDTW(coll, req.Query, req.Window)}
	default:
		want = []dsidx.Match{dsidx.ScanNearest(coll, req.Query)}
	}
	if len(got) != len(want) {
		return true
	}
	for i := range got {
		if got[i] != want[i] {
			return true
		}
	}
	return false
}

func runMemExact(c runConfig, r *report) error {
	const n = 200_000
	coll := randomWalks(c.seed, streamBase, n)
	queries := queryPool(c.seed, coll, poolSize)
	ix, err := setUp(r, n, func() (*dsidx.MESSI, error) { return dsidx.NewMESSI(coll) })
	if err != nil {
		return err
	}
	defer func() {
		if ix != nil {
			ix.Close()
		}
	}()

	got := make([]dsidx.Match, checkSamples)
	load := func(d time.Duration, tr *tracer, minSamples, first int) loopResult {
		return closedLoop(d, minSamples, first, func(i int) error {
			var m dsidx.Match
			var err error
			tr.timed("index.search", int64(i), 0, func() { m, err = ix.Search(queries[i%len(queries)]) })
			if i < len(got) {
				got[i] = m
			}
			return err
		})
	}
	warm(r, load)
	before := ix.EngineStats()
	res := measure(c, r, load)
	after := ix.EngineStats()
	for i, m := range got {
		if wrongAnswer(coll, dsidx.QueryRequest{Query: queries[i]}, []dsidx.Match{m}) {
			r.wrong++
		}
	}
	if !c.trace {
		return nil
	}

	engineDelta(r, before, after, res.attempted)
	l := newLadder(c, r, queries)
	top := entry{serve: ix.Serve, direct: func(q series.Series) error { _, err := ix.Search(q); return err }}
	if err := l.replay(top, func(q series.Series) float64 { return ucr.Scan(coll, q).Dist }, coll); err != nil {
		return err
	}
	// Release the public index before building its twin. The public index
	// hides its internals; a twin built the same way gives the messi rung
	// and the build phases.
	ix.Close()
	ix = nil
	twin, err := messi.Build(coll, core.Config{}, messi.Options{})
	if err != nil {
		return err
	}
	defer func() {
		if twin != nil {
			twin.Close()
		}
	}()
	buildStats(r, []messi.BuildStats{twin.BuildStats()})
	err = l.messiRung(queries, messiSamples, 1, func(q series.Series, _ int) (work, error) {
		_, st, err := twin.Search(q, 0)
		return workOf(st), err
	})
	if err != nil {
		return err
	}
	twin.Close()
	twin = nil // released before the ingest phase builds its own index
	return ingestPhase(c, r, max(c.measure/4, 2*time.Second))
}

// serve-mix request mix: a cycle of ten requests, alternating tenants.
// Slots 0-3 are exact 1-NN and 4-7 are 10-NN, over the near and far pool;
// slots 8-9 are DTW on near queries only (a far DTW query can take a
// second and would swamp the mix).
func mixRequest(queries, near []series.Series, i int) dsidx.QueryRequest {
	req := dsidx.QueryRequest{Query: queries[i%len(queries)], Tenant: [2]string{"a", "b"}[i%2]}
	switch slot := i % 10; {
	case slot >= 8:
		req.Kind, req.Window = dsidx.QueryDTW, dtwWindow
		req.Query = near[(i/10*2+slot-8)%len(near)]
	case slot >= 4:
		req.Kind, req.K = dsidx.QueryKNN, knnK
	}
	return req
}

func runServeMix(c runConfig, r *report) error {
	const n, shards = 100_000, 4
	coll := randomWalks(c.seed, streamBase, n)
	queries := queryPool(c.seed, coll, poolSize)
	near := nearPool(c.seed, coll, poolSize)
	ix, err := setUp(r, n, func() (*dsidx.Sharded, error) {
		return dsidx.NewSharded(coll, dsidx.WithShards(shards), dsidx.WithShardPolicy(dsidx.ShardRoundRobin))
	})
	if err != nil {
		return err
	}
	defer func() {
		if ix != nil {
			ix.Close()
		}
	}()

	const checkN = 20 // two cycles of the mix: every kind, tenant and query flavour
	got := make([][]dsidx.Match, checkN)
	load := func(d time.Duration, tr *tracer, minSamples, first int) loopResult {
		spans := make(map[int]*openSpan)
		return serveLoop(ix.Serve, 2, d, minSamples, first,
			func(i int) dsidx.QueryRequest {
				spans[i] = tr.start("serve.request", int64(i), 0)
				return mixRequest(queries, near, i)
			},
			func(i int, resp dsidx.QueryResponse) error {
				spans[i].end()
				delete(spans, i)
				if i < checkN {
					got[i] = resp.Matches
				}
				return resp.Err
			})
	}
	warm(r, load)
	before := ix.EngineStats()
	res := measure(c, r, load)
	after := ix.EngineStats()
	for i, m := range got {
		if wrongAnswer(coll, mixRequest(queries, near, i), m) {
			r.wrong++
		}
	}
	if !c.trace {
		return nil
	}

	engineDelta(r, before, after, res.attempted)
	l := newLadder(c, r, queries)
	top := entry{serve: ix.Serve, direct: func(q series.Series) error { _, err := ix.Search(q); return err }}
	if err := l.replay(top, func(q series.Series) float64 { return ucr.Scan(coll, q).Dist }, coll); err != nil {
		return err
	}
	ix.Close()
	ix = nil // released before its internal twin is built
	twin, err := shard.Build(coll, core.Config{}, shard.Options{Shards: shards, Policy: shard.RoundRobin{}})
	if err != nil {
		return err
	}
	defer twin.Close()
	if err := shardLadder(l, twin, queries, coll); err != nil {
		return err
	}
	return coldRung(l, coll, near)
}

// shardLadder runs the rungs below a sharded index: each shard's messi
// search, the scatter-gather search, and the same requests against a
// 1-shard index of the same data.
func shardLadder(l *ladder, ix *shard.Sharded, queries []series.Series, coll *series.Collection) error {
	shards := ix.Shards()
	var bs []messi.BuildStats
	for si := range shards {
		bs = append(bs, ix.Shard(si).BuildStats())
	}
	buildStats(l.r, bs)
	err := l.messiRung(queries, messiSamples/shards, shards, func(q series.Series, si int) (work, error) {
		_, st, err := ix.Shard(si).Search(q, 0)
		return workOf(st), err
	})
	if err != nil {
		return err
	}
	const n = 200
	raw, err := l.shardRung(queries, n, func(q series.Series) (work, error) {
		_, st, err := ix.Search(q, 0)
		return workOf(st), err
	})
	if err != nil {
		return err
	}
	ix.Close()
	// Leaf materialization only changes where refinement reads raw values
	// from, not how many it reads, so the 1-shard baseline skips the copy.
	single, err := messi.Build(coll, core.Config{}, messi.Options{DisableLeafRaw: true})
	if err != nil {
		return err
	}
	defer single.Close()
	return l.rawOverSingle(queries, n, raw, func(q series.Series) (work, error) {
		_, st, err := single.Search(q, 0)
		return workOf(st), err
	})
}

// The ingest phase: an open-loop writer appends a fixed stream and deletes
// older positions beside a closed-loop 1-NN reader, so the delta scan,
// background merges on the shared pool, tombstones and snapshot swaps all
// run. With background merges the reader's latency moved by about 25%
// between runs of different seeds, too much for an end-to-end bound, so the
// phase runs only in mem-exact's traced run and reports the ingest layer's
// own numbers.
const (
	ingestBase     = 100_000
	appendRate     = 1000.0 // writer operations per second
	deleteEvery    = 10     // every tenth writer operation deletes
	deleteStride   = 7919   // prime, so the deleted positions are distinct
	mergeThreshold = 1024   // a background merge about every second
	flushProbe     = 512    // appended series a timed Flush merges
)

// ingestObs is one checked reader query and the writer progress around it.
type ingestObs struct {
	q        series.Series
	got      dsidx.Match
	observed int
	c1, c2   int // deletes finished before the query; started by its end
}

// ingestPhase runs the writer beside the reader for d and records the
// messi ingest and append-latency metrics; every reader answer it samples
// is checked against the serial scan of exactly the prefix it observed.
func ingestPhase(c runConfig, r *report, d time.Duration) error {
	// The writer runs while the reader does, at most maxStretch·d; two
	// seconds more cover the last reader query.
	ops := int(appendRate * (maxStretch*d.Seconds() + 2))
	streamLen := ops + flushProbe
	// The base and the appended stream are one collection, so the serial
	// scan of any observed prefix is a scan of a prefix of it.
	all := randomWalks(c.seed, streamAppend, ingestBase+streamLen)
	base := all.Slice(0, ingestBase)
	queries := queryPool(c.seed, base, poolSize)
	delAt := make([]int, ingestBase) // delete index of each base position, or MaxInt
	for p := range delAt {
		delAt[p] = math.MaxInt
	}
	off := rng(c.seed, streamPick, 3).IntN(ingestBase)
	var delPos []int
	for k := range ops/deleteEvery + 1 {
		p := (k*deleteStride + off) % ingestBase
		delPos = append(delPos, p)
		delAt[p] = k
	}
	// dead(n) reports the positions the first n deletes removed.
	dead := func(n int) func(int) bool {
		return func(p int) bool { return p < ingestBase && delAt[p] < n }
	}

	ix, err := dsidx.NewMESSI(base, dsidx.WithMergeThreshold(mergeThreshold))
	if err != nil {
		return err
	}
	defer ix.Close()

	var appended, delStarted, delDone atomic.Int64
	var obs []ingestObs
	stop := make(chan struct{})
	var writer loopResult
	var lag []time.Duration
	var pending []float64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		writer, lag = openLoop(appendRate, stop, func(k int) error {
			if k >= ops {
				return fmt.Errorf("writer outran its %d-operation stream", ops)
			}
			if k%deleteEvery == deleteEvery-1 {
				dk := k / deleteEvery
				delStarted.Store(int64(dk + 1))
				_, err := ix.Delete(delPos[dk])
				delDone.Store(int64(dk + 1))
				return err
			}
			a := int(appended.Load())
			pos, err := ix.Append(all.At(ingestBase + a))
			if err == nil && pos != ingestBase+a {
				err = fmt.Errorf("append %d landed at %d, want %d", a, pos, ingestBase+a)
			}
			appended.Store(int64(a + 1))
			return err
		})
	}()
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				pending = append(pending, float64(ix.IngestStats().Pending))
			}
		}
	}()
	before := ix.IngestStats()
	reader := closedLoop(d, 0, 0, func(i int) error {
		q := queries[i%len(queries)]
		if a := int(appended.Load()); !isFar(i) && a > 0 {
			// Near a recently appended series, so the delta scan finds it.
			q = perturb(rng(c.seed, streamNear, uint64(i)), all.At(ingestBase+a-1-(i/2)%8%a), tightEps)
		}
		c1 := int(delDone.Load())
		ms, st, err := ix.BatchSearchStats([]dsidx.Series{q})
		if err != nil {
			return err
		}
		if i%8 == 0 && len(obs) < 4*checkSamples {
			obs = append(obs, ingestObs{q, ms[0], st[0].Observed, c1, int(delStarted.Load())})
		}
		return nil
	})
	close(stop)
	wg.Wait()
	after := ix.IngestStats()
	r.count(reader)
	r.count(writer)
	for _, o := range obs {
		if !checkObserved(all, o, dead) {
			r.wrong++
		}
	}

	var appendLat []float64
	for k, d := range writer.lat {
		if k%deleteEvery != deleteEvery-1 {
			appendLat = append(appendLat, us(d))
		}
	}
	p50, err := percentile(appendLat, 0.5)
	if err != nil {
		return fmt.Errorf("append latency: %w", err)
	}
	p99, err := percentile(appendLat, 0.99)
	if err != nil {
		return fmt.Errorf("append latency: %w", err)
	}
	lagP99, err := percentile(inMs(lag), 0.99)
	if err != nil {
		return fmt.Errorf("generator lag: %w", err)
	}
	r.set("ingest.append_p50_us", p50)
	r.set("ingest.append_p99_us", p99)
	r.set("driver.lag_ms", lagP99)
	r.set("messi.merges", float64(after.Merges-before.Merges))
	r.set("messi.pending_mean", mean(pending))
	r.set("messi.tombstoned", float64(after.Tombstoned))

	// merge_s: one synchronous merge of a fixed delta, below the
	// background threshold so only Flush merges it.
	ix.Flush()
	a := int(appended.Load())
	if a+flushProbe > streamLen {
		return fmt.Errorf("append stream too short for the merge probe")
	}
	for k := range flushProbe {
		if _, err := ix.Append(all.At(ingestBase + a + k)); err != nil {
			return err
		}
	}
	t0 := time.Now()
	ix.Flush()
	r.set("messi.merge_s", time.Since(t0).Seconds())
	return nil
}

// checkObserved verifies one reader answer under concurrent deletes.
// all[0, o.observed) is exactly the prefix the query saw; deletes are the
// only movement left. When none moved during the query, the answer must be
// bit-identical to the serial scan of that state. Otherwise it must be
// valid (observed, not deleted before the query began, its distance the
// kernel's) and minimal (no series live for the whole query beats it).
func checkObserved(all *series.Collection, o ingestObs, dead func(int) func(int) bool) bool {
	prefix := all.Slice(0, o.observed)
	if o.c1 == o.c2 {
		want := ucr.ScanLive(prefix, o.q, 0, dead(o.c1))
		return o.got == dsidx.Match{Pos: int(want.Pos), Distance: math.Sqrt(want.Dist)}
	}
	p := o.got.Pos
	if p < 0 || p >= o.observed || dead(o.c1)(p) {
		return false
	}
	if math.Sqrt(vector.SquaredEDEarlyAbandon(o.q, all.At(p), math.Inf(1))) != o.got.Distance {
		return false
	}
	best := ucr.ScanLive(prefix, o.q, 0, dead(o.c2))
	return math.Sqrt(best.Dist) >= o.got.Distance
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}

// coldRung replays near queries on an all-cold twin of a workload's data:
// 4 shards behind a block cache 1/8 of the data on the unthrottled device,
// so time measures the program's read path and not the device model. It
// records the storage.* counters over the replay, after a warm-up that
// fills the cache, and checks a few answers against the serial scan. The
// storage layer is measured here, not in a workload of its own: the
// latency of an all-cold workload moved by 20-35% between runs of different
// seeds, too much for an end-to-end bound.
func coldRung(l *ladder, coll *series.Collection, queries []series.Series) error {
	const shards, warmN, n, checkN = 4, 32, 96, 4
	ix, err := shard.Build(coll, core.Config{}, shard.Options{
		Shards: shards,
		ColdStorage: &shard.ColdStorage{
			Profile:    storage.Unthrottled,
			CacheBytes: int64(coll.Len() * seriesLen * 4 / 8),
		},
	})
	if err != nil {
		return err
	}
	defer ix.Close()
	for i := range warmN {
		if _, _, err := ix.Search(queries[len(queries)-1-i], 0); err != nil {
			return err
		}
	}
	before := ix.ColdStats()
	var raw int
	for i, q := range queries[:n] {
		var res core.Result
		var st *messi.QueryStats
		l.tr.timed("cold.search", int64(i), 0, func() { res, st, err = ix.Search(q, 0) })
		if err != nil {
			return err
		}
		raw += st.RawDistances
		m := dsidx.Match{Pos: int(res.Pos), Distance: math.Sqrt(res.Dist)}
		if i < checkN && wrongAnswer(coll, dsidx.QueryRequest{Query: q}, []dsidx.Match{m}) {
			l.r.wrong++
		}
	}
	after := ix.ColdStats()
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	bytes := float64(after.Device.BytesRead - before.Device.BytesRead)
	l.r.set("storage.cache_hit_rate", ratio(hits, hits+misses))
	l.r.set("storage.device_reads_per_query", float64(after.Device.ReadOps-before.Device.ReadOps)/n)
	l.r.set("storage.device_bytes_per_query", bytes/n)
	l.r.set("storage.bytes_per_raw_distance", ratio(bytes, float64(raw)))
	l.r.set("storage.evictions_per_query", float64(after.Cache.Evictions-before.Cache.Evictions)/n)
	return nil
}
