package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"dsidx"
	"dsidx/internal/core"
	"dsidx/internal/messi"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := make([]float64, 999)
	for i := range samples {
		samples[i] = float64(len(samples) - i) // unsorted on purpose
	}
	if _, err := percentile(samples, 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted; only 9 lie beyond it")
	}
	samples = append(samples, 1000)
	p99, err := percentile(samples, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	if p99 != 990 {
		t.Errorf("p99 of 1..1000 = %v, want the nearest-rank 990", p99)
	}
	if p50, _ := percentile(samples, 0.5); p50 != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", p50)
	}
	if _, err := percentile(samples[:15], 0.5); err == nil {
		t.Error("p50 of 15 samples accepted; only 7 lie beyond it")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// Ops are due every millisecond but each takes 3: the generator falls
	// further behind with every op, and each op's latency must include the
	// time it waited past its due time, not only its own 3 ms.
	const work = 3 * time.Millisecond
	stop := make(chan struct{})
	r, lag := openLoop(1000, stop, func(k int) error {
		time.Sleep(work)
		if k == 19 {
			close(stop)
		}
		return nil
	})
	if r.attempted != 20 || len(r.lat) != 20 || len(lag) != 20 {
		t.Fatalf("attempted %d, %d latencies, %d lags; want 20 each", r.attempted, len(r.lat), len(lag))
	}
	for k := range r.lat {
		if r.lat[k] < lag[k]+work {
			t.Errorf("op %d: latency %v is less than its lag %v plus its own %v", k, r.lat[k], lag[k], work)
		}
	}
	// Op k starts no earlier than 3k ms in but is due at k ms.
	if lag[19] < 19*2*time.Millisecond {
		t.Errorf("lag of op 19 is %v, want at least 38ms", lag[19])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: the union counts once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 5, Parent: 3, Start: 25, End: 35},
		{ID: 6, Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 60}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	tr := newTracer()
	root := tr.start("replay", 7, 0)
	tr.timed("index", 7, root.id(), func() { time.Sleep(time.Millisecond) })
	root.end()
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.spans))
	}
	r, c := tr.spans[0], tr.spans[1]
	if c.Parent != r.ID || c.Req != 7 || r.Req != 7 || c.Start < r.Start || c.End > r.End {
		t.Errorf("child %+v not nested in root %+v", c, r)
	}
	var off *tracer
	if d := off.timed("x", 0, 0, func() {}); d < 0 || off.start("x", 0, 0) != nil {
		t.Error("a nil tracer must only time, never record")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := randomWalks(7, streamBase, 300), randomWalks(7, streamBase, 300)
	if !slices.Equal(a.Values(), b.Values()) {
		t.Fatal("same seed gave different collections")
	}
	if c := randomWalks(8, streamBase, 300); slices.Equal(a.Values(), c.Values()) {
		t.Fatal("different seeds gave the same collection")
	}
	qa, qb := queryPool(7, a, 40), queryPool(7, b, 40)
	for i := range qa {
		if !slices.Equal(qa[i], qb[i]) {
			t.Fatalf("same seed gave a different query %d", i)
		}
	}
}

func TestSameSeedSameCountsAtOneWorker(t *testing.T) {
	counts := func() []messi.QueryStats {
		coll := randomWalks(3, streamBase, 4000)
		ix, err := messi.Build(coll, core.Config{}, messi.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		var out []messi.QueryStats
		for _, q := range queryPool(3, coll, 24) {
			_, st, err := ix.Search(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *st)
		}
		return out
	}
	a, b := counts(), counts()
	for i := range a {
		if a[i].EntriesChecked != b[i].EntriesChecked || a[i].RawDistances != b[i].RawDistances ||
			a[i].LeavesPopped != b[i].LeavesPopped || a[i].LeavesInserted != b[i].LeavesInserted {
			t.Errorf("query %d: counts %+v then %+v", i, a[i], b[i])
		}
	}
}

func TestCorruptedAnswerCountsAsWrong(t *testing.T) {
	coll := randomWalks(5, streamBase, 2000)
	q := nearPool(5, coll, 1)[0]
	for _, req := range []dsidx.QueryRequest{
		{Query: q},
		{Query: q, Kind: dsidx.QueryKNN, K: 3},
		{Query: q, Kind: dsidx.QueryDTW, Window: dtwWindow},
	} {
		var right []dsidx.Match
		switch req.Kind {
		case dsidx.QueryKNN:
			right = dsidx.ScanKNN(coll, q, req.K)
		case dsidx.QueryDTW:
			right = []dsidx.Match{dsidx.ScanNearestDTW(coll, q, req.Window)}
		default:
			right = []dsidx.Match{dsidx.ScanNearest(coll, q)}
		}
		if wrongAnswer(coll, req, right) {
			t.Errorf("kind %d: the scan's own answer counted as wrong", req.Kind)
		}
		for _, corrupt := range []func([]dsidx.Match){
			func(m []dsidx.Match) { m[0].Pos = (m[0].Pos + 1) % coll.Len() },
			func(m []dsidx.Match) { m[len(m)-1].Distance = math.Nextafter(m[len(m)-1].Distance, 0) },
		} {
			bad := slices.Clone(right)
			corrupt(bad)
			if !wrongAnswer(coll, req, bad) {
				t.Errorf("kind %d: corrupted answer %v accepted", req.Kind, bad)
			}
		}
		if !wrongAnswer(coll, req, right[:len(right)-1]) {
			t.Errorf("kind %d: truncated answer accepted", req.Kind)
		}
	}

	r := newReport()
	r.attempted, r.wrong = 10, 1
	for _, d := range endToEnd {
		r.set(d.name, 1)
	}
	out, err := r.output(endToEnd, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != 1 {
		t.Errorf("a wrong answer reported as correct=%v failed=%d", out.Correct, out.Failed)
	}
}

func TestCheckObservedUnderDeletes(t *testing.T) {
	all := randomWalks(9, streamBase, 600)
	const observed = 500
	// Position 40 is deleted first, position 41 second.
	dead := func(n int) func(int) bool {
		return func(p int) bool { return (p == 40 && n > 0) || (p == 41 && n > 1) }
	}
	q := perturb(rng(9, streamNear, 0), all.At(41), nearEps)
	answer := dsidx.ScanNearest(all.Slice(0, observed), q)
	if answer.Pos != 41 {
		t.Fatalf("near query's neighbour is %d, want 41", answer.Pos)
	}
	live := ingestObs{q: q, got: answer, observed: observed, c1: 0, c2: 0}
	if !checkObserved(all, live, dead) {
		t.Error("the quiescent scan answer was rejected")
	}
	// A delete of 41 raced the query: answering 41 is still valid.
	racing := ingestObs{q: q, got: answer, observed: observed, c1: 1, c2: 2}
	if !checkObserved(all, racing, dead) {
		t.Error("an answer deleted during the query was rejected")
	}
	// Deleted before the query began: 41 must not be returned.
	stale := ingestObs{q: q, got: answer, observed: observed, c1: 2, c2: 2}
	if checkObserved(all, stale, dead) {
		t.Error("an answer deleted before the query began was accepted")
	}
	for _, bad := range []dsidx.Match{
		{Pos: 7, Distance: answer.Distance},
		{Pos: 41, Distance: math.Nextafter(answer.Distance, 0)},
		{Pos: observed + 1, Distance: answer.Distance},
	} {
		if checkObserved(all, ingestObs{q: q, got: bad, observed: observed, c1: 1, c2: 2}, dead) {
			t.Errorf("corrupted answer %+v accepted", bad)
		}
	}
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range file.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %q, program has %q", names, want)
	}
	for _, c := range []struct {
		file []def
		defs []metricDef
	}{{file.EndToEnd, endToEnd}, {file.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(c.file), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if f := c.file[i]; f != (def{d.name, d.unit, d.better}) {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, f, d)
			}
		}
	}
}
