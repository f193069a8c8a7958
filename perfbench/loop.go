package main

import (
	"context"
	"time"

	"dsidx"
)

// loopResult is what one measured phase of a load generator observed.
type loopResult struct {
	lat       []time.Duration // per completed operation
	attempted int
	failed    int
	elapsed   time.Duration
}

// maxStretch bounds how far past its window a loop may run to collect the
// samples its highest percentile needs.
const maxStretch = 3

// closedLoop is one client that issues op(i) for i = first, first+1, ...
// and waits for each before the next, until d has passed and at least
// minSamples operations completed (or maxStretch·d has passed). A failed
// operation counts as attempted and failed and adds no latency sample.
func closedLoop(d time.Duration, minSamples, first int, op func(i int) error) loopResult {
	var r loopResult
	t0 := time.Now()
	for i := first; ; i++ {
		el := time.Since(t0)
		if (el >= d && len(r.lat) >= minSamples) || el >= maxStretch*d {
			break
		}
		s := time.Now()
		err := op(i)
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		r.lat = append(r.lat, time.Since(s))
	}
	r.elapsed = time.Since(t0)
	return r
}

// openLoop issues op(k) at a fixed rate regardless of completions: op k is
// due at start + k/rate. Latency runs from the due time to op's return, so
// a stall also delays every operation due behind it; lag is how late the
// generator actually called op. Unlike the closed loops, r.lat[k] is op k's
// latency whether it failed or not, so callers can split it by operation
// kind. It stops at the first due time at or after stop is closed.
func openLoop(rate float64, stop <-chan struct{}, op func(k int) error) (r loopResult, lag []time.Duration) {
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				r.elapsed = time.Since(start)
				return r, lag
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				r.elapsed = time.Since(start)
				return r, lag
			default:
			}
		}
		lag = append(lag, time.Since(due))
		err := op(k)
		r.lat = append(r.lat, time.Since(due))
		r.attempted++
		if err != nil {
			r.failed++
		}
	}
}

// serveLoop is one driver goroutine that keeps window requests outstanding
// on a Serve stream: it sends request i = first, first+1, ... and sends the
// next as each response arrives, until d has passed and minSamples
// responses completed (or maxStretch·d). Latency runs from the send to the
// response. done sees every response with the index of its request.
func serveLoop(serve func(context.Context, <-chan dsidx.QueryRequest) <-chan dsidx.QueryResponse,
	window int, d time.Duration, minSamples, first int,
	req func(i int) dsidx.QueryRequest, done func(i int, resp dsidx.QueryResponse) error) loopResult {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan dsidx.QueryRequest)
	out := serve(ctx, in)
	sent := make(map[int64]time.Time, window)
	var r loopResult
	next := first
	send := func() {
		q := req(next)
		q.ID = int64(next)
		sent[q.ID] = time.Now()
		in <- q
		next++
	}
	t0 := time.Now()
	for range window {
		send()
	}
	for len(sent) > 0 {
		resp := <-out
		lat := time.Since(sent[resp.ID])
		delete(sent, resp.ID)
		r.attempted++
		if err := done(int(resp.ID), resp); err != nil {
			r.failed++
		} else {
			r.lat = append(r.lat, lat)
		}
		el := time.Since(t0)
		if !((el >= d && len(r.lat) >= minSamples) || el >= maxStretch*d) {
			send()
		}
	}
	r.elapsed = time.Since(t0)
	close(in)
	for range out { // Serve closes out once its consumers exit
	}
	return r
}
