package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a "p99" of 200 samples is the second-largest sample, not a
// p99, so the benchmark refuses it instead.
const minTail = 10

// minSamplesP99 is the smallest sample count that supports a p99.
const minSamplesP99 = 100 * minTail

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples. It
// refuses when fewer than minTail samples lie beyond the rank.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based
	rank = max(rank, 1)
	if n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			100*p, n, max(0, n-rank), minTail)
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[rank-1], nil
}

// median is the p50 of samples, for sets the caller knows are large
// enough; it reports NaN otherwise, which the report refuses to print.
func median(samples []float64) float64 {
	v, err := percentile(samples, 0.5)
	if err != nil {
		return math.NaN()
	}
	return v
}

// middle returns the middle element of a small set of repeated
// measurements (the lower one of an even count), with no tail requirement:
// it summarizes a handful of set-up repetitions, not a latency
// distribution.
func middle(samples []float64) float64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// inMs converts a slice of durations to milliseconds.
func inMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeap returns the live heap after forcing the garbage collector, so
// memory still reachable is all that remains counted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
