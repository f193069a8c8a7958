package messi

import (
	"cmp"
	"math"
	"slices"

	"dsidx/internal/core"
)

// candidate is a leaf that survived tree pruning, with its lower-bound
// distance to the query.
type candidate struct {
	bound float64
	leaf  *core.Node
}

// sortByBound sorts c by ascending bound in place, scattering through
// spare, and returns spare (grown to len(c) if it was shorter). Bounds are
// sums of squared gaps, never negative or -0, so their IEEE bits order
// like their values: an LSD radix sort on the high 32 bits (sign, exponent
// and 20 mantissa bits), four byte-wide passes ending back in c, orders
// them up to ties in those bits, and a comparison sort of each tied group
// finishes the job. On the thousands of candidates of a far query this is
// several times faster than one comparison sort.
func sortByBound(c, spare []candidate) []candidate {
	if len(c) < 2 {
		return spare
	}
	spare = slices.Grow(spare[:0], len(c))[:len(c)]
	high := func(x candidate) uint32 { return uint32(math.Float64bits(x.bound) >> 32) }
	var hist [4][256]int
	for _, x := range c {
		k := high(x)
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
	}
	src, dst := c, spare
	for d := range hist {
		h, sum := &hist[d], 0
		for i, n := range h {
			h[i], sum = sum, sum+n
		}
		for _, x := range src {
			b := byte(high(x) >> (8 * d))
			dst[h[b]] = x
			h[b]++
		}
		src, dst = dst, src
	}
	for lo := 0; lo < len(c); {
		hi := lo + 1
		for hi < len(c) && high(c[hi]) == high(c[lo]) {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(c[lo:hi], func(a, b candidate) int { return cmp.Compare(a.bound, b.bound) })
		}
		lo = hi
	}
	return spare
}
