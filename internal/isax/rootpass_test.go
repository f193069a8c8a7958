package isax_test

import (
	"math"
	"math/rand"
	"testing"

	"dsidx/internal/isax"
)

// regionTable is the reference form of a query table: every cell computed
// through Quantizer.Region, one call per (segment, symbol), with the
// envelope bounds up/low (equal for a Euclidean query).
func regionTable(q *isax.Quantizer, up, low []float64, n int) []float64 {
	bits := q.MaxBitsValue()
	card := 1 << bits
	ratio := float64(n) / float64(len(up))
	cells := make([]float64, len(up)*card)
	for j := range up {
		for s := 0; s < card; s++ {
			lo, hi := q.Region(uint8(s), bits)
			switch {
			case up[j] < lo:
				d := lo - up[j]
				cells[j*card+s] = d * d * ratio
			case low[j] > hi:
				d := low[j] - hi
				cells[j*card+s] = d * d * ratio
			}
		}
	}
	return cells
}

// specialPAA returns PAA coefficients mixing normal draws, values exactly
// on breakpoints and ±Inf.
func specialPAA(rng *rand.Rand, q *isax.Quantizer, segments int) []float64 {
	bp := q.Breakpoints(q.MaxBitsValue())
	out := make([]float64, segments)
	for j := range out {
		switch rng.Intn(5) {
		case 0:
			out[j] = bp[rng.Intn(len(bp))]
		case 1:
			out[j] = math.Inf(1 - 2*rng.Intn(2))
		default:
			out[j] = rng.NormFloat64() * 1.5
		}
	}
	return out
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestFillMatchesRegionFormula pins FillED and FillDTW, which read the
// breakpoints directly, bit for bit to the per-cell Region formula.
func TestFillMatchesRegionFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, bits := range []int{1, 3, 8} {
		q, err := isax.NewQuantizer(bits)
		if err != nil {
			t.Fatal(err)
		}
		table := &isax.QueryTable{}
		for trial := 0; trial < 50; trial++ {
			segments := 1 + rng.Intn(16)
			n := segments * (1 + rng.Intn(32))
			a, b := specialPAA(rng, q, segments), specialPAA(rng, q, segments)
			table.FillED(q, a, n)
			if i := sameBits(table.Cells(), regionTable(q, a, a, n)); i >= 0 {
				t.Fatalf("bits %d: ED cell %d differs from the Region formula (paa %v)", bits, i, a)
			}
			up, low := make([]float64, segments), make([]float64, segments)
			for j := range up {
				up[j], low[j] = max(a[j], b[j]), min(a[j], b[j])
			}
			table.FillDTW(q, up, low, n)
			if i := sameBits(table.Cells(), regionTable(q, up, low, n)); i >= 0 {
				t.Fatalf("bits %d: DTW cell %d differs from the Region formula (up %v low %v)", bits, i, up, low)
			}
		}
	}
}

// checkRootBounds checks every root key of a segments-wide table: the
// finished root-pass bound equals DistWord of the key's root word bit for
// bit, and the prefix never exceeds it.
func checkRootBounds(t *testing.T, mt *isax.MultiTable, segments int) {
	t.Helper()
	for key := uint32(0); key < 1<<segments; key++ {
		pre := mt.RootPrefix(key)
		got := mt.RootFinish(key, pre)
		want := mt.DistWord(isax.RootWordFromKey(key, segments))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("w=%d key %#x: root-pass bound %v, DistWord %v", segments, key, got, want)
		}
		if !(pre <= got) {
			t.Fatalf("w=%d key %#x: prefix %v above bound %v", segments, key, pre, got)
		}
	}
}

// TestRootBoundsExhaustive runs checkRootBounds over every key at each
// segment count the prefix table handles differently: wider than the
// prefix (16), exactly the prefix (8), narrower (5) and a single segment.
func TestRootBoundsExhaustive(t *testing.T) {
	q, err := isax.NewQuantizer(isax.MaxBits)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for _, segments := range []int{16, 8, 5, 1} {
		for trial := 0; trial < 3; trial++ {
			n := 16 * segments
			a, b := specialPAA(rng, q, segments), specialPAA(rng, q, segments)
			if trial == 0 {
				// A plain query too: no infinite cells anywhere.
				for j := range a {
					a[j], b[j] = rng.NormFloat64(), rng.NormFloat64()
				}
			}
			checkRootBounds(t, isax.NewMultiTable(q, isax.NewQueryTable(q, a, n)), segments)
			up, low := make([]float64, segments), make([]float64, segments)
			for j := range up {
				up[j], low[j] = max(a[j], b[j]), min(a[j], b[j])
			}
			checkRootBounds(t, isax.NewMultiTable(q, isax.NewDTWQueryTable(q, up, low, n)), segments)
		}
	}
}
