package isax

import (
	"fmt"
	"math"

	"dsidx/internal/vector"
)

// This file implements the lower-bounding distances between a query and iSAX
// summaries. The guarantee chain (property-tested across packages) is
//
//	MinDist(PAA(q), iSAX(s)) <= (n/w)·ED²(PAA(q), PAA(s)) <= ED²(q, s)
//
// so pruning on MinDist never discards the true nearest neighbor.

// MinDist returns the squared lower-bounding distance between the query's
// PAA coefficients and an iSAX word, for original series length n. For each
// segment, the distance contribution is the gap between the coefficient and
// the word's value region (zero if the coefficient falls inside the region).
func MinDist(q *Quantizer, paaCoeffs []float64, w Word, n int) float64 {
	if len(paaCoeffs) != len(w.Symbols) {
		panic(fmt.Sprintf("isax: MinDist segment mismatch %d != %d", len(paaCoeffs), len(w.Symbols)))
	}
	ratio := float64(n) / float64(len(paaCoeffs))
	var acc float64
	for j, v := range paaCoeffs {
		lo, hi := q.Region(w.Symbols[j], int(w.Bits[j]))
		switch {
		case v < lo:
			d := lo - v
			acc += d * d
		case v > hi:
			d := v - hi
			acc += d * d
		}
	}
	return acc * ratio
}

// QueryTable is a per-query lookup table for lower-bound scans over
// full-cardinality summaries (the SAX array of ParIS, paper Figure 2).
// cell[j][s] holds the ready-scaled squared distance contribution of segment
// j when the candidate's symbol is s, so the bound for one series is the sum
// of w table lookups — this is the memory-access pattern the paper
// accelerates with SIMD.
type QueryTable struct {
	segments int
	cells    []float64 // segments × 2^maxBits, row-major
	card     int
}

// NewQueryTable precomputes the lookup table for the given query PAA
// coefficients and original series length n.
func NewQueryTable(q *Quantizer, paaCoeffs []float64, n int) *QueryTable {
	t := &QueryTable{}
	t.FillED(q, paaCoeffs, n)
	return t
}

// FillED recomputes the table in place for a new query, reusing the cell
// array when the shape matches — the table is ~w·2^maxBits float64s (32KB at
// the defaults), so pooled scratch tables keep sustained query rates off the
// allocator.
func (t *QueryTable) FillED(q *Quantizer, paaCoeffs []float64, n int) {
	segs := len(paaCoeffs)
	card := 1 << q.maxBits
	t.reshape(segs, card)
	ratio := float64(n) / float64(segs)
	bp := q.bp[q.maxBits-1]
	for j, v := range paaCoeffs {
		fillRow(t.cells[j*card:(j+1)*card], bp, v, v, ratio)
	}
}

// fillRow writes one segment's contributions for every full-cardinality
// symbol: the squared, ratio-scaled gap between the region [lo, hi) of
// symbol s and the query interval [low, up] (a point for ED, the envelope
// PAA bounds for DTW), zero when they overlap. The regions are read
// straight off the sorted breakpoints bp — region s is [bp[s-1], bp[s])
// with ±Inf at the ends, exactly what Quantizer.Region returns — so the
// cells are bit-identical to the per-symbol Region formula without its
// per-call range checks.
func fillRow(row, bp []float64, up, low, ratio float64) {
	last := len(row) - 1
	lo := math.Inf(-1)
	for s, hi := range bp[:last] {
		row[s] = gap(lo, hi, up, low, ratio)
		lo = hi
	}
	row[last] = gap(lo, math.Inf(1), up, low, ratio)
}

// gap is one cell of fillRow: the contribution of region [lo, hi).
func gap(lo, hi, up, low, ratio float64) float64 {
	switch {
	case up < lo:
		d := lo - up
		return d * d * ratio
	case low > hi:
		d := low - hi
		return d * d * ratio
	}
	return 0
}

// reshape sizes the cell array for segs × card entries, reallocating only on
// growth or shape change.
func (t *QueryTable) reshape(segs, card int) {
	t.segments, t.card = segs, card
	if cap(t.cells) >= segs*card {
		t.cells = t.cells[:segs*card]
	} else {
		t.cells = make([]float64, segs*card)
	}
}

// Cells exposes the row-major lookup table (segments × cardinality) for
// batched kernels in internal/vector. The slice must not be modified.
func (t *QueryTable) Cells() []float64 { return t.cells }

// Card returns the cardinality of the table — the row stride of Cells,
// which batched kernels need alongside the cell array.
func (t *QueryTable) Card() int { return t.card }

// MinDistSAX returns the lower-bounding distance between the query
// underlying t and one full-cardinality summary. At w = 16 (the paper's
// configuration) it delegates to the vector kernel, so per-entry and
// batched scans produce bit-identical bounds by construction, whichever
// implementation dispatch selects.
func (t *QueryTable) MinDistSAX(fullSAX []uint8) float64 {
	if len(fullSAX) == 16 && t.segments == 16 {
		return vector.MinDistLookup16(t.cells, fullSAX, t.card)
	}
	var acc float64
	cells, card := t.cells, t.card
	for j, s := range fullSAX {
		acc += cells[j*card+int(s)]
	}
	return acc
}

// MinDistSAXStrided computes lower bounds for a batch of summaries laid out
// back-to-back in sax (stride = segments), writing one bound per summary
// into out. Separating the batched form lets internal/vector provide an
// unrolled implementation with identical semantics.
func (t *QueryTable) MinDistSAXStrided(sax []uint8, out []float64) {
	w := t.segments
	if len(sax) != len(out)*w {
		panic(fmt.Sprintf("isax: strided batch mismatch: %d summaries of %d segments vs %d bounds",
			len(sax)/w, w, len(out)))
	}
	vector.MinDistBatch(t.cells, sax, w, t.card, out)
}

// MinDistDTW returns a DTW-valid lower bound between a query envelope's PAA
// bounds and an iSAX word. For DTW queries (paper §V) the query is replaced
// by its warping envelope: a segment contributes distance only if the word's
// region lies entirely above the envelope-upper PAA or below the
// envelope-lower PAA. The bound is valid because every warping of the query
// stays inside the envelope.
func MinDistDTW(q *Quantizer, paaUpper, paaLower []float64, w Word, n int) float64 {
	if len(paaUpper) != len(w.Symbols) || len(paaLower) != len(w.Symbols) {
		panic("isax: MinDistDTW segment mismatch")
	}
	ratio := float64(n) / float64(len(paaUpper))
	var acc float64
	for j := range paaUpper {
		lo, hi := q.Region(w.Symbols[j], int(w.Bits[j]))
		switch {
		case paaUpper[j] < lo:
			d := lo - paaUpper[j]
			acc += d * d
		case paaLower[j] > hi:
			d := paaLower[j] - hi
			acc += d * d
		}
	}
	return acc * ratio
}

// NewDTWQueryTable precomputes a lookup table of per-segment DTW lower-bound
// contributions for a query envelope's PAA bounds (see MinDistDTW). The
// returned table's MinDistSAX then yields an envelope-based DTW lower bound
// for full-cardinality summaries, letting the DTW search reuse the same
// batched scan kernels as the Euclidean search (paper §V: DTW support with
// "no changes ... in the index structure").
func NewDTWQueryTable(q *Quantizer, paaUpper, paaLower []float64, n int) *QueryTable {
	t := &QueryTable{}
	t.FillDTW(q, paaUpper, paaLower, n)
	return t
}

// FillDTW recomputes the table in place for a new query envelope, reusing
// the cell array when the shape matches (see FillED).
func (t *QueryTable) FillDTW(q *Quantizer, paaUpper, paaLower []float64, n int) {
	if len(paaUpper) != len(paaLower) {
		panic("isax: NewDTWQueryTable envelope mismatch")
	}
	segs := len(paaUpper)
	card := 1 << q.maxBits
	t.reshape(segs, card)
	ratio := float64(n) / float64(segs)
	bp := q.bp[q.maxBits-1]
	for j := 0; j < segs; j++ {
		fillRow(t.cells[j*card:(j+1)*card], bp, paaUpper[j], paaLower[j], ratio)
	}
}

// MultiTable extends a QueryTable to every cardinality level: cell (j, s)
// at level b holds the minimum lower-bound contribution of segment j over
// all full-cardinality symbols whose b-bit prefix is s. A node-word lower
// bound then costs one lookup per segment regardless of the word's
// cardinalities — the precomputed-distance trick the C implementations use
// to make tree-level pruning as cheap as SAX-array scanning.
//
// Because each coarse cell is the minimum over its sub-region, the bound
// remains valid (≤ the true MinDist of the word, which is itself ≤ the true
// distance); it equals MinDist exactly, since the region distance of a
// union of adjacent regions is the minimum of the member distances.
type MultiTable struct {
	segments int
	maxBits  int
	// levels[b-1] holds segments × 2^b cells, row-major by segment.
	levels [][]float64
	// rootPre[p] is the in-order sum of the level-1 cells of the first
	// rootHead segments for the root-key prefix p (see RootPrefix).
	rootPre  [1 << rootPrefixBits]float64
	rootHead int
}

// rootPrefixBits is the number of leading segments the root-key prefix
// table covers (capped by the segment count): 2^8 entries, 2KB per table.
const rootPrefixBits = 8

// NewMultiTable derives per-cardinality tables from a base full-cardinality
// table (Euclidean or DTW — any per-symbol contribution table works).
func NewMultiTable(q *Quantizer, base *QueryTable) *MultiTable {
	mt := &MultiTable{}
	mt.FillFrom(q, base)
	return mt
}

// FillFrom rederives every cardinality level from the (re)filled base table,
// reusing each level's backing array when the shape matches. The
// full-cardinality level aliases base's cells rather than copying them.
func (mt *MultiTable) FillFrom(q *Quantizer, base *QueryTable) {
	maxBits := q.maxBits
	mt.segments = base.segments
	mt.maxBits = maxBits
	if len(mt.levels) != maxBits {
		mt.levels = make([][]float64, maxBits)
	}
	mt.levels[maxBits-1] = base.cells
	for b := maxBits - 1; b >= 1; b-- {
		card := 1 << b
		below := mt.levels[b] // level b+1 bits
		cells := mt.levels[b-1]
		if len(cells) != base.segments*card {
			cells = make([]float64, base.segments*card)
		}
		// Rows are card wide here and 2·card wide below, so cell i's two
		// sub-cells sit at 2i and 2i+1 of the level below.
		below = below[:2*len(cells)]
		for i := range cells {
			lo, hi := below[2*i], below[2*i+1]
			if hi < lo {
				lo = hi
			}
			cells[i] = lo
		}
		mt.levels[b-1] = cells
	}
	mt.fillRootPrefix()
}

// fillRootPrefix fills rootPre by doubling: the sums over the first j+1
// segments extend those over the first j by one cell each, so every entry
// is the left-to-right sum DistWord would accumulate for those segments.
func (mt *MultiTable) fillRootPrefix() {
	l1 := mt.levels[0]
	mt.rootHead = min(rootPrefixBits, mt.segments)
	pre := mt.rootPre[:1]
	pre[0] = 0
	for j := 0; j < mt.rootHead; j++ {
		n := len(pre)
		pre = mt.rootPre[:2*n]
		// Walk down so each prefix is read before its slot is overwritten.
		for p := n - 1; p >= 0; p-- {
			acc := pre[p]
			pre[2*p] = acc + l1[2*j]
			pre[2*p+1] = acc + l1[2*j+1]
		}
	}
}

// RootPrefix returns a lower bound on the root-subtree bound of key
// (a root key over the table's segment count, as isax.RootKey packs it):
// the left-to-right sum of the level-1 cells of its first
// min(rootPrefixBits, segments) segments. Every cell is ≥ 0 (or NaN, which
// propagates), and under round-to-nearest adding a non-negative value
// never lowers a sum, so RootPrefix(key) ≤ RootFinish(key, RootPrefix(key))
// always holds — a root whose prefix already reaches the pruning threshold
// can be skipped without finishing its bound.
func (mt *MultiTable) RootPrefix(key uint32) float64 {
	return mt.rootPre[key>>(mt.segments-mt.rootHead)]
}

// RootFinish adds the remaining segments' level-1 cells to prefix (the
// value RootPrefix returned for key), in segment order. The result is
// bit-identical to DistWord(RootWordFromKey(key, segments)): both are the
// same left-to-right sum of the same cells starting from zero.
func (mt *MultiTable) RootFinish(key uint32, prefix float64) float64 {
	l1 := mt.levels[0]
	acc := prefix
	for j := mt.rootHead; j < mt.segments; j++ {
		acc += l1[2*j+int(key>>(mt.segments-1-j)&1)]
	}
	return acc
}

// DistWord returns the lower bound between the table's query and a
// variable-cardinality word: one lookup per segment.
func (mt *MultiTable) DistWord(w Word) float64 {
	var acc float64
	for j, sym := range w.Symbols {
		bits := int(w.Bits[j])
		acc += mt.levels[bits-1][j<<bits+int(sym)]
	}
	return acc
}

// DistSAX returns the full-cardinality bound (equivalent to the base
// table's MinDistSAX — at w = 16 both delegate to the same vector kernel,
// keeping the equivalence bit-exact under either dispatch choice).
func (mt *MultiTable) DistSAX(fullSAX []uint8) float64 {
	cells := mt.levels[mt.maxBits-1]
	card := 1 << mt.maxBits
	if len(fullSAX) == 16 && mt.segments == 16 {
		return vector.MinDistLookup16(cells, fullSAX, card)
	}
	var acc float64
	for j, s := range fullSAX {
		acc += cells[j*card+int(s)]
	}
	return acc
}

// Inf is a convenience +Inf used by search loops.
var Inf = math.Inf(1)
