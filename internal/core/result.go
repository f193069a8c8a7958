package core

import "math"

// Result is a similarity search answer shared by every index and baseline:
// the position of the matching series in the collection/file and its
// squared distance (ED or DTW, depending on the search) to the query.
type Result struct {
	Pos  int32
	Dist float64
}

// NoResult is the answer for empty datasets.
func NoResult() Result { return Result{Pos: -1, Dist: math.Inf(1)} }

// First returns the best of rs (results come in ascending distance order),
// or NoResult — the (-1, +Inf) sentinel — when rs is empty.
func First(rs []Result) Result {
	if len(rs) == 0 {
		return NoResult()
	}
	return rs[0]
}

// Better reports whether r improves on other.
func (r Result) Better(other Result) bool { return r.Dist < other.Dist }
