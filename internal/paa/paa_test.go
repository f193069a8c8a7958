package paa

import (
	"math"
	"math/rand"
	"testing"

	"dsidx/internal/series"
)

func randomSeries(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func TestTransformKnown(t *testing.T) {
	s := series.Series{1, 1, 2, 2, 3, 3, 4, 4}
	got := Transform(s, 4)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("coeff[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTransformSingleSegmentIsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randomSeries(rng, 64)
	got := Transform(s, 1)
	if math.Abs(got[0]-s.Mean()) > 1e-9 {
		t.Errorf("single segment PAA = %v, want mean %v", got[0], s.Mean())
	}
}

func TestTransformFullResolutionIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomSeries(rng, 16)
	got := Transform(s, 16)
	for i := range s {
		if math.Abs(got[i]-float64(s[i])) > 1e-6 {
			t.Errorf("coeff[%d] = %v, want %v", i, got[i], s[i])
		}
	}
}

func TestTransformPanicsOnBadShape(t *testing.T) {
	cases := []struct {
		n, w int
	}{{10, 3}, {0, 4}, {8, 0}, {4, 8}}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d w=%d: expected panic", tc.n, tc.w)
				}
			}()
			Transform(make(series.Series, tc.n), tc.w)
		}()
	}
}

func TestTransformIntoMatchesTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSeries(rng, 256)
	buf := make([]float64, 16)
	TransformInto(s, buf)
	want := Transform(s, 16)
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("TransformInto[%d] = %v, Transform = %v", i, buf[i], want[i])
		}
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		n, w int
		want bool
	}{{256, 16, true}, {128, 16, true}, {100, 16, false}, {0, 16, false}, {16, 0, false}, {8, 16, false}}
	for _, tc := range cases {
		if got := Valid(tc.n, tc.w); got != tc.want {
			t.Errorf("Valid(%d,%d) = %v, want %v", tc.n, tc.w, got, tc.want)
		}
	}
}
