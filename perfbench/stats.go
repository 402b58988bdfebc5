package main

import (
	"math"
	"sort"
)

// tailLadder holds the percentiles a tail may be read at, highest first.
// A fixed ladder keeps the reported percentile stable from run to run:
// it changes only when the sample count crosses 1000, 200, 100 or 20.
var tailLadder = []float64{99.9, 99, 95, 90, 50}

// tailPercentile returns the highest ladder percentile with at least ten
// samples beyond it.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(100-q)/100 >= 10 {
			return q
		}
	}
	return 50
}

// percentile returns the q-th percentile of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
