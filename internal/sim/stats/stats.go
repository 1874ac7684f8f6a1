// Package stats provides the small statistics toolkit used to summarize
// experiment outputs: moments, five-number box summaries (the paper's
// box-and-whiskers figures) and a ratio helper.
package stats

import (
	"math"
	"sort"
)

// Summary holds the moments and extremes of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	StdDev float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum, sumSq float64
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
		sumSq += x * x
	}
	s.Mean = sum / float64(s.N)
	variance := sumSq/float64(s.N) - s.Mean*s.Mean
	if variance > 0 {
		s.StdDev = math.Sqrt(variance)
	}
	return s
}

// Mean returns the arithmetic mean of xs (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentileSorted returns the p-th percentile (0 <= p <= 100) of an
// ascending sample using linear interpolation between closest ranks.
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Box is a five-number summary plus mean, the data behind one
// box-and-whiskers glyph in the paper's figures.
type Box struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
}

// BoxPlot computes the box summary of xs.
func BoxPlot(xs []float64) Box {
	if len(xs) == 0 {
		return Box{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Box{
		N:      len(sorted),
		Min:    sorted[0],
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(sorted),
	}
}

// Ratio returns a/b, or 0 if b == 0. Used for "X times more than Y" style
// observation statistics where the denominator can legitimately be zero
// (e.g. zero retention failures at short intervals).
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
