package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric over a run's repetitions.
type summary struct {
	Median, Q1, Q3, Min, Max float64
	N                        int
}

// summarize sorts a copy of xs and returns its median, quartiles and
// extremes. The quartiles follow Python's statistics.quantiles(n=4) in
// its default exclusive method, so spreads computed here and by tools
// reading the report agree. An empty input gives N == 0 and zeros.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return summary{Median: median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// median returns the middle of sorted s (the mean of the two middle
// values for an even count).
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of sorted s by the
// exclusive method: position i(n+1)/4, clamped to [1, n-1], with linear
// interpolation between neighbours. One value is its own quartiles.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// medianOf is the median of unsorted xs, NaN when empty.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return summarize(xs).Median
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
