package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4),
// the definition tools reading the report use.
func TestSummarize(t *testing.T) {
	cases := []struct {
		in   []float64
		want summary
	}{
		{[]float64{5}, summary{Median: 5, Q1: 5, Q3: 5, Min: 5, Max: 5, N: 1}},
		{[]float64{2, 1}, summary{Median: 1.5, Q1: 0.75, Q3: 2.25, Min: 1, Max: 2, N: 2}},
		{[]float64{4, 1, 3, 2}, summary{Median: 2.5, Q1: 1.25, Q3: 3.75, Min: 1, Max: 4, N: 4}},
		{[]float64{3, 1, 2}, summary{Median: 2, Q1: 1, Q3: 3, Min: 1, Max: 3, N: 3}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, summary{Median: 5.5, Q1: 2.75, Q3: 8.25, Min: 1, Max: 10, N: 10}},
	}
	for _, c := range cases {
		got := summarize(c.in)
		if got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
	if got := summarize(nil); got.N != 0 {
		t.Errorf("summarize(nil).N = %d, want 0", got.N)
	}
	if got := medianOf(nil); !math.IsNaN(got) {
		t.Errorf("medianOf(nil) = %v, want NaN", got)
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("summarize reordered its input: %v", in)
	}
}

func TestSpread(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2})
	if got, want := s.spread(), (3.75-1.25)/2.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
