package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
)

// Histogram is a fixed-bucket distribution: observations are counted
// into buckets bounded by ascending upper limits, with one implicit
// +Inf overflow bucket. Like Counter and Gauge it is nil-safe and
// allocation-free on the observe path — a binary search over a small
// fixed slice and an increment — so packet-latency observation can sit
// directly on the delivery path.
type Histogram struct {
	name   string
	keys   []string // label keys, and their values in values
	values []string
	uppers []float64 // ascending bucket upper bounds
	counts []int64   // len(uppers)+1; last is the +Inf overflow bucket
	sum    float64
	n      int64

	// refresh, when set (HistogramView), recomputes the state from the
	// view's backing data just before any read. Views exist for sharded
	// simulations: each shard observes into its own accumulator and the
	// refresh hook merges them with an order-independent reduction, so
	// readings are identical no matter how the run was partitioned.
	refresh func(*Histogram)
}

// sync refreshes a view-backed histogram before a read; plain
// histograms pay one nil check.
func (h *Histogram) sync() {
	if h != nil && h.refresh != nil {
		h.refresh(h)
	}
}

// SetState replaces the histogram's contents (bucket counts, value sum,
// observation count) wholesale. It is the write half of a HistogramView
// refresh hook; counts must have len(uppers)+1 entries.
func (h *Histogram) SetState(counts []int64, sum float64, n int64) {
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("telemetry: SetState with %d counts, histogram has %d buckets",
			len(counts), len(h.counts)))
	}
	copy(h.counts, counts)
	h.sum = sum
	h.n = n
}

// NewHistogram returns an unregistered histogram with the given
// ascending bucket upper bounds — useful for distributions built
// outside a registry (e.g. the utilization histogram derived from a
// finished heatmap).
func NewHistogram(uppers []float64) (*Histogram, error) {
	if len(uppers) == 0 {
		return nil, fmt.Errorf("telemetry: histogram needs at least one bucket")
	}
	if !sort.Float64sAreSorted(uppers) {
		return nil, fmt.Errorf("telemetry: histogram buckets must be ascending")
	}
	u := make([]float64, len(uppers))
	copy(u, uppers)
	return &Histogram{uppers: u, counts: make([]int64, len(u)+1)}, nil
}

// Histogram registers a histogram under name with optional labels. Two
// scalar series, <name>.count and <name>.sum, join the registry so the
// periodic sampler captures the distribution's trajectory over time;
// the full bucket vector is rendered by WritePrometheus and WriteCSV.
func (r *Registry) Histogram(name string, uppers []float64, labels ...Label) (*Histogram, error) {
	h, err := NewHistogram(uppers)
	if err != nil {
		return nil, err
	}
	h.name = name
	for _, l := range labels {
		h.keys = append(h.keys, l.Key)
		h.values = append(h.values, l.Value)
	}
	err = r.add(Block{
		Families: []Family{{Name: name + ".count"}, {Name: name + ".sum"}},
		Keys:     h.keys,
		Values:   h.values,
		Fill: func(dst []float64) {
			h.sync()
			dst[0], dst[1] = float64(h.n), h.sum
		},
	}, true)
	if err != nil {
		return nil, err
	}
	r.hists = append(r.hists, h)
	return h, nil
}

// HistogramView registers a histogram whose state is recomputed by
// refresh just before every read (sampler tick, Prometheus render, CSV
// dump). It carries no state of its own between reads; Observe must not
// be called on it. The sharded fabric uses one for packet latency: each
// shard accumulates privately, and refresh merges the shards into the
// view via SetState.
func (r *Registry) HistogramView(name string, uppers []float64, refresh func(*Histogram), labels ...Label) (*Histogram, error) {
	h, err := r.Histogram(name, uppers, labels...)
	if err != nil {
		return nil, err
	}
	h.refresh = refresh
	return h, nil
}

// Observe counts one value into its bucket. A nil Histogram ignores
// the call, so instrumented code can hold a nil pointer when telemetry
// is off.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// The first bucket whose upper bound is >= v.
	b, _ := slices.BinarySearch(h.uppers, v)
	h.counts[b]++
	h.sum += v
	h.n++
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.sync()
	return h.n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.sync()
	return h.sum
}

// Buckets returns the upper bounds and per-bucket (non-cumulative)
// counts; the final count is the +Inf overflow bucket, so counts is
// one longer than uppers.
func (h *Histogram) Buckets() (uppers []float64, counts []int64) {
	h.sync()
	return h.uppers, h.counts
}

// WriteCSV renders the distribution as CSV with one row per bucket:
// upper bound ("+Inf" for the overflow bucket), the bucket's count,
// the cumulative count, and the cumulative fraction of observations —
// the columns needed to plot a Fig 8-style utilization histogram or a
// latency CDF directly.
func (h *Histogram) WriteCSV(w io.Writer) error {
	h.sync()
	bw := bufio.NewWriter(w)
	bw.WriteString("le,count,cum_count,cum_fraction\n")
	var cum int64
	for i, c := range h.counts {
		if i < len(h.uppers) {
			bw.Write(appendValue(bw.AvailableBuffer(), h.uppers[i]))
		} else {
			bw.WriteString("+Inf")
		}
		cum += c
		frac := 0.0
		if h.n > 0 {
			frac = float64(cum) / float64(h.n)
		}
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(c, 10))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(cum, 10))
		bw.WriteByte(',')
		bw.Write(appendValue(bw.AvailableBuffer(), frac))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
