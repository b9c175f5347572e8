package telemetry

import (
	"bufio"
	"io"
	"strconv"

	"epnet/internal/sim"
)

// Heatmap keeps the per-interval utilization of each row between
// samples: one row per link, one column per interval. Rows provide a
// monotonically increasing busy-time reading (link.Channel.BusyTime),
// so each cell is (Δbusy / Δt) ∈ [0, 1] for the interval ending at the
// column's timestamp. Call Sample from a Sampler's OnSample: the
// sampler's baseline, ticks and Finish then give the baseline, the
// columns and the partial last column. It is deterministic for a
// deterministic run. The zero value is an empty heatmap.
type Heatmap struct {
	labels []string
	read   []func(now sim.Time) sim.Time // cumulative busy time per row
	prev   []sim.Time                    // busy time at the last sample; nil before the first
	prevAt sim.Time
	times  []sim.Time  // column end times
	cols   [][]float64 // cols[j][i] = utilization of row i over (times[j-1], times[j]]
}

// AddRow registers one row before the first sample: a display label and
// a reader returning cumulative busy time at the given instant.
func (h *Heatmap) AddRow(label string, busy func(now sim.Time) sim.Time) {
	h.labels = append(h.labels, label)
	h.read = append(h.read, busy)
}

// Sample reads every row at now. The first sample is the baseline;
// each later one past the previous appends the column covering
// (previous sample, now].
func (h *Heatmap) Sample(now sim.Time) {
	if h.prev == nil {
		h.prev = make([]sim.Time, len(h.read))
		for i, f := range h.read {
			h.prev[i] = f(now)
		}
		h.prevAt = now
		return
	}
	dt := now - h.prevAt
	if dt <= 0 {
		return
	}
	col := make([]float64, len(h.read))
	for i, f := range h.read {
		busy := f(now)
		u := float64(busy-h.prev[i]) / float64(dt)
		if u < 0 {
			u = 0
		} else if u > 1 {
			u = 1
		}
		col[i] = u
		h.prev[i] = busy
	}
	h.times = append(h.times, now)
	h.cols = append(h.cols, col)
	h.prevAt = now
}

// Rows returns the number of rows (links).
func (h *Heatmap) Rows() int { return len(h.labels) }

// Cols returns the number of captured columns (intervals).
func (h *Heatmap) Cols() int { return len(h.times) }

// Cell returns the utilization of row i over the j-th interval.
func (h *Heatmap) Cell(i, j int) float64 { return h.cols[j][i] }

// WriteCSV streams the heatmap as CSV: a header of "link" followed by
// each column's end time in microseconds, then one row per link with
// its per-interval utilizations.
func (h *Heatmap) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("link")
	for _, t := range h.times {
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatFloat(t.Microseconds(), 'f', -1, 64))
	}
	bw.WriteByte('\n')
	for i, label := range h.labels {
		bw.WriteString(label)
		for j := range h.times {
			bw.WriteByte(',')
			bw.Write(appendValue(bw.AvailableBuffer(), h.cols[j][i]))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// UtilizationHistogram folds every cell of the heatmap into a
// histogram with the given bucket upper bounds — the paper's Fig 8
// view: how often links sit at each utilization level, over all links
// and all sample intervals.
func (h *Heatmap) UtilizationHistogram(uppers []float64) (*Histogram, error) {
	hist, err := NewHistogram(uppers)
	if err != nil {
		return nil, err
	}
	for _, col := range h.cols {
		for _, u := range col {
			hist.Observe(u)
		}
	}
	return hist, nil
}
