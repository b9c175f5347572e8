package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"epnet/internal/sim"
)

// Heatmap samples per-row cumulative busy time on a fixed interval and
// stores the per-interval utilization of each row — one row per link,
// one column per sample interval. Rows provide a monotonically
// increasing busy-time reading (link.Channel.BusyTime), so each cell
// is (Δbusy / Δt) ∈ [0, 1] for the interval ending at the column's
// timestamp. Like the Sampler it is driven by the simulation engine
// and is deterministic for a deterministic run.
type Heatmap struct {
	interval sim.Time

	labels []string
	read   []func(now sim.Time) sim.Time // cumulative busy time per row
	prev   []sim.Time
	prevAt sim.Time
	times  []sim.Time  // column end times
	cols   [][]float64 // cols[j][i] = utilization of row i over (times[j-1], times[j]]
	tick   sim.Event
}

// NewHeatmap returns a heatmap sampling every interval.
func NewHeatmap(interval sim.Time) (*Heatmap, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("telemetry: heatmap interval must be positive, got %v", interval)
	}
	return &Heatmap{interval: interval}, nil
}

// AddRow registers one row before Start: a display label and a reader
// returning cumulative busy time at the given instant.
func (h *Heatmap) AddRow(label string, busy func(now sim.Time) sim.Time) {
	h.labels = append(h.labels, label)
	h.read = append(h.read, busy)
}

// Start records the busy-time baseline at the current instant and
// schedules a column capture every interval while the next tick is
// <= until; the tick at exactly until fires before the engine stops
// (see Sampler.Start for the boundary guarantee).
func (h *Heatmap) Start(e *sim.Engine, until sim.Time) {
	h.prev = make([]sim.Time, len(h.read))
	h.prevAt = e.Now()
	for i, f := range h.read {
		h.prev[i] = f(h.prevAt)
	}
	h.tick = func(now sim.Time) {
		h.column(now)
		if next := now + h.interval; next <= until {
			e.At(next, h.tick)
		}
	}
	if next := e.Now() + h.interval; next <= until {
		e.At(next, h.tick)
	}
}

// Finish captures a final partial column if the run ended off the tick
// grid.
func (h *Heatmap) Finish(now sim.Time) {
	if now > h.prevAt {
		h.column(now)
	}
}

// column appends one utilization column covering (prevAt, now].
func (h *Heatmap) column(now sim.Time) {
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
