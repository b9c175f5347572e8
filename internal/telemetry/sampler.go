package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"epnet/internal/sim"
)

// Encoding selects the format a Sampler streams its rows in.
type Encoding uint8

const (
	// CSV is a header of t_us followed by the metric names, then one row
	// per sample with time in microseconds.
	CSV Encoding = iota
	// JSONL is one object per sample, {"t_us": <time>, "metrics":
	// {<name>: <value>, ...}}, with metrics in registration order.
	JSONL
)

// flushAt is how many encoded bytes the sampler gathers before handing
// them to its sink: small rows batch into few writes, and a row larger
// than this (a paper-scale registry) goes out as one write per tick.
const flushAt = 64 << 10

// Sampler periodically reads a registry's metrics and streams each row
// to its sink as it is taken. It is driven by the simulation engine:
// Start writes the header, takes an immediate baseline sample and
// schedules a self-rescheduling tick every interval up to a horizon,
// and Finish takes one final sample covering the partial last interval
// when the simulation ends off the tick grid.
//
// Memory is O(series) however long the run: one row of values and one
// line buffer, both reused every tick, so a tick allocates nothing. A
// sampler without a sink reads and keeps nothing; it only paces
// OnSample.
type Sampler struct {
	reg      *Registry
	interval sim.Time
	sink     io.Writer
	enc      Encoding

	// OnSample, if set before Start, is invoked after each sample
	// (baseline, every tick, and the Finish sample). It runs on the
	// engine thread, so it may read simulation state safely — the
	// live-inspection publisher hangs off this hook.
	OnSample func(now sim.Time)

	keys   []string  // JSONL only: each metric name, quoted once at Start
	row    []float64 // the values of the sample being encoded
	buf    []byte    // encoded rows not yet written to the sink
	err    error     // the sink's first write error
	lastAt sim.Time  // time of the latest sample; -1 before the first
	tick   sim.Event
}

// NewSampler returns a sampler reading reg every interval and streaming
// the rows to sink in enc. A nil sink samples nothing; OnSample still
// fires on every tick.
func NewSampler(reg *Registry, interval sim.Time, sink io.Writer, enc Encoding) (*Sampler, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("telemetry: sample interval must be positive, got %v", interval)
	}
	return &Sampler{reg: reg, interval: interval, sink: sink, enc: enc, lastAt: -1}, nil
}

// Start locks in the registry's current metric set (metrics registered
// later are not sampled), writes the CSV header, takes an immediate
// baseline sample, and schedules ticks every interval while the next
// tick is <= until.
//
// The <= comparison plus Engine.RunUntil's fire-events-at-deadline
// semantics guarantee a row at exactly until when the horizon is an
// integer multiple of the interval — the final boundary sample is
// never skipped (pinned by TestSamplerBoundaryRow).
func (s *Sampler) Start(e *sim.Engine, until sim.Time) {
	if s.sink != nil {
		names := s.reg.Names()
		s.row = make([]float64, len(names))
		if s.enc == JSONL {
			s.keys = make([]string, len(names))
			for i, n := range names {
				s.keys[i] = strconv.Quote(n)
			}
		} else {
			s.buf = append(s.buf, "t_us"...)
			for _, n := range names {
				s.buf = append(append(s.buf, ','), n...)
			}
			s.buf = append(s.buf, '\n')
		}
	}
	s.sample(e.Now())
	s.tick = func(now sim.Time) {
		s.sample(now)
		if next := now + s.interval; next <= until {
			e.At(next, s.tick)
		}
	}
	if next := e.Now() + s.interval; next <= until {
		e.At(next, s.tick)
	}
}

// Finish takes a final sample at now unless a tick already sampled that
// instant — the partial-last-interval case: a horizon that is not a
// multiple of the interval still gets an end-of-run data point. It then
// writes out the rows still buffered and returns the sink's first write
// error. Closing the sink stays with its owner.
func (s *Sampler) Finish(now sim.Time) error {
	if s.lastAt != now {
		s.sample(now)
	}
	s.flush()
	return s.err
}

// sample reads and encodes one row at time now.
func (s *Sampler) sample(now sim.Time) {
	s.lastAt = now
	if s.sink != nil && s.err == nil {
		s.reg.ReadInto(s.row)
		s.encode(now)
		if len(s.buf) >= flushAt {
			s.flush()
		}
	}
	if s.OnSample != nil {
		s.OnSample(now)
	}
}

// encode appends the current row, sampled at now, to the line buffer.
func (s *Sampler) encode(now sim.Time) {
	b := s.buf
	if s.enc == JSONL {
		b = append(b, `{"t_us":`...)
		b = strconv.AppendFloat(b, now.Microseconds(), 'f', -1, 64)
		b = append(b, `,"metrics":{`...)
		for i, v := range s.row {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(b, s.keys[i]...), ':')
			b = appendValue(b, v)
		}
		b = append(b, "}}\n"...)
	} else {
		b = strconv.AppendFloat(b, now.Microseconds(), 'f', -1, 64)
		for _, v := range s.row {
			b = appendValue(append(b, ','), v)
		}
		b = append(b, '\n')
	}
	s.buf = b
}

// flush writes the buffered rows to the sink, latching the first error;
// after one, rows are dropped.
func (s *Sampler) flush() {
	if s.sink != nil && s.err == nil && len(s.buf) > 0 {
		_, s.err = s.sink.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// appendValue appends a metric value rendered compactly and losslessly,
// byte-identical to strconv.FormatFloat(v, 'g', -1, 64). Most sampled
// values are small integers (counts, bytes, zero), which take the
// cheaper integer path: 'g' prints an integral value below 1e6 in
// plain decimal, except negative zero, which it prints as "-0".
func appendValue(dst []byte, v float64) []byte {
	if v > -1e6 && v < 1e6 && v == math.Trunc(v) && (v != 0 || !math.Signbit(v)) {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}
