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

// rowBuffers is how many rows of values a streaming sampler holds: one
// the engine is reading, one queued, one being encoded.
const rowBuffers = 3

// Sampler periodically reads a registry's metrics and streams each row
// to its sink as it is taken. It is driven by the simulation engine:
// Start writes the header, takes an immediate baseline sample and
// schedules a self-rescheduling tick every interval up to a horizon,
// and Finish takes one final sample covering the partial last interval
// when the simulation ends off the tick grid.
//
// A tick on the engine thread only reads the registry into a recycled
// row and hands it over; a goroutine of the sampler's own formats the
// rows in order and writes them to the sink, so encoding overlaps the
// simulation. Memory is O(series) however long the run: rowBuffers
// rows of values and one line buffer, all reused, so a tick allocates
// nothing. A sampler without a sink starts no goroutine and reads and
// keeps nothing; it only paces OnSample.
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

	// Engine side. rows is nil unless the encoder is running.
	free   chan []float64 // rows the encoder is done with
	rows   chan row       // sampled rows awaiting encoding, in order
	done   chan struct{}  // closed once the encoder has written its last row
	lastAt sim.Time       // time of the latest sample; -1 before the first
	tick   sim.Event

	// Encoder side: set up by Start, then owned by the encoder until
	// done is closed.
	keys []string // JSONL only: each metric name, quoted once at Start
	buf  []byte   // encoded rows not yet written to the sink
	err  error    // the sink's first write error
}

// row is one sample handed from the engine to the encoder.
type row struct {
	at   sim.Time
	vals []float64
}

// NewSampler returns a sampler reading reg every interval and streaming
// the rows to sink in enc. A nil sink samples nothing and reads no
// registry, so reg may be nil too; OnSample still fires on every tick.
func NewSampler(reg *Registry, interval sim.Time, sink io.Writer, enc Encoding) (*Sampler, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("telemetry: sample interval must be positive, got %v", interval)
	}
	return &Sampler{reg: reg, interval: interval, sink: sink, enc: enc, lastAt: -1}, nil
}

// Start locks in the registry's current metric set (metrics registered
// later are not sampled), writes the CSV header, starts the encoder,
// takes an immediate baseline sample, and schedules ticks every
// interval while the next tick is <= until.
//
// The <= comparison plus Engine.RunUntil's fire-events-at-deadline
// semantics guarantee a row at exactly until when the horizon is an
// integer multiple of the interval — the final boundary sample is
// never skipped (pinned by TestSamplerBoundaryRow).
func (s *Sampler) Start(e *sim.Engine, until sim.Time) {
	if s.sink != nil {
		names := s.reg.Names()
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
		s.free = make(chan []float64, rowBuffers)
		for range rowBuffers {
			s.free <- make([]float64, len(names))
		}
		s.rows = make(chan row, rowBuffers)
		s.done = make(chan struct{})
		go s.encodeRows()
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
// waits for the encoder to write out every row and returns the sink's
// first write error. The stream ends here: later samples only pace
// OnSample. Closing the sink stays with its owner.
func (s *Sampler) Finish(now sim.Time) error {
	if s.lastAt != now {
		s.sample(now)
	}
	if s.rows != nil {
		close(s.rows)
		<-s.done
		s.rows = nil
	}
	return s.err
}

// sample reads one row at time now and hands it to the encoder.
func (s *Sampler) sample(now sim.Time) {
	s.lastAt = now
	if s.rows != nil {
		vals := <-s.free
		s.reg.ReadInto(vals)
		s.rows <- row{at: now, vals: vals}
	}
	if s.OnSample != nil {
		s.OnSample(now)
	}
}

// encodeRows is the encoder goroutine: it encodes the rows in the order
// they were sampled, writes them out in batches of about flushAt bytes,
// and returns each row for reuse. After a write error it encodes
// nothing more.
func (s *Sampler) encodeRows() {
	defer close(s.done)
	for r := range s.rows {
		if s.err == nil {
			s.encode(r.at, r.vals)
			if len(s.buf) >= flushAt {
				s.flush()
			}
		}
		s.free <- r.vals
	}
	s.flush()
}

// encode appends the row vals, sampled at now, to the line buffer.
func (s *Sampler) encode(now sim.Time, vals []float64) {
	b := s.buf
	if s.enc == JSONL {
		b = append(b, `{"t_us":`...)
		b = strconv.AppendFloat(b, now.Microseconds(), 'f', -1, 64)
		b = append(b, `,"metrics":{`...)
		for i, v := range vals {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(b, s.keys[i]...), ':')
			b = appendValue(b, v)
		}
		b = append(b, "}}\n"...)
	} else {
		b = strconv.AppendFloat(b, now.Microseconds(), 'f', -1, 64)
		for _, v := range vals {
			b = appendValue(append(b, ','), v)
		}
		b = append(b, '\n')
	}
	s.buf = b
}

// flush writes the buffered rows to the sink, latching the first error;
// after one, rows are dropped.
func (s *Sampler) flush() {
	if s.err == nil && len(s.buf) > 0 {
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
