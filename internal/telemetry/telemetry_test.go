package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"epnet/internal/sim"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c, err := r.Counter("net.pkts")
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.Gauge("net.backlog")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.GaugeFunc("net.twice", func() float64 { return 2 * g.Value() }); err != nil {
		t.Fatal(err)
	}
	c.Inc()
	c.Add(4)
	g.Set(3.5)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	want := []string{"net.pkts", "net.backlog", "net.twice"}
	if got := r.Names(); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("Names = %v, want %v", got, want)
	}
	vals := make([]float64, r.Len())
	r.ReadInto(vals)
	if vals[0] != 5 || vals[1] != 3.5 || vals[2] != 7 {
		t.Errorf("ReadInto = %v", vals)
	}
}

func TestRegistryCollisionRejected(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Counter("link.0.rate"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Counter("link.0.rate"); err == nil {
		t.Error("duplicate counter name accepted")
	}
	if _, err := r.Gauge("link.0.rate"); err == nil {
		t.Error("gauge colliding with counter accepted")
	}
	if err := r.GaugeFunc("link.0.rate", func() float64 { return 0 }); err == nil {
		t.Error("gauge func colliding with counter accepted")
	}
	if _, err := r.Counter(""); err == nil {
		t.Error("empty name accepted")
	}
	if r.Len() != 1 {
		t.Errorf("failed registrations mutated the registry: Len = %d", r.Len())
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	c.Inc()
	c.Add(7)
	g.Set(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil metrics should read zero")
	}
}

// TestZeroAllocIncrements asserts the hot-path operations allocate
// nothing — the property that lets instrumentation stay enabled in
// per-packet code.
func TestZeroAllocIncrements(t *testing.T) {
	r := NewRegistry()
	c, _ := r.Counter("c")
	g, _ := r.Gauge("g")
	var nilC *Counter
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(4.2)
		nilC.Inc()
	}); n != 0 {
		t.Errorf("hot-path metric ops allocate %v allocs/op, want 0", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c, _ := r.Counter("bench.counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	r := NewRegistry()
	g, _ := r.Gauge("bench.gauge")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

// parseSeries parses a sampler's CSV stream into, per row, the sample
// time in microseconds and the metric values.
func parseSeries(t *testing.T, data []byte) (times []float64, rows [][]float64) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	header := strings.Split(lines[0], ",")
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			t.Fatalf("row %q has %d cells, header has %d", line, len(cells), len(header))
		}
		vals := make([]float64, len(cells))
		for i, c := range cells {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			vals[i] = v
		}
		times = append(times, vals[0])
		rows = append(rows, vals[1:])
	}
	return times, rows
}

// TestSamplerPartialLastInterval drives a sampler through a horizon
// that is not a multiple of the interval: ticks land on the grid and
// Finish adds the partial final sample exactly once.
func TestSamplerPartialLastInterval(t *testing.T) {
	e := sim.New()
	r := NewRegistry()
	if err := r.GaugeFunc("sim.now_us", func() float64 { return e.Now().Microseconds() }); err != nil {
		t.Fatal(err)
	}
	const interval = 10 * sim.Microsecond
	const horizon = 25 * sim.Microsecond
	var out bytes.Buffer
	s, err := NewSampler(r, interval, &out, CSV)
	if err != nil {
		t.Fatal(err)
	}
	s.Start(e, horizon)
	e.RunUntil(horizon)
	if err := s.Finish(e.Now()); err != nil {
		t.Fatal(err)
	}

	want := []sim.Time{0, 10 * sim.Microsecond, 20 * sim.Microsecond, horizon}
	times, rows := parseSeries(t, out.Bytes())
	if len(times) != len(want) {
		t.Fatalf("samples = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i].Microseconds() {
			t.Errorf("sample %d at %v us, want %v", i, times[i], want[i])
		}
		if got := rows[i][0]; got != want[i].Microseconds() {
			t.Errorf("sample %d value %v, want %v", i, got, want[i].Microseconds())
		}
	}
	// Finish on a horizon that coincides with the last tick must not
	// produce a duplicate row.
	before := out.Len()
	if err := s.Finish(horizon); err != nil {
		t.Fatal(err)
	}
	if out.Len() != before {
		t.Error("Finish duplicated the final sample")
	}
}

func TestSamplerRejectsBadInterval(t *testing.T) {
	if _, err := NewSampler(NewRegistry(), 0, nil, CSV); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewSampler(NewRegistry(), -sim.Microsecond, nil, CSV); err == nil {
		t.Error("negative interval accepted")
	}
}

func TestSamplerCSVAndJSONL(t *testing.T) {
	stream := func(enc Encoding) string {
		e := sim.New()
		r := NewRegistry()
		c, _ := r.Counter("net.pkts")
		var out bytes.Buffer
		s, err := NewSampler(r, 5*sim.Microsecond, &out, enc)
		if err != nil {
			t.Fatal(err)
		}
		s.Start(e, 10*sim.Microsecond)
		c.Add(3)
		e.RunUntil(10 * sim.Microsecond)
		if err := s.Finish(e.Now()); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	csv := stream(CSV)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 { // header + t=0,5,10us
		t.Fatalf("CSV lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "t_us,net.pkts" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if lines[1] != "0,0" || lines[2] != "5,3" || lines[3] != "10,3" {
		t.Errorf("CSV rows = %q", lines[1:])
	}

	jl := stream(JSONL)
	jlines := strings.Split(strings.TrimSpace(jl), "\n")
	if len(jlines) != 3 {
		t.Fatalf("JSONL lines = %d", len(jlines))
	}
	// Every line is a standalone JSON object.
	for i, line := range jlines {
		var obj struct {
			TUs     float64            `json:"t_us"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if _, ok := obj.Metrics["net.pkts"]; !ok {
			t.Errorf("line %d missing metric: %s", i, line)
		}
	}
}

// errWriter fails every write.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

// TestSamplerLatchesWriteError: the sink's first write error is kept
// and returned by Finish, and the sampler stops writing after it. Each
// row is larger than flushAt, so without the latch every tick would
// write.
func TestSamplerLatchesWriteError(t *testing.T) {
	e := sim.New()
	w := &errWriter{}
	s, err := NewSampler(tickRegistry(flushAt/2), sim.Microsecond, w, CSV)
	if err != nil {
		t.Fatal(err)
	}
	s.Start(e, 10*sim.Microsecond)
	e.RunUntil(10 * sim.Microsecond)
	if err := s.Finish(e.Now()); err == nil || err.Error() != "disk full" {
		t.Errorf("Finish = %v, want the sink's write error", err)
	}
	if err := s.Finish(e.Now()); err == nil {
		t.Error("second Finish lost the latched error")
	}
	if w.n != 1 {
		t.Errorf("sink saw %d writes, want 1 (none after the first failure)", w.n)
	}
}

// slowWriter keeps what it is given, pausing on every write so that
// the engine side outruns the encoder.
type slowWriter struct{ bytes.Buffer }

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return w.Buffer.Write(p)
}

// TestSamplerStreamsInOrder: rows reach the sink in sample order, each
// holding the values read at its own instant, when the sink is slower
// than the engine and every sample waits for a row the encoder has
// finished with. Each row is larger than flushAt, so each is a write.
func TestSamplerStreamsInOrder(t *testing.T) {
	e := sim.New()
	r := tickRegistry(flushAt / 2)
	if err := r.GaugeFunc("sim.now_us", func() float64 { return e.Now().Microseconds() }); err != nil {
		t.Fatal(err)
	}
	w := &slowWriter{}
	s, err := NewSampler(r, sim.Microsecond, w, CSV)
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 4 * rowBuffers
	s.Start(e, ticks*sim.Microsecond)
	e.RunUntil(ticks * sim.Microsecond)
	if err := s.Finish(e.Now()); err != nil {
		t.Fatal(err)
	}
	times, rows := parseSeries(t, w.Bytes())
	if len(times) != ticks+1 {
		t.Fatalf("%d rows, want %d", len(times), ticks+1)
	}
	want := make([]float64, r.Len())
	r.ReadInto(want)
	for i, row := range rows {
		want[len(want)-1] = float64(i)
		if times[i] != float64(i) || !slices.Equal(row, want) {
			t.Fatalf("row %d at %v us differs from the registry's values at %d us", i, times[i], i)
		}
	}
}

// tickRegistry registers n series whose values mix zeros, other
// integers and fractions in roughly the proportions a paper-scale run
// samples (about half zero, three quarters integral).
func tickRegistry(n int) *Registry {
	r := NewRegistry()
	for i := 0; i < n; i++ {
		v := 0.0
		switch i % 4 {
		case 1:
			v = float64(i * 37)
		case 2:
			v = 0.1 + float64(i)/3
		}
		if err := r.GaugeFunc("s."+strconv.Itoa(i), func() float64 { return v }); err != nil {
			panic(err)
		}
	}
	return r
}

// TestSamplerTickZeroAlloc pins the streaming contract: once the line
// buffer has grown to its working size, a sample tick allocates
// nothing, whether it encodes a row or, without a sink, only paces
// OnSample.
func TestSamplerTickZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		sink io.Writer
	}{{"csv", io.Discard}, {"no-sink", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New()
			s, err := NewSampler(tickRegistry(1000), sim.Microsecond, tc.sink, CSV)
			if err != nil {
				t.Fatal(err)
			}
			s.Start(e, sim.Microsecond)
			for i := 0; i < 100; i++ { // grow the line buffer to its working size
				s.sample(e.Now())
			}
			if n := testing.AllocsPerRun(100, func() { s.sample(e.Now()) }); n != 0 {
				t.Errorf("sample tick allocates %v times, want 0", n)
			}
		})
	}
}

// BenchmarkSamplerTick measures one sample tick of a 4,096-series
// registry streamed as CSV: the registry read plus the encoding, in ns
// per series.
func BenchmarkSamplerTick(b *testing.B) {
	const series = 4096
	e := sim.New()
	s, err := NewSampler(tickRegistry(series), sim.Microsecond, io.Discard, CSV)
	if err != nil {
		b.Fatal(err)
	}
	s.Start(e, sim.Microsecond)
	for i := 0; i < 100; i++ { // grow the line buffer to its working size
		s.sample(e.Now())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sample(e.Now())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*series), "ns/series")
}

// FuzzAppendValue checks the sampled-value formatter against the
// reference rendering, strconv.FormatFloat(v, 'g', -1, 64), byte for
// byte, including after a non-empty prefix.
func FuzzAppendValue(f *testing.F) {
	for _, v := range []float64{
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		999999, -999999, 1e6, -1e6, 1 << 53, 5e-324, 1e21,
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want := strconv.FormatFloat(v, 'g', -1, 64)
		if got := string(appendValue(nil, v)); got != want {
			t.Errorf("appendValue(%v) = %q, want %q", v, got, want)
		}
		if got := string(appendValue([]byte("x,"), v)); got != "x,"+want {
			t.Errorf("appendValue(x, %v) = %q, want %q", v, got, "x,"+want)
		}
	})
}
