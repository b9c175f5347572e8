package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"epnet/internal/sim"
)

func TestCounterVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("link.tx_pkts", "link")
	a, err := v.With("s0p1-s1p0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.With("s1p0-s0p1")
	if err != nil {
		t.Fatal(err)
	}
	a.Inc()
	a.Inc()
	b.Add(5)
	names := r.Names()
	want := []string{"link.tx_pkts{link=s0p1-s1p0}", "link.tx_pkts{link=s1p0-s0p1}"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("Names = %v, want %v", names, want)
	}
	vals := make([]float64, r.Len())
	r.ReadInto(vals)
	if vals[0] != 2 || vals[1] != 5 {
		t.Errorf("ReadInto = %v, want [2 5]", vals)
	}
	// Re-resolving the same value tuple is a collision, like any
	// duplicate registration.
	if _, err := v.With("s0p1-s1p0"); err == nil {
		t.Error("duplicate series accepted")
	}
	// Arity mismatches are rejected before touching the registry.
	if _, err := v.With("a", "b"); err == nil {
		t.Error("wrong label arity accepted")
	}
	if r.Len() != 2 {
		t.Errorf("failed resolutions mutated the registry: Len = %d", r.Len())
	}
}

// TestBlockSeries checks a block's series: identities family-major in
// column order, one fill call per read writing every column, counters
// and gauges typed apart in the scrape, and a rejected block leaving
// the registry as it was.
func TestBlockSeries(t *testing.T) {
	r := NewRegistry()
	if err := r.GaugeFunc("net.backlog_bytes", func() float64 { return 42 }); err != nil {
		t.Fatal(err)
	}
	queued := []float64{1500, 7}
	sent := []float64{3, 4}
	fills := 0
	err := r.Block(Block{
		Families: []Family{{Name: "port.queue_bytes"}, {Name: "port.tx_pkts", Counter: true}},
		Keys:     []string{"sw", "port"},
		Values:   []string{"0", "4", "0", "5"},
		Fill: func(dst []float64) {
			fills++
			copy(dst[:2], queued)
			copy(dst[2:], sent)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"net.backlog_bytes",
		"port.queue_bytes{sw=0;port=4}", "port.queue_bytes{sw=0;port=5}",
		"port.tx_pkts{sw=0;port=4}", "port.tx_pkts{sw=0;port=5}"}
	if got := r.Names(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Names = %v, want %v", got, want)
	}
	vals := make([]float64, r.Len())
	r.ReadInto(vals)
	if fills != 1 || vals[0] != 42 || vals[1] != 1500 || vals[2] != 7 || vals[3] != 3 || vals[4] != 4 {
		t.Errorf("ReadInto = %v after %d fills, want [42 1500 7 3 4] after 1", vals, fills)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	wantProm := "# TYPE net_backlog_bytes gauge\n" +
		"net_backlog_bytes 42\n" +
		"# TYPE port_queue_bytes gauge\n" +
		"port_queue_bytes{sw=\"0\",port=\"4\"} 1500\n" +
		"port_queue_bytes{sw=\"0\",port=\"5\"} 7\n" +
		"# TYPE port_tx_pkts counter\n" +
		"port_tx_pkts{sw=\"0\",port=\"4\"} 3\n" +
		"port_tx_pkts{sw=\"0\",port=\"5\"} 4\n"
	if buf.String() != wantProm {
		t.Errorf("WritePrometheus =\n%s\nwant\n%s", buf.String(), wantProm)
	}

	// A block whose second family collides, one whose label values do
	// not divide into whole entities, and one with no fill are all
	// rejected without mutating the registry.
	fill := func(dst []float64) {}
	for _, b := range []Block{
		{Families: []Family{{Name: "fresh"}, {Name: "port.tx_pkts"}}, Keys: []string{"sw", "port"}, Values: []string{"0", "5"}, Fill: fill},
		{Families: []Family{{Name: "fresh"}}, Keys: []string{"sw", "port"}, Values: []string{"0", "5", "1"}, Fill: fill},
		{Families: []Family{{Name: "fresh"}}},
		{Families: []Family{{Name: ""}}, Fill: fill},
	} {
		if err := r.Block(b); err == nil {
			t.Errorf("block %+v accepted", b.Families)
		}
	}
	if r.Len() != 5 {
		t.Errorf("rejected blocks mutated the registry: Len = %d", r.Len())
	}
	// The rejected block's first family left no identity behind.
	if err := r.Block(Block{Families: []Family{{Name: "fresh"}}, Keys: []string{"sw", "port"}, Values: []string{"0", "5"}, Fill: fill}); err != nil {
		t.Errorf("registering after a rolled-back block: %v", err)
	}
	// A block without keys is one entity of plain scalars.
	if err := r.Block(Block{Families: []Family{{Name: "a"}, {Name: "b"}}, Fill: func(dst []float64) { dst[0], dst[1] = 1, 2 }}); err != nil {
		t.Fatal(err)
	}
	vals = make([]float64, r.Len())
	r.ReadInto(vals)
	if names := r.Names(); names[6] != "a" || names[7] != "b" || vals[6] != 1 || vals[7] != 2 {
		t.Errorf("scalar block: %v = %v", names[6:], vals[6:])
	}
}

// Labeled identities must stay CSV-safe: reserved characters in keys or
// values are rejected at registration, not written into headers.
func TestLabelValidation(t *testing.T) {
	r := NewRegistry()
	bad := []Label{
		{Key: "", Value: "x"},
		{Key: "a,b", Value: "x"},
		{Key: "k", Value: "a;b"},
		{Key: "k", Value: "a=b"},
		{Key: "k", Value: "a\nb"},
		{Key: "k", Value: `a"b`},
		{Key: "k{", Value: "x"},
	}
	for _, l := range bad {
		b := Block{Families: []Family{{Name: "m"}}, Keys: []string{l.Key}, Values: []string{l.Value}, Fill: func([]float64) {}}
		if err := r.Block(b); err == nil {
			t.Errorf("label %q=%q accepted", l.Key, l.Value)
		}
	}
	if r.Len() != 0 {
		t.Errorf("rejected labels mutated the registry: Len = %d", r.Len())
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h, err := r.Histogram("net.latency_us", []float64{1, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	uppers, counts := h.Buckets()
	if len(uppers) != 3 || len(counts) != 4 {
		t.Fatalf("buckets %v / %v", uppers, counts)
	}
	// 0.5 and 1 land in le=1 (upper bounds are inclusive), 3 in le=5,
	// 7 in le=10, 100 overflows.
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 || counts[3] != 1 {
		t.Errorf("counts = %v, want [2 1 1 1]", counts)
	}
	if h.Count() != 5 || h.Sum() != 111.5 {
		t.Errorf("count/sum = %d/%v", h.Count(), h.Sum())
	}
	// The scalar .count/.sum series feed the periodic sampler.
	names := r.Names()
	if names[0] != "net.latency_us.count" || names[1] != "net.latency_us.sum" {
		t.Errorf("scalar series = %v", names)
	}
	vals := make([]float64, r.Len())
	r.ReadInto(vals)
	if vals[0] != 5 || vals[1] != 111.5 {
		t.Errorf("sampled scalars = %v", vals)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("empty buckets accepted")
	}
	if _, err := NewHistogram([]float64{5, 1}); err == nil {
		t.Error("descending buckets accepted")
	}
	var h *Histogram
	h.Observe(3) // nil-safe
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram should read zero")
	}
}

func TestHistogramZeroAllocObserve(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 5, 10, 20, 50})
	if err != nil {
		t.Fatal(err)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(3.5)
		h.Observe(1000)
		nilH.Observe(1)
	}); n != 0 {
		t.Errorf("Observe allocates %v allocs/op, want 0", n)
	}
}

func TestHistogramCSV(t *testing.T) {
	h, err := NewHistogram([]float64{0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(0.75)
	h.Observe(2)
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "le,count,cum_count,cum_fraction\n" +
		"0.5,1,1,0.25\n" +
		"1,2,3,0.75\n" +
		"+Inf,1,4,1\n"
	if buf.String() != want {
		t.Errorf("CSV =\n%s\nwant\n%s", buf.String(), want)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c, _ := r.Counter("net.delivered_pkts")
	c.Add(12)
	v := r.CounterVec("link.tx_pkts", "link")
	a, _ := v.With("s0p1-s1p0")
	a.Add(3)
	// Interleave another family's registration: the renderer must still
	// group link.tx_pkts series contiguously under one TYPE line.
	if err := r.GaugeFunc("net.backlog_bytes", func() float64 { return 42 }); err != nil {
		t.Fatal(err)
	}
	b, _ := v.With("s1p0-s0p1")
	b.Add(4)
	h, err := r.Histogram("net.latency_us", []float64{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "# TYPE net_delivered_pkts counter\n" +
		"net_delivered_pkts 12\n" +
		"# TYPE link_tx_pkts counter\n" +
		"link_tx_pkts{link=\"s0p1-s1p0\"} 3\n" +
		"link_tx_pkts{link=\"s1p0-s0p1\"} 4\n" +
		"# TYPE net_backlog_bytes gauge\n" +
		"net_backlog_bytes 42\n" +
		"# TYPE net_latency_us histogram\n" +
		"net_latency_us_bucket{le=\"1\"} 1\n" +
		"net_latency_us_bucket{le=\"10\"} 2\n" +
		"net_latency_us_bucket{le=\"+Inf\"} 3\n" +
		"net_latency_us_sum 105.5\n" +
		"net_latency_us_count 3\n"
	if got != want {
		t.Errorf("WritePrometheus =\n%s\nwant\n%s", got, want)
	}
	// The histogram's scalar sampler parts must not leak into the scrape
	// as separate gauges.
	if strings.Contains(got, "latency_us.count") || strings.Contains(got, "net_latency_us.sum") {
		t.Errorf("histogram scalar parts leaked into scrape:\n%s", got)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"link.rate_gbps":        "link_rate_gbps",
		"power.ideal-prop":      "power_ideal_prop",
		"0starts.with.digit":    "_starts_with_digit",
		"ok_name:with_colon":    "ok_name:with_colon",
		"routing.dim.0.mode":    "routing_dim_0_mode",
		"switch.port_queue a b": "switch_port_queue_a_b",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// heatmapRun drives h through a sampler without a sink, as a run does:
// baseline at 0, a column every 10us up to horizon, and Finish's.
func heatmapRun(t *testing.T, h *Heatmap, horizon sim.Time) {
	t.Helper()
	e := sim.New()
	s, err := NewSampler(nil, 10*sim.Microsecond, nil, CSV)
	if err != nil {
		t.Fatal(err)
	}
	s.OnSample = h.Sample
	s.Start(e, horizon)
	e.RunUntil(horizon)
	if err := s.Finish(e.Now()); err != nil {
		t.Fatal(err)
	}
}

// A synthetic busy-time reader: busy advances at a configurable
// fraction of wall time between samples.
func TestHeatmapCells(t *testing.T) {
	var h Heatmap
	// Row 0 is busy 50% of the time; row 1 is fully busy.
	h.AddRow("half", func(now sim.Time) sim.Time { return now / 2 })
	h.AddRow("full", func(now sim.Time) sim.Time { return now })
	heatmapRun(t, &h, 25*sim.Microsecond)

	if h.Rows() != 2 {
		t.Fatalf("rows = %d", h.Rows())
	}
	// Columns at 10us, 20us, plus the partial one Finish adds at 25us.
	if h.Cols() != 3 {
		t.Fatalf("cols = %d", h.Cols())
	}
	for j := 0; j < h.Cols(); j++ {
		if got := h.Cell(0, j); got != 0.5 {
			t.Errorf("cell(0,%d) = %v, want 0.5", j, got)
		}
		if got := h.Cell(1, j); got != 1 {
			t.Errorf("cell(1,%d) = %v, want 1", j, got)
		}
	}

	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "link,10,20,25\n" +
		"half,0.5,0.5,0.5\n" +
		"full,1,1,1\n"
	if buf.String() != want {
		t.Errorf("heatmap CSV =\n%s\nwant\n%s", buf.String(), want)
	}

	hist, err := h.UtilizationHistogram([]float64{0.25, 0.5, 0.75, 1})
	if err != nil {
		t.Fatal(err)
	}
	_, counts := hist.Buckets()
	// Three 0.5 cells land in le=0.5, three 1.0 cells in le=1.
	if counts[1] != 3 || counts[3] != 3 || hist.Count() != 6 {
		t.Errorf("utilization histogram counts = %v", counts)
	}
}

// TestSamplerBoundaryRow pins the documented boundary guarantee: when
// the horizon is an integer multiple of the interval, the series
// includes a row at exactly the horizon (the tick at `until` fires
// before the engine stops), and Finish does not duplicate it.
func TestSamplerBoundaryRow(t *testing.T) {
	e := sim.New()
	r := NewRegistry()
	if err := r.GaugeFunc("sim.now_us", func() float64 { return e.Now().Microseconds() }); err != nil {
		t.Fatal(err)
	}
	const interval = 10 * sim.Microsecond
	const horizon = 20 * sim.Microsecond // exact multiple of interval
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

	want := []sim.Time{0, 10 * sim.Microsecond, horizon}
	times, rows := parseSeries(t, out.Bytes())
	if len(times) != len(want) {
		t.Fatalf("samples = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i].Microseconds() {
			t.Errorf("sample %d at %v us, want %v", i, times[i], want[i])
		}
	}
	if got := rows[len(rows)-1][0]; got != horizon.Microseconds() {
		t.Errorf("boundary row sampled at %v us, want %v", got, horizon.Microseconds())
	}
}

// The heatmap takes the sampler's boundary behavior: a horizon on the
// tick grid produces one final column at exactly the horizon.
func TestHeatmapBoundaryColumn(t *testing.T) {
	var h Heatmap
	h.AddRow("r", func(now sim.Time) sim.Time { return now })
	heatmapRun(t, &h, 30*sim.Microsecond)
	if h.Cols() != 3 {
		t.Fatalf("cols = %d, want 3 (10, 20, 30us)", h.Cols())
	}
}

func TestSamplerOnSampleHook(t *testing.T) {
	e := sim.New()
	r := NewRegistry()
	if _, err := r.Counter("c"); err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(r, 10*sim.Microsecond, nil, CSV)
	if err != nil {
		t.Fatal(err)
	}
	var at []sim.Time
	s.OnSample = func(now sim.Time) { at = append(at, now) }
	s.Start(e, 20*sim.Microsecond)
	e.RunUntil(20 * sim.Microsecond)
	s.Finish(e.Now())
	if len(at) != 3 || at[0] != 0 || at[2] != 20*sim.Microsecond {
		t.Errorf("OnSample fired at %v, want [0 10us 20us]", at)
	}
}

// TestWritePrometheusLabelEscaping pins the two halves of label-value
// safety: backslashes — which registration admits — must reach the
// scrape escaped as \\, and quotes/newlines must be rejected at the
// registration gate, because raw they would corrupt every series that
// follows in the exposition.
func TestWritePrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("trace.file_pkts", "path")
	c, err := v.With(`C:\traces\run1`)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE trace_file_pkts counter\n" +
		"trace_file_pkts{path=\"C:\\\\traces\\\\run1\"} 1\n"
	if buf.String() != want {
		t.Errorf("WritePrometheus =\n%q\nwant\n%q", buf.String(), want)
	}
	for _, bad := range []string{"say \"hi\"", "line\nbreak"} {
		if _, err := v.With(bad); err == nil {
			t.Errorf("label value %q accepted; it would corrupt the scrape", bad)
		}
	}
}

// TestWritePrometheusHistogramBounds pins bucket-edge semantics: an
// observation exactly on an upper bound counts into that bucket (le is
// inclusive), overflow lands only in +Inf, and the cumulative +Inf
// count equals the total observation count.
func TestWritePrometheusHistogramBounds(t *testing.T) {
	r := NewRegistry()
	h, err := r.Histogram("lat.us", []float64{1, 10}, Label{Key: "class", Value: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(1)    // exactly on the first bound
	h.Observe(10)   // exactly on the last finite bound
	h.Observe(10.5) // past every finite bound
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE lat_us histogram\n" +
		"lat_us_bucket{class=\"hi\",le=\"1\"} 1\n" +
		"lat_us_bucket{class=\"hi\",le=\"10\"} 2\n" +
		"lat_us_bucket{class=\"hi\",le=\"+Inf\"} 3\n" +
		"lat_us_sum{class=\"hi\"} 21.5\n" +
		"lat_us_count{class=\"hi\"} 3\n"
	if buf.String() != want {
		t.Errorf("WritePrometheus =\n%s\nwant\n%s", buf.String(), want)
	}
}
