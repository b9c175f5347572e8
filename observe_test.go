package epnet

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// observeConfig is a small, fast run with enough epochs for the
// controller to retune links several times.
func observeConfig() Config {
	cfg := DefaultConfig()
	cfg.K, cfg.N, cfg.C = 4, 2, 4
	cfg.Warmup = 100 * time.Microsecond
	cfg.Duration = 400 * time.Microsecond
	return cfg
}

func TestRunWritesMetricsCSV(t *testing.T) {
	cfg := observeConfig()
	cfg.MetricsOut = filepath.Join(t.TempDir(), "metrics.csv")
	cfg.SampleInterval = 50 * time.Microsecond
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	// Samples at 0, 50us, ..., 500us plus the header.
	if want := 1 + 11; len(lines) != want {
		t.Fatalf("csv lines = %d, want %d", len(lines), want)
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "t_us" {
		t.Fatalf("header starts %q, want t_us", header[0])
	}
	rateCol := -1
	for i, name := range header {
		if strings.HasPrefix(name, "link.rate_gbps{") {
			rateCol = i
			break
		}
	}
	if rateCol == -1 {
		t.Fatalf("no rate_gbps column in header %v", header)
	}
	// The halve/double controller must visibly change the sampled link
	// rate over the run — the series is not a flat line.
	seen := map[string]bool{}
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			t.Fatalf("row width %d != header width %d", len(cells), len(header))
		}
		seen[cells[rateCol]] = true
	}
	if len(seen) < 2 {
		t.Errorf("rate series %s is flat (%v); want per-epoch changes", header[rateCol], seen)
	}
}

func TestRunWritesMetricsJSONL(t *testing.T) {
	cfg := observeConfig()
	cfg.MetricsOut = filepath.Join(t.TempDir(), "metrics.jsonl")
	cfg.SampleInterval = 100 * time.Microsecond
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if want := 6; len(lines) != want { // 0..500us every 100us
		t.Fatalf("jsonl lines = %d, want %d", len(lines), want)
	}
	for _, line := range lines {
		var row struct {
			TUs     float64            `json:"t_us"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("invalid JSONL row %q: %v", line, err)
		}
		if len(row.Metrics) == 0 {
			t.Fatalf("row at t=%v has no metrics", row.TUs)
		}
	}
}

// TestOutputPathErrorsFailBeforeRun: every output file is created when
// the run is set up, so a path in a missing directory fails at once
// instead of after a run that would take minutes.
func TestOutputPathErrorsFailBeforeRun(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out")
	for _, field := range []string{"MetricsOut", "TraceOut", "HeatmapOut", "HistOut", "ProfileOut", "FlowsOut"} {
		t.Run(field, func(t *testing.T) {
			cfg := observeConfig()
			cfg.Duration = time.Minute // minutes of wall time if it ran
			reflect.ValueOf(&cfg).Elem().FieldByName(field).SetString(missing)
			start := time.Now()
			_, err := Run(cfg)
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Run = %v, want a missing-directory error", err)
			}
			if took := time.Since(start); took > 10*time.Second {
				t.Errorf("bad %s path failed after %v; want before the run starts", field, took)
			}
		})
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// (n+1)th call on. advance checks Err once per epoch, so the run stops
// at exactly n epochs.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Done() <-chan struct{} { return make(chan struct{}) }

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestCanceledRunKeepsMetrics: the rows sampled before a cancellation
// are in the metrics file, ending with a final sample at the instant
// the run stopped.
func TestCanceledRunKeepsMetrics(t *testing.T) {
	cfg := observeConfig()
	cfg.MetricsOut = filepath.Join(t.TempDir(), "metrics.csv")
	cfg.SampleInterval = 50 * time.Microsecond
	// 10 µs epochs: canceled at 230 µs, past the warmup and off the
	// sample grid.
	_, err := RunContext(&cancelAfter{Context: context.Background(), n: 23}, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	data, err := os.ReadFile(cfg.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if !strings.HasPrefix(lines[0], "t_us,") {
		t.Fatalf("header = %.40q", lines[0])
	}
	var times []string
	for _, line := range lines[1:] {
		times = append(times, line[:strings.IndexByte(line, ',')])
	}
	if got, want := strings.Join(times, " "), "0 50 100 150 200 230"; got != want {
		t.Errorf("sampled at %s us, want %s", got, want)
	}
}

// encoders counts the goroutines running a metrics sampler's encoder.
func encoders() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "telemetry.(*Sampler).encodeRows(")
}

// encoderProbe is a context that counts the metrics encoders running at
// each epoch boundary (advance checks Err once per epoch), keeping the
// most it saw, and reports cancellation from its (n+1)th check on;
// n < 0 never cancels.
type encoderProbe struct {
	context.Context
	n, peak int
}

func (c *encoderProbe) Done() <-chan struct{} { return make(chan struct{}) }

func (c *encoderProbe) Err() error {
	c.peak = max(c.peak, encoders())
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestMetricsEncoderLifecycle: a run that streams metrics runs exactly
// one encoder goroutine beside the engine, and RunContext leaves no
// goroutine behind when it returns, whether the run succeeded, was
// canceled mid-run, or wrote to a failing sink. A run whose sampler
// only feeds the inspector starts none.
func TestMetricsEncoderLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		out      string // MetricsOut, under the test's directory unless absolute
		cancelAt int    // epochs before cancellation; -1 runs to the end
		wantErr  bool
	}{
		{"success", "metrics.csv", -1, false},
		{"canceled", "metrics.jsonl", 23, true},
		{"failing-sink", "/dev/full", -1, true},
		{"inspector-only", "", -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := observeConfig()
			cfg.SampleInterval = 50 * time.Microsecond
			switch {
			case tc.out == "":
				cfg.Inspector = NewInspector()
			case filepath.IsAbs(tc.out):
				if _, err := os.Stat(tc.out); err != nil {
					t.Skipf("%s not available", tc.out)
				}
				cfg.MetricsOut = tc.out
			default:
				cfg.MetricsOut = filepath.Join(t.TempDir(), tc.out)
			}
			before := runtime.NumGoroutine()
			ctx := &encoderProbe{Context: context.Background(), n: tc.cancelAt}
			if _, err := RunContext(ctx, cfg); (err != nil) != tc.wantErr {
				t.Fatalf("RunContext error = %v, want error %v", err, tc.wantErr)
			}
			want := 1
			if cfg.MetricsOut == "" {
				want = 0
			}
			if ctx.peak != want {
				t.Errorf("%d metrics encoders ran during the run, want %d", ctx.peak, want)
			}
			// The encoder signals it is done just before it returns, and
			// a finalizer may be running for an earlier test's file, so
			// give both a moment.
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after RunContext returned, %d before it", n, before)
			}
		})
	}
}

// TestHeatmapOnlyRun: a run that writes only the heatmap and the
// utilization histogram paces them with a sampler without a sink, which
// starts no encoder, and writes the same bytes as the run that also
// streams metrics. The horizon (500us) is off the 30us tick grid, so
// the last column is the one the sampler's Finish takes.
func TestHeatmapOnlyRun(t *testing.T) {
	dir := t.TempDir()
	only := observeConfig()
	only.SampleInterval = 30 * time.Microsecond
	withMetrics := only
	only.HeatmapOut = filepath.Join(dir, "only-heat.csv")
	only.HistOut = filepath.Join(dir, "only-hist.csv")
	withMetrics.HeatmapOut = filepath.Join(dir, "heat.csv")
	withMetrics.HistOut = filepath.Join(dir, "hist.csv")
	withMetrics.MetricsOut = filepath.Join(dir, "metrics.csv")
	if _, err := Run(withMetrics); err != nil {
		t.Fatal(err)
	}
	ctx := &encoderProbe{Context: context.Background(), n: -1}
	if _, err := RunContext(ctx, only); err != nil {
		t.Fatal(err)
	}
	if ctx.peak != 0 {
		t.Errorf("%d metrics encoders ran in a heatmap-only run, want 0", ctx.peak)
	}
	for _, pair := range [][2]string{{withMetrics.HeatmapOut, only.HeatmapOut}, {withMetrics.HistOut, only.HistOut}} {
		want, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || string(got) != string(want) {
			t.Errorf("%s (%d bytes) differs from %s (%d bytes)", pair[1], len(got), pair[0], len(want))
		}
	}
	heat, err := os.ReadFile(only.HeatmapOut)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(heat), "\n")
	if !strings.HasSuffix(header, ",480,500") {
		t.Errorf("heatmap header %q does not end in the last tick and the horizon", header)
	}
}

func TestRunWritesChromeTrace(t *testing.T) {
	cfg := observeConfig()
	cfg.TraceOut = filepath.Join(t.TempDir(), "trace.json")
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		counts[ph]++
	}
	if counts["b"] == 0 || counts["b"] != counts["e"] {
		t.Errorf("packet spans unbalanced: %d begins vs %d ends", counts["b"], counts["e"])
	}
	if counts["X"] == 0 {
		t.Error("no link retune spans in trace")
	}
	if counts["M"] == 0 {
		t.Error("no metadata events naming the tracks")
	}
}

// TestNumberOutputs pins the per-run file numbering of the grid
// commands: every non-empty output path gets the run's number, the
// sequence continues across grids, and empty paths stay empty.
func TestNumberOutputs(t *testing.T) {
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i].MetricsOut, cfgs[i].TraceOut, cfgs[i].ProfileOut = "m.csv", "t.json", "p.json"
	}
	NumberOutputs(cfgs[:2], 0)
	NumberOutputs(cfgs[2:], 2) // sequence continues across grids
	want := []string{"m.000.csv", "m.001.csv", "m.002.csv"}
	for i, cfg := range cfgs {
		if cfg.MetricsOut != want[i] {
			t.Errorf("cfg %d MetricsOut = %q, want %q", i, cfg.MetricsOut, want[i])
		}
		if wantTrace := "t.00" + strconv.Itoa(i) + ".json"; cfg.TraceOut != wantTrace {
			t.Errorf("cfg %d TraceOut = %q, want %q", i, cfg.TraceOut, wantTrace)
		}
		if wantProf := "p.00" + strconv.Itoa(i) + ".json"; cfg.ProfileOut != wantProf {
			t.Errorf("cfg %d ProfileOut = %q, want %q", i, cfg.ProfileOut, wantProf)
		}
		if cfg.HeatmapOut != "" || cfg.HistOut != "" || cfg.FlowsOut != "" {
			t.Errorf("cfg %d: empty output paths numbered: %+v", i, cfg)
		}
	}
}

// TestEvalNumbersRunsAcrossExperiments: copies of one evaluation share
// its run sequence, so a second experiment's files follow the first's
// instead of overwriting them.
func TestEvalNumbersRunsAcrossExperiments(t *testing.T) {
	dir := t.TempDir()
	e := DefaultEval()
	e.K, e.C = 4, 4
	e.Warmup, e.Duration = 20*time.Microsecond, 100*time.Microsecond
	e.MetricsOut = filepath.Join(dir, "m.csv")
	for range 2 {
		if _, err := Figure7(e); err != nil { // two runs each
			t.Fatal(err)
		}
	}
	if e.MetricsOut != filepath.Join(dir, "m.csv") {
		t.Errorf("the evaluation base was numbered: %q", e.MetricsOut)
	}
	for i := range 4 {
		path := filepath.Join(dir, "m.00"+strconv.Itoa(i)+".csv")
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("run %d: want a non-empty %s: %v", i, filepath.Base(path), err)
		}
	}
}

// Telemetry files from a parallel grid are byte-identical to a serial
// one: paths are assigned before the fan-out and each run owns its
// files.
func TestGridTelemetryDeterministic(t *testing.T) {
	dir := t.TempDir()
	mkCfgs := func(base string) []Config {
		var cfgs []Config
		for _, policy := range []PolicyKind{PolicyHalveDouble, PolicyMinMax} {
			cfg := observeConfig()
			cfg.Policy = policy
			cfg.MetricsOut = filepath.Join(dir, base+".csv")
			cfg.SampleInterval = 100 * time.Microsecond
			cfgs = append(cfgs, cfg)
		}
		NumberOutputs(cfgs, 0)
		return cfgs
	}
	serial := mkCfgs("serial")
	if _, err := RunGrid(serial, 1); err != nil {
		t.Fatal(err)
	}
	par := mkCfgs("par")
	if _, err := RunGrid(par, 4); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		a, err := os.ReadFile(serial[i].MetricsOut)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(par[i].MetricsOut)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("run %d: parallel telemetry differs from serial", i)
		}
	}
}
