package epnet

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
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

// TestOutputPathErrorsFailBeforeRun: the metrics and trace files are
// created when the run is set up, so a path in a missing directory
// fails at once instead of after a run that would take minutes.
func TestOutputPathErrorsFailBeforeRun(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out")
	for _, field := range []string{"MetricsOut", "TraceOut"} {
		t.Run(field, func(t *testing.T) {
			cfg := observeConfig()
			cfg.Duration = time.Minute // minutes of wall time if it ran
			if field == "MetricsOut" {
				cfg.MetricsOut = missing
			} else {
				cfg.TraceOut = missing
			}
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

func TestTelemetryOptsApply(t *testing.T) {
	opts := &TelemetryOpts{MetricsOut: "m.csv", TraceOut: "t.json", ProfileOut: "p.json"}
	cfgs := make([]Config, 3)
	opts.Apply(cfgs[:2])
	opts.Apply(cfgs[2:]) // sequence continues across grids
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
	}
	// Disabled opts leave configurations untouched.
	var off *TelemetryOpts
	plain := make([]Config, 1)
	off.Apply(plain)
	(&TelemetryOpts{}).Apply(plain)
	if plain[0].MetricsOut != "" || plain[0].TraceOut != "" || plain[0].ProfileOut != "" {
		t.Errorf("disabled telemetry stamped paths: %+v", plain[0])
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
			cfgs = append(cfgs, cfg)
		}
		opts := &TelemetryOpts{
			MetricsOut:     filepath.Join(dir, base+".csv"),
			SampleInterval: 100 * time.Microsecond,
		}
		opts.Apply(cfgs)
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
