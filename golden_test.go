package epnet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// The goldens in this file pin outputs that no other test compares
// byte for byte: the sampled power trace and the two checked-in
// observability examples. Regenerate them intentionally with
// EPNET_UPDATE_GOLDEN=1 go test -run Golden .

// checkGolden compares got against the golden file at path, or rewrites
// the file when EPNET_UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("EPNET_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with EPNET_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("output diverges from %s (regenerate with EPNET_UPDATE_GOLDEN=1 if intended)\nwant:\n%s\ngot:\n%s",
			path, want, got)
	}
}

// TestPowerTraceGolden pins Result.PowerTrace sample for sample, with a
// link failure in the window so the powered-off branch is sampled too.
// Floats render at full precision, so any change in summation order
// shows.
func TestPowerTraceGolden(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyHalveDouble
	cfg.Workload = WorkloadUniform
	cfg.Shards = 1
	cfg.PowerSampleEvery = 25 * time.Microsecond
	cfg.Faults = "100us fail-link s0p4; 300us repair-link s0p4"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PowerTrace) == 0 {
		t.Fatal("no power samples")
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b bytes.Buffer
	b.WriteString("at_ns,measured,ideal,util\n")
	for _, s := range res.PowerTrace {
		fmt.Fprintf(&b, "%d,%s,%s,%s\n", s.At.Nanoseconds(), g(s.Measured), g(s.Ideal), g(s.Util))
	}
	checkGolden(t, filepath.Join("results", "power_trace.csv"), b.Bytes())
}

// TestTelemetryExampleGoldens reproduces the checked-in sampled-series
// and heatmap examples with the configuration docs/observability.md
// documents:
//
//	epsim -k 4 -n 2 -c 4 -workload search -policy halve-double \
//	      -duration 500us -warmup 100us -sample-interval 50us \
//	      -metrics-out results/telemetry_example.csv \
//	      -heatmap-out results/heatmap_example.csv
//
// and, for the JSON Lines encoding, the same command with
// -metrics-out results/telemetry_example.jsonl.
func TestTelemetryExampleGoldens(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.K, cfg.N, cfg.C = 4, 2, 4
	cfg.Workload = WorkloadSearch
	cfg.Policy = PolicyHalveDouble
	cfg.Duration = 500 * time.Microsecond
	cfg.Warmup = 100 * time.Microsecond
	cfg.SampleInterval = 50 * time.Microsecond
	cfg.MetricsOut = filepath.Join(dir, "telemetry.csv")
	cfg.HeatmapOut = filepath.Join(dir, "heatmap.csv")
	jcfg := cfg
	jcfg.MetricsOut = filepath.Join(dir, "telemetry.jsonl")
	jcfg.HeatmapOut = filepath.Join(dir, "heatmap-jsonl-run.csv")
	for _, c := range []Config{cfg, jcfg} {
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []struct{ got, golden string }{
		{cfg.MetricsOut, "telemetry_example.csv"},
		{jcfg.MetricsOut, "telemetry_example.jsonl"},
		{cfg.HeatmapOut, "heatmap_example.csv"},
		{jcfg.HeatmapOut, "heatmap_example.csv"},
	} {
		got, err := os.ReadFile(f.got)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("results", f.golden), got)
	}
}
