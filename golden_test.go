package epnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// The goldens in this file pin outputs that no other test compares
// byte for byte: the sampled power trace, the occupancy-derived power
// results and the two checked-in observability examples. Regenerate
// them intentionally with
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

// TestPowerResultGolden pins every Result field derived from channel
// time at rate, one JSON line per cell. encoding/json renders floats at
// full precision, so a change in the order a power or share is summed
// shows here, where the harness's 0.1% tables would hide it. The cells
// cover both link classes (a 3-flat), independent control, powered-off
// time (dynamic topology) and capped rungs plus a failed link (faults).
func TestPowerResultGolden(t *testing.T) {
	cell := func(mod func(*Config)) Config {
		cfg := fastCfg()
		cfg.Shards = 1
		cfg.Attribution = true
		mod(&cfg)
		return cfg
	}
	cells := []struct {
		name string
		cfg  Config
	}{
		{"search-paired-3flat", cell(func(c *Config) { c.Workload, c.N = WorkloadSearch, 3 })},
		{"uniform-independent", cell(func(c *Config) { c.Workload, c.Independent = WorkloadUniform, true })},
		{"advert-dyntopo", cell(func(c *Config) { c.Workload, c.DynTopo = WorkloadAdvert, true })},
		{"uniform-faults", cell(func(c *Config) {
			c.Workload = WorkloadUniform
			c.Faults = "100us degrade-link s0p4 10; 200us fail-link s1p5; 400us repair-link s1p5"
		})},
	}
	var b bytes.Buffer
	for _, c := range cells {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		attr, err := json.Marshal(res.Attribution)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(struct {
			Cell             string             `json:"cell"`
			RelPowerMeasured float64            `json:"rel_power_measured"`
			RelPowerIdeal    float64            `json:"rel_power_ideal"`
			EnergyJoules     float64            `json:"energy_j"`
			OffShare         float64            `json:"off_share"`
			RateShare        RateShareMap       `json:"rate_share"`
			ClassPower       map[string]float64 `json:"class_power"`
			Attribution      string             `json:"attribution_sha256"`
		}{c.name, res.RelPowerMeasured, res.RelPowerIdeal, res.EnergyJoules,
			res.OffShare, res.RateShare, res.ClassPower,
			fmt.Sprintf("%x", sha256.Sum256(attr))})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	checkGolden(t, filepath.Join("results", "power_result.jsonl"), b.Bytes())
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

// TestConfigJSONGolden pins Config's JSON form, one json.Marshal line
// per config: the zero Config, DefaultConfig, each preset in PresetNames
// order, each embedded scenario loaded over DefaultConfig, and one
// config with every field set. The last fails the test when a field
// other than Inspector is zero, so a new field has to join it and its
// key shows up here.
func TestConfigJSONGolden(t *testing.T) {
	cfgs := []Config{{}, DefaultConfig()}
	for _, name := range PresetNames() {
		p, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, p)
	}
	for _, name := range ScenarioNames() {
		c, err := LoadScenario(name, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, c)
	}
	diurnal, err := LoadScenario("diurnal", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	full := Config{
		Topology: TopoFatTree, K: 6, N: 3, C: 5,
		Workload: WorkloadTrace, Load: 0.3, TracePath: "search.trace",
		Policy: PolicyQueueAware, TargetUtil: 0.625,
		Independent: true, Routing: RoutingDOR, ModeAwareReactivation: true,
		Reactivation: 250 * time.Nanosecond, Epoch: 2500 * time.Nanosecond,
		DynTopo: true,
		Warmup:  150 * time.Microsecond, Duration: 1500 * time.Microsecond,
		Seed: 7, Shards: 3, MaxPacket: 4096,
		PowerSampleEvery: 25 * time.Microsecond,
		MetricsOut:       "metrics.jsonl", SampleInterval: 50 * time.Microsecond,
		TraceOut: "trace.json", HeatmapOut: "heatmap.csv", HistOut: "hist.csv",
		Attribution: true, Profile: true, ProfileOut: "profile.csv",
		FlowTrace: true, FlowSample: 0.125, FlowsOut: "flows.csv",
		Faults:    "50us fail-link s0p8; 400us repair-link s0p8",
		FaultRate: 0.5, FaultMTTR: 120 * time.Microsecond,
		Scenario: diurnal.Scenario,
	}
	v := reflect.ValueOf(full)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "Inspector" && v.Field(i).IsZero() {
			t.Errorf("Config.%s is zero in the all-fields config; set it so its key is pinned", name)
		}
	}
	cfgs = append(cfgs, full)
	var b bytes.Buffer
	for _, c := range cfgs {
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	checkGolden(t, filepath.Join("results", "config_json.jsonl"), b.Bytes())
}

// TestFlowReportGolden pins the flow-trace report in its three forms:
// the -flows-out JSON, the per-phase CSV and the text epsim -flow-trace
// prints. The run is the one make smoke-flows traces: the chaos
// scenario with every packet traced, so the report carries phases,
// exemplars, fault dumps and a drop dump.
func TestFlowReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario run")
	}
	cfg, err := LoadScenario("chaos", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warmup = 100 * time.Microsecond
	cfg.Shards = 1
	cfg.FlowSample = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flows.json")
	if err := writeFlowsOut(path, res.FlowTrace); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var csv, txt bytes.Buffer
	if err := res.FlowTrace.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := res.FlowTrace.WriteReport(&txt); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("results", "flows_example.json"), js)
	checkGolden(t, filepath.Join("results", "flows_example.csv"), csv.Bytes())
	checkGolden(t, filepath.Join("results", "flows_example.txt"), txt.Bytes())
}
