package epnet

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestConfigValidateDefaults(t *testing.T) {
	cfg := Config{K: 4, N: 2, C: 4, Duration: time.Millisecond}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Workload != WorkloadUniform || cfg.Policy != PolicyBaseline {
		t.Errorf("defaults: workload=%q policy=%q", cfg.Workload, cfg.Policy)
	}
	if cfg.TargetUtil != 0.5 || cfg.Reactivation != time.Microsecond {
		t.Errorf("defaults: target=%v react=%v", cfg.TargetUtil, cfg.Reactivation)
	}
	if cfg.Epoch != 10*time.Microsecond {
		t.Errorf("default epoch = %v, want 10x reactivation", cfg.Epoch)
	}
	if cfg.MaxPacket != 2048 {
		t.Errorf("default max packet = %d", cfg.MaxPacket)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	base := func() Config { return Config{K: 4, N: 2, C: 4, Duration: time.Millisecond} }
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad topology", func(c *Config) { c.Topology = "ring" }},
		{"dyntopo on fattree", func(c *Config) { c.Topology = TopoFatTree; c.DynTopo = true }},
		{"k too small", func(c *Config) { c.K = 1 }},
		{"c too small", func(c *Config) { c.C = 0 }},
		{"n too small", func(c *Config) { c.N = 1 }},
		{"bad workload", func(c *Config) { c.Workload = "netflix" }},
		{"bad policy", func(c *Config) { c.Policy = "magic" }},
		{"bad load", func(c *Config) { c.Load = 1.0 }},
		{"bad target", func(c *Config) { c.TargetUtil = 1.5 }},
		{"negative reactivation", func(c *Config) { c.Reactivation = -time.Microsecond }},
		{"epoch below reactivation", func(c *Config) { c.Epoch = time.Microsecond; c.Reactivation = 2 * time.Microsecond }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }},
		{"tiny packet", func(c *Config) { c.MaxPacket = 32 }},
		{"negative shards", func(c *Config) { c.Shards = -1 }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestConfigValidateTraceOut: the Chrome trace renders the flow report,
// so it turns flow tracing on at the default sample rate and runs at
// any shard count.
func TestConfigValidateTraceOut(t *testing.T) {
	cfg := Config{K: 4, N: 2, C: 4, Duration: time.Millisecond, Shards: 2, TraceOut: "x.trace"}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("tracing with explicit shards rejected: %v", err)
	}
	if cfg.Shards != 2 || !cfg.FlowTrace || cfg.FlowSample != 1.0/64 {
		t.Errorf("validated: shards=%d flow_trace=%v flow_sample=%v, want 2, true, 1/64",
			cfg.Shards, cfg.FlowTrace, cfg.FlowSample)
	}
}

// TestConfigAutoShards pins the Shards=0 auto resolution against the
// engine crossover measured on 2 CPUs: one shard per 4,096 hosts,
// capped at the CPUs, untouched when explicit.
func TestConfigAutoShards(t *testing.T) {
	fbfly := func(k, n, c int) Config { return Config{Topology: TopoFBFLY, K: k, N: n, C: c} }
	cases := []struct {
		name  string
		cfg   Config
		procs int
		want  int
	}{
		// The harness's fabrics, 54-64 hosts: serial.
		{"harness 8-ary 2-flat", fbfly(8, 2, 8), 2, 1},
		{"routing 4-ary 3-flat", fbfly(4, 3, 4), 2, 1},
		{"fattree K=8", Config{Topology: TopoFatTree, K: 8, C: 8}, 2, 1},
		{"clos3 K=6", Config{Topology: TopoClos3, K: 6}, 2, 1},
		// The paper's 15-ary 3-flat, 3,375 hosts: serial at any CPU count.
		{"paper fbfly", fbfly(15, 3, 15), 2, 1},
		{"paper fbfly at 8 procs", fbfly(15, 3, 15), 8, 1},
		// Serial wins at 4,096 hosts; 2 shards win from 10,000.
		{"4,096 hosts", fbfly(8, 4, 8), 2, 1},
		{"10,000 hosts", fbfly(10, 4, 10), 2, 2},
		{"20,736 hosts", fbfly(12, 4, 12), 2, 2},
		{"32,768 hosts", fbfly(8, 5, 8), 2, 2},
		// The CPU cap binds, and one CPU is always serial.
		{"32,768 hosts at 8 procs", fbfly(8, 5, 8), 8, 8},
		{"20,736 hosts at 8 procs", fbfly(12, 4, 12), 8, 5},
		{"32,768 hosts at 1 proc", fbfly(8, 5, 8), 1, 1},
		{"fattree 16,384 hosts", Config{Topology: TopoFatTree, K: 128, C: 128}, 2, 2},
		{"clos3 K=32, 8,192 hosts", Config{Topology: TopoClos3, K: 32}, 2, 2},
		// A shape the topology refuses to build (2^39 switches) leaves
		// the error to the run's build.
		{"fbfly too large to build", fbfly(2, 40, 1), 2, 1},
	}
	for _, tc := range cases {
		if got := tc.cfg.autoShards(tc.procs); got != tc.want {
			t.Errorf("%s: autoShards(%d) = %d, want %d", tc.name, tc.procs, got, tc.want)
		}
	}

	// Validate resolves 0 through the same path (procs from the runtime,
	// so only bounds are portable) and leaves explicit counts alone.
	cfg := Config{K: 4, N: 2, C: 4, Duration: time.Millisecond}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Shards < 1 {
		t.Errorf("auto shards resolved to %d, want >= 1", cfg.Shards)
	}
	cfg = Config{K: 4, N: 2, C: 4, Duration: time.Millisecond, Shards: 1}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Shards != 1 {
		t.Errorf("explicit Shards=1 rewritten to %d", cfg.Shards)
	}
}

// fastCfg returns a quick configuration for facade tests.
func fastCfg() Config {
	return NewConfig(TopoFBFLY,
		WithShape(4, 2, 4),
		WithWindow(100*time.Microsecond, 500*time.Microsecond))
}

func TestRunBaseline(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyBaseline
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 16 || res.Switches != 4 {
		t.Errorf("size: %d hosts %d switches", res.Hosts, res.Switches)
	}
	// Baseline burns full power under both profiles.
	if math.Abs(res.RelPowerMeasured-1) > 1e-9 || math.Abs(res.RelPowerIdeal-1) > 1e-9 {
		t.Errorf("baseline power: measured=%v ideal=%v", res.RelPowerMeasured, res.RelPowerIdeal)
	}
	if res.RateShare[40] < 0.999 {
		t.Errorf("baseline rate share at 40G = %v", res.RateShare[40])
	}
	if res.Packets == 0 || res.MeanLatency == 0 {
		t.Error("no latency samples collected")
	}
	if res.Reconfigurations != 0 {
		t.Errorf("baseline reconfigured %d times", res.Reconfigurations)
	}
}

func TestRunHalveDoubleSavesPower(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyHalveDouble
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RelPowerMeasured >= 0.95 {
		t.Errorf("measured power %v: no savings", res.RelPowerMeasured)
	}
	if res.RelPowerIdeal >= res.RelPowerMeasured {
		t.Errorf("ideal power %v not below measured %v", res.RelPowerIdeal, res.RelPowerMeasured)
	}
	// Ideal power can never beat the ideal bound (average utilization)
	// by construction.
	if res.RelPowerIdeal < res.AvgUtil-0.01 {
		t.Errorf("ideal power %v below the ideal bound %v", res.RelPowerIdeal, res.AvgUtil)
	}
	if res.Reconfigurations == 0 {
		t.Error("no reconfigurations recorded")
	}
}

func TestRunIndependentBeatsPaired(t *testing.T) {
	paired := fastCfg()
	paired.Policy = PolicyHalveDouble
	pres, err := Run(paired)
	if err != nil {
		t.Fatal(err)
	}
	indep := paired
	indep.Independent = true
	ires, err := Run(indep)
	if err != nil {
		t.Fatal(err)
	}
	if ires.RelPowerIdeal >= pres.RelPowerIdeal {
		t.Errorf("independent %v not below paired %v (ideal profile)",
			ires.RelPowerIdeal, pres.RelPowerIdeal)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyHalveDouble
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanLatency != b.MeanLatency || a.RelPowerIdeal != b.RelPowerIdeal ||
		a.DeliveredPackets != b.DeliveredPackets {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestRunFatTree(t *testing.T) {
	cfg := fastCfg()
	cfg.Topology = TopoFatTree
	cfg.Policy = PolicyHalveDouble
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 16 || res.Switches != 8 {
		t.Errorf("fat tree size: %d hosts %d switches", res.Hosts, res.Switches)
	}
	if res.RelPowerMeasured >= 1 {
		t.Error("fat tree rate tuning saved nothing")
	}
	if res.Packets == 0 {
		t.Error("no deliveries on fat tree")
	}
}

func TestRunDynTopo(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyHalveDouble
	cfg.DynTopo = true
	cfg.Workload = WorkloadAdvert
	cfg.Duration = 2 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DynTransitions == 0 {
		t.Error("dynamic topology never transitioned on a low-load workload")
	}
	if res.OffShare == 0 {
		t.Error("no channel-time spent off")
	}
}

func TestRunStaticMin(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyStaticMin
	cfg.Workload = WorkloadUniform
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The always-slowest network consumes the Figure 5 floor...
	if math.Abs(res.RelPowerMeasured-0.42) > 0.001 {
		t.Errorf("static-min measured power = %v, want 0.42", res.RelPowerMeasured)
	}
	if math.Abs(res.RelPowerIdeal-0.0625) > 0.001 {
		t.Errorf("static-min ideal power = %v, want 0.0625", res.RelPowerIdeal)
	}
	// ...but cannot keep up with 23% offered load on 6.25% links.
	if res.BacklogBytes == 0 {
		t.Error("static-min kept up with Uniform load; expected growing backlog")
	}
}

func TestRunString(t *testing.T) {
	cfg := fastCfg()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); s == "" {
		t.Error("empty result string")
	}
}

func TestWorkloadLabel(t *testing.T) {
	if WorkloadLabel(WorkloadUniform) != "Uniform" ||
		WorkloadLabel(WorkloadAdvert) != "Advert" ||
		WorkloadLabel(WorkloadSearch) != "Search" {
		t.Error("canonical labels wrong")
	}
	if WorkloadLabel(WorkloadHotspot) != "hotspot" {
		t.Errorf("fallthrough label = %q", WorkloadLabel(WorkloadHotspot))
	}
}

func TestSavingsProjection(t *testing.T) {
	w, d := SavingsProjection(0.2) // 80% saved
	wantW := 737280.0 * 0.8
	if math.Abs(w-wantW) > 1 {
		t.Errorf("saved watts = %v, want %v", w, wantW)
	}
	if d < 2.2e6 || d > 2.5e6 {
		t.Errorf("saved dollars = %v, want ~$2.3M", d)
	}
}

func TestAnalyticsWrappers(t *testing.T) {
	tab := Table1()
	if tab.Clos.SwitchChips != 8235 || tab.FBFLY.SwitchChips != 4096 {
		t.Error("Table1 wrapper mismatch")
	}
	if _, err := CustomTable1(8, 5, 8, 36); err != nil {
		t.Errorf("CustomTable1: %v", err)
	}
	if _, err := CustomTable1(1, 5, 8, 36); err == nil {
		t.Error("CustomTable1 accepted k=1")
	}
	f1 := Figure1()
	if len(f1.Scenarios) != 3 {
		t.Error("Figure1 wrapper mismatch")
	}
	pts, idle, off := Figure5()
	if len(pts) != 5 || idle <= off {
		t.Errorf("Figure5 wrapper: %d points idle=%v off=%v", len(pts), idle, off)
	}
	if len(Figure6()) != 16 {
		t.Error("Figure6 wrapper mismatch")
	}
	modes := Table2()
	if len(modes) != 6 {
		t.Errorf("Table2: %d modes", len(modes))
	}
	if CostOfWatts(1000) < 3900 || CostOfWatts(1000) > 3950 {
		t.Errorf("CostOfWatts(1kW) = %v", CostOfWatts(1000))
	}
}

// testEval is a very small experiment scale so experiment-shape tests
// run quickly.
func testEval() EvalConfig {
	e := DefaultEval()
	e.K, e.N, e.C = 4, 2, 4
	e.Warmup = 200 * time.Microsecond
	e.Duration = time.Millisecond
	return e
}

func TestFigure7Shape(t *testing.T) {
	res, err := Figure7(testEval())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, f := range res.Paired {
		sum += f
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("paired shares sum to %v", sum)
	}
	// Independent control spends at least as much time at the lowest
	// rate as paired control.
	if res.Independent[2.5] < res.Paired[2.5] {
		t.Errorf("independent 2.5G share %v below paired %v",
			res.Independent[2.5], res.Paired[2.5])
	}
}

func TestFigure8Shape(t *testing.T) {
	rows, err := Figure8(testEval())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.IdealIndependent >= r.IdealPaired {
			t.Errorf("%s: independent %v not below paired %v",
				r.Workload, r.IdealIndependent, r.IdealPaired)
		}
		if r.MeasuredPaired < 0.42 {
			t.Errorf("%s: measured power %v below the Figure 5 floor", r.Workload, r.MeasuredPaired)
		}
		if r.IdealPaired < r.IdealBound-0.02 {
			t.Errorf("%s: ideal power %v beats the bound %v", r.Workload, r.IdealPaired, r.IdealBound)
		}
	}
}

func TestRunQueueAwarePolicy(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyQueueAware
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RelPowerMeasured >= 1 || res.Reconfigurations == 0 {
		t.Errorf("queue-aware policy inactive: power=%v reconfigs=%d",
			res.RelPowerMeasured, res.Reconfigurations)
	}
}

func TestRunModeAwareReactivation(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyHalveDouble
	cfg.ModeAwareReactivation = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigurations == 0 {
		t.Error("no reconfigurations with mode-aware penalties")
	}
}

func TestRunDORRouting(t *testing.T) {
	cfg := fastCfg()
	cfg.N = 3 // give DOR multiple dimensions to order
	cfg.Routing = RoutingDOR
	cfg.Policy = PolicyHalveDouble
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 {
		t.Error("no deliveries under DOR")
	}
	// DOR on a fat tree is rejected.
	bad := fastCfg()
	bad.Topology = TopoFatTree
	bad.Routing = RoutingDOR
	if _, err := Run(bad); err == nil {
		t.Error("DOR accepted on fat tree")
	}
}

func TestRunClassPowerBreakdown(t *testing.T) {
	cfg := fastCfg()
	cfg.N = 3 // dims >= 2 so optical links exist
	cfg.Policy = PolicyHalveDouble
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.ClassPower["electrical"]; !ok {
		t.Fatal("no electrical class power")
	}
	if _, ok := res.ClassPower["optical"]; !ok {
		t.Fatal("no optical class power")
	}
	for class, p := range res.ClassPower {
		if p <= 0 || p > 1 {
			t.Errorf("class %s power %v out of (0,1]", class, p)
		}
	}
}

func TestRunTraceWorkload(t *testing.T) {
	// Generate a trace through the public pipeline and replay it.
	dir := t.TempDir()
	path := dir + "/t.trace"
	cfg := fastCfg()
	cfg.Workload = WorkloadTrace
	cfg.TracePath = path
	if _, err := Run(cfg); err == nil {
		t.Fatal("missing trace file accepted")
	}
	// Write a tiny trace by hand using the tracegen format via the
	// internal package is off-limits here; drive cmd/tracegen's logic
	// through a minimal file instead: header + one record.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// magic, count=1, record {at=1us(ps), src=0, dst=1, size=4096}
	f.Write([]byte("EPTRACE1"))
	le := func(v uint64) []byte {
		b := make([]byte, 8)
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		return b
	}
	f.Write(le(1))
	f.Write(le(1e6)) // 1 us in ps
	f.Write(le(0))
	f.Write(le(1))
	f.Write(le(4096))
	f.Close()

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectedPackets != 2 { // 4096 B = two 2048 B packets
		t.Errorf("injected %d packets, want 2", res.InjectedPackets)
	}
	if res.DeliveredPackets != 2 {
		t.Errorf("delivered %d packets, want 2", res.DeliveredPackets)
	}
}

func TestRoutingAblationShape(t *testing.T) {
	rows, err := RoutingAblation(testEval(), WorkloadPermutation)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Routing != RoutingAdaptive || rows[1].Routing != RoutingDOR {
		t.Fatal("row order")
	}
	if rows[0].P99Lat > rows[1].P99Lat {
		// Adaptive should not be worse at the tail on permutation.
	} else if rows[0].P99Lat == 0 {
		t.Error("no latency measured")
	}
}

func TestReactivationAblationShape(t *testing.T) {
	rows, err := ReactivationAblation(testEval(), WorkloadSearch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Reconfigs == 0 {
			t.Errorf("%s: no reconfigurations", r.Name)
		}
	}
}

func TestPolicyAblationShape(t *testing.T) {
	rows, err := PolicyAblation(testEval(), WorkloadSearch)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[PolicyKind]PolicyAblationRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	if byName[PolicyBaseline].RelPowerM != 1 {
		t.Error("baseline not at full power")
	}
	if byName[PolicyStaticMin].RelPowerM > 0.43 {
		t.Errorf("static-min measured %v, want 42%% floor", byName[PolicyStaticMin].RelPowerM)
	}
	if byName[PolicyStaticMin].Backlog <= byName[PolicyHalveDouble].Backlog {
		t.Error("static-min should have the largest backlog")
	}
}

func TestDynTopoExperimentShape(t *testing.T) {
	rows, err := DynTopoExperiment(testEval(), WorkloadAdvert)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].OffShare != 0 {
		t.Error("rate-tuning-only run powered links off")
	}
	if rows[1].Transitions == 0 {
		t.Error("dyntopo run never transitioned")
	}
}

func TestResultEnrichment(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyHalveDouble
	cfg.Workload = WorkloadSearch
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Asymmetry: the Search trace is read-heavy, so link pairs are
	// unbalanced.
	if res.Asymmetry <= 0.1 || res.Asymmetry > 1 {
		t.Errorf("asymmetry = %v, want substantial (0.1, 1]", res.Asymmetry)
	}
	// Energy estimate: relative power x part power.
	wantWatts := res.RelPowerMeasured * (float64(res.Switches)*100 + float64(res.Hosts)*10)
	if math.Abs(res.EstimatedWatts-wantWatts) > 0.01 {
		t.Errorf("EstimatedWatts = %v, want %v", res.EstimatedWatts, wantWatts)
	}
	wantJoules := res.EstimatedWatts * cfg.Duration.Seconds()
	if math.Abs(res.EnergyJoules-wantJoules)/wantJoules > 0.001 {
		t.Errorf("EnergyJoules = %v, want %v", res.EnergyJoules, wantJoules)
	}
	// Latency CDF: counts sum to Packets, bounds ascend.
	var total int64
	prev := time.Duration(-1)
	for _, b := range res.LatencyCDF {
		if b.Upper <= prev {
			t.Fatal("CDF bounds not ascending")
		}
		prev = b.Upper
		total += b.Count
	}
	if total != res.Packets {
		t.Errorf("CDF counts sum %d, packets %d", total, res.Packets)
	}
}

func TestUniformMoreSymmetricThanSearch(t *testing.T) {
	run := func(w WorkloadKind) float64 {
		cfg := fastCfg()
		cfg.Workload = w
		cfg.Duration = 2 * time.Millisecond
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Asymmetry
	}
	uni := run(WorkloadUniform)
	sea := run(WorkloadSearch)
	if sea <= uni {
		t.Errorf("search asymmetry %v not above uniform %v", sea, uni)
	}
}

func TestOverSubscriptionShape(t *testing.T) {
	rows, err := OverSubscription(testEval(), WorkloadSearch, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// More concentration = more hosts on the same switches = lower
	// per-host switch power.
	for i := 1; i < len(rows); i++ {
		if rows[i].Hosts <= rows[i-1].Hosts {
			t.Error("hosts not increasing with c")
		}
		if rows[i].WattsPerHost >= rows[i-1].WattsPerHost {
			t.Error("per-host watts not decreasing with c")
		}
	}
}

func TestTopologyComparisonShape(t *testing.T) {
	rows, err := TopologyComparison(testEval(), WorkloadSearch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Topology != TopoFBFLY || rows[1].Topology != TopoFatTree ||
		rows[2].Topology != TopoClos3 {
		t.Fatal("row order")
	}
	if rows[0].Hosts != rows[1].Hosts {
		t.Errorf("host counts differ: %d vs %d", rows[0].Hosts, rows[1].Hosts)
	}
	// Both folded-Clos variants need more switching hardware than the
	// flattened butterfly for a comparable host count.
	if rows[1].Switches <= rows[0].Switches {
		t.Errorf("fat tree switches %d not above fbfly %d", rows[1].Switches, rows[0].Switches)
	}
	if rows[2].Switches <= rows[0].Switches {
		t.Errorf("clos3 switches %d not above fbfly %d", rows[2].Switches, rows[0].Switches)
	}
}

func TestRunClos3(t *testing.T) {
	cfg := fastCfg()
	cfg.Topology = TopoClos3
	cfg.K = 4
	cfg.Policy = PolicyHalveDouble
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 16 || res.Switches != 20 {
		t.Errorf("clos3 size: %d hosts %d switches, want 16/20", res.Hosts, res.Switches)
	}
	if res.InjectedPackets == 0 || res.DeliveredPackets == 0 {
		t.Error("no traffic on clos3")
	}
	// Large shuffle blocks can still be draining at the horizon; most
	// packets must get through.
	if float64(res.DeliveredPackets) < 0.5*float64(res.InjectedPackets) {
		t.Errorf("clos3 delivered %d of %d", res.DeliveredPackets, res.InjectedPackets)
	}
	if res.RelPowerMeasured >= 1 {
		t.Error("clos3 rate tuning saved nothing")
	}
	// Odd K rejected.
	bad := fastCfg()
	bad.Topology = TopoClos3
	bad.K = 5
	if _, err := Run(bad); err == nil {
		t.Error("odd clos3 radix accepted")
	}
}

func TestPowerTrace(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyHalveDouble
	cfg.PowerSampleEvery = 50 * time.Microsecond
	cfg.Duration = time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PowerTrace) < 15 || len(res.PowerTrace) > 21 {
		t.Fatalf("trace samples = %d, want ~20", len(res.PowerTrace))
	}
	prev := time.Duration(-1)
	for _, s := range res.PowerTrace {
		if s.At <= prev {
			t.Fatal("trace times not ascending")
		}
		prev = s.At
		if s.Measured < 0.4 || s.Measured > 1.001 {
			t.Errorf("measured sample %v out of range", s.Measured)
		}
		if s.Ideal < 0 || s.Ideal > 1.001 {
			t.Errorf("ideal sample %v out of range", s.Ideal)
		}
		if s.Util < 0 || s.Util > 1.5 {
			t.Errorf("util sample %v out of range", s.Util)
		}
		// Ideal power cannot exceed measured.
		if s.Ideal > s.Measured+1e-9 {
			t.Errorf("ideal %v above measured %v", s.Ideal, s.Measured)
		}
	}
	// Sampling off by default.
	cfg.PowerSampleEvery = 0
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PowerTrace) != 0 {
		t.Error("trace populated with sampling off")
	}
}

// TestPowerTraceGrid: the power trace samples every interval from one
// interval past the warmup boundary, a run without warmup from its first
// interval, and a window off the tick grid keeps no partial last row.
func TestPowerTraceGrid(t *testing.T) {
	for _, warmup := range []time.Duration{0, 100 * time.Microsecond} {
		cfg := fastCfg()
		cfg.Warmup = warmup
		cfg.Duration = 230 * time.Microsecond
		cfg.PowerSampleEvery = 50 * time.Microsecond
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var at []time.Duration
		for _, s := range res.PowerTrace {
			at = append(at, s.At)
		}
		want := []time.Duration{50 * time.Microsecond, 100 * time.Microsecond,
			150 * time.Microsecond, 200 * time.Microsecond}
		if !slices.Equal(at, want) {
			t.Errorf("warmup %v: power trace sampled at %v, want %v", warmup, at, want)
		}
		if res.PowerTrace[0].Util <= 0 {
			t.Errorf("warmup %v: first row's utilization %v, want the traffic of its interval",
				warmup, res.PowerTrace[0].Util)
		}
	}
}

// TestRunLinkFailures: abruptly killing inter-switch links mid-run with
// the fail-random schedule verb must not lose traffic — adaptive routing
// misroutes around the failures (§1's failure-domain decoupling).
func TestRunLinkFailures(t *testing.T) {
	cfg := fastCfg()
	cfg.K, cfg.N, cfg.C = 8, 2, 8
	cfg.Policy = PolicyHalveDouble
	cfg.Workload = WorkloadUniform
	cfg.Duration = 2 * time.Millisecond
	cfg.Faults = "500us fail-random 4"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OffShare == 0 {
		t.Error("no channel-time off after failures")
	}
	if res.Faults.LinkFailures != 4 {
		t.Errorf("link failures = %d, want 4", res.Faults.LinkFailures)
	}
	// Nearly everything still delivers (in-flight tail allowed).
	if float64(res.DeliveredPackets) < 0.9*float64(res.InjectedPackets) {
		t.Errorf("delivered %d of %d with failures", res.DeliveredPackets, res.InjectedPackets)
	}
	// Dead ports must be maskable: dimension-order routing is rejected.
	bad := cfg
	bad.N = 3
	bad.Routing = RoutingDOR
	if _, err := Run(bad); err == nil {
		t.Error("failures with DOR accepted")
	}
	// A count below one is a schedule syntax error.
	bad = cfg
	bad.Faults = "500us fail-random 0"
	if _, err := Run(bad); err == nil {
		t.Error("fail-random 0 accepted")
	}
}

func TestMessageLatency(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyHalveDouble
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 {
		t.Fatal("no message completions recorded")
	}
	// Message means can sit below packet means (small messages finish
	// fast while large messages contribute many slow packets), but a
	// completion time can never be zero.
	if res.MsgMeanLatency <= 0 {
		t.Errorf("message mean %v", res.MsgMeanLatency)
	}
	if res.MsgP99Latency < res.MsgMeanLatency {
		t.Errorf("message p99 %v below mean %v", res.MsgP99Latency, res.MsgMeanLatency)
	}
}

func TestRateShareMapJSON(t *testing.T) {
	m := RateShareMap{2.5: 0.75, 40: 0.25}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back RateShareMap
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[2.5] != 0.75 || back[40] != 0.25 {
		t.Errorf("round trip = %v", back)
	}
	// Bad keys rejected.
	if err := json.Unmarshal([]byte(`{"not-a-number":1}`), &back); err == nil {
		t.Error("bad key accepted")
	}
}

func TestResilienceShape(t *testing.T) {
	rows, err := Resilience(testEval(), WorkloadSearch, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// In-flight shuffle blocks at the horizon keep this below 1.0
		// even with zero failures; failures must not collapse it.
		if r.DeliveryRate < 0.6 {
			t.Errorf("%d failures: delivery %.2f", r.FailedLinks, r.DeliveryRate)
		}
	}
}

func TestSerDesSweepAPI(t *testing.T) {
	for _, ch := range []SerDesChannel{SerDesShortCopper, SerDesLongCopper, SerDesOptical} {
		pts, best, err := SerDesSweep(ch)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) == 0 || !best.Feasible {
			t.Errorf("%s: %d points, best feasible=%v", ch, len(pts), best.Feasible)
		}
	}
	if _, _, err := SerDesSweep("coax"); err == nil {
		t.Error("unknown channel accepted")
	}
}

func TestRunTornado(t *testing.T) {
	cfg := fastCfg()
	cfg.Workload = WorkloadTornado
	cfg.Policy = PolicyHalveDouble
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 {
		t.Error("no tornado deliveries")
	}
	// Tornado loads host uplinks and downlinks alike (every host both
	// sends and receives), so pair asymmetry is moderate rather than
	// extreme — but still present on inter-switch links.
	if res.Asymmetry < 0.1 {
		t.Errorf("tornado asymmetry = %v, want > 0.1", res.Asymmetry)
	}
}
