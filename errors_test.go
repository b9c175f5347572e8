package epnet

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"epnet/internal/traffic"
)

// TestConfigErrorsCarryFieldNames drives every validation branch and
// checks the returned error (a) matches ErrInvalidConfig, (b) is a
// *ConfigFieldError naming exactly the offending field, and (c) for
// enum fields also matches the dedicated sentinel.
func TestConfigErrorsCarryFieldNames(t *testing.T) {
	base := func() Config { return Config{K: 4, N: 2, C: 4, Duration: time.Millisecond} }
	cases := []struct {
		field    string
		mut      func(*Config)
		sentinel error // optional enum sentinel
	}{
		{"Topology", func(c *Config) { c.Topology = "ring" }, ErrUnknownTopology},
		{"DynTopo", func(c *Config) { c.Topology = TopoFatTree; c.DynTopo = true }, nil},
		{"K", func(c *Config) { c.K = 1 }, nil},
		{"K", func(c *Config) { c.Topology = TopoClos3; c.K = 5 }, nil},
		{"C", func(c *Config) { c.C = 0 }, nil},
		{"N", func(c *Config) { c.N = 1 }, nil},
		{"TracePath", func(c *Config) { c.Workload = WorkloadTrace }, nil},
		{"Workload", func(c *Config) { c.Workload = "netflix" }, ErrUnknownWorkload},
		{"Policy", func(c *Config) { c.Policy = "magic" }, ErrUnknownPolicy},
		{"Routing", func(c *Config) { c.Routing = "static" }, ErrUnknownRouting},
		{"Routing", func(c *Config) { c.Topology = TopoFatTree; c.Routing = RoutingDOR }, nil},
		{"Faults", func(c *Config) { c.Faults = "50us explode s0p1" }, nil},
		{"Faults", func(c *Config) { c.Faults = "50us fail-link s0p1"; c.Routing = RoutingDOR }, nil},
		{"Faults", func(c *Config) { c.Faults = "50us fail-random 0" }, nil},
		{"Faults", func(c *Config) { c.Faults = "50us fail-random 2"; c.Routing = RoutingDOR }, nil},
		{"FaultRate", func(c *Config) { c.FaultRate = -1 }, nil},
		{"FaultRate", func(c *Config) { c.FaultRate = 0.5; c.Routing = RoutingDOR }, nil},
		{"FaultMTTR", func(c *Config) { c.FaultRate = 0.5; c.FaultMTTR = -time.Microsecond }, nil},
		{"Load", func(c *Config) { c.Load = 1.0 }, nil},
		{"TargetUtil", func(c *Config) { c.TargetUtil = 1.5 }, nil},
		{"Reactivation", func(c *Config) { c.Reactivation = -time.Microsecond }, nil},
		{"Epoch", func(c *Config) { c.Epoch = time.Microsecond; c.Reactivation = 2 * time.Microsecond }, nil},
		{"SampleInterval", func(c *Config) { c.SampleInterval = -time.Microsecond }, nil},
		{"PowerSampleEvery", func(c *Config) { c.PowerSampleEvery = -time.Microsecond }, nil},
		{"Duration", func(c *Config) { c.Duration = 0 }, nil},
		{"Warmup", func(c *Config) { c.Warmup = -1 }, nil},
		{"MaxPacket", func(c *Config) { c.MaxPacket = 32 }, nil},
		// Durations past the picosecond clock (about 2,562 h) would wrap
		// in simTime and run nothing.
		{"Duration", func(c *Config) { c.Duration = 3000 * time.Hour }, nil},
		{"Duration", func(c *Config) { c.Warmup = 2000 * time.Hour; c.Duration = 600 * time.Hour }, nil},
		{"Warmup", func(c *Config) { c.Warmup = 2600 * time.Hour; c.Duration = time.Microsecond }, nil},
		{"Reactivation", func(c *Config) { c.Reactivation = 3000 * time.Hour }, nil},
		{"Epoch", func(c *Config) { c.Epoch = 3000 * time.Hour }, nil},
		{"SampleInterval", func(c *Config) { c.SampleInterval = 3000 * time.Hour }, nil},
		{"PowerSampleEvery", func(c *Config) { c.PowerSampleEvery = 3000 * time.Hour }, nil},
		{"FaultMTTR", func(c *Config) { c.FaultRate = 0.5; c.FaultMTTR = 3000 * time.Hour }, nil},
		{"Faults", func(c *Config) { c.Faults = "3000h fail-link s0p4" }, nil},
		{"Scenario", func(c *Config) {
			c.Scenario = &Scenario{Version: 1, Phases: []ScenarioPhase{
				{Name: "day", Duration: Duration(1500 * time.Hour)},
				{Name: "night", Duration: Duration(1500 * time.Hour)},
			}}
		}, nil},
		{"Scenario", func(c *Config) {
			c.Scenario = &Scenario{Version: 1, Phases: []ScenarioPhase{
				{Name: "day", Duration: Duration(2000 * time.Hour)},
				{Name: "storm", Duration: Duration(time.Millisecond),
					Chaos: &PhaseChaos{Script: "600h fail-link s0p4"}},
			}}
		}, nil},
		{"Scenario", func(c *Config) {
			c.Scenario = &Scenario{Version: 1, Phases: []ScenarioPhase{
				{Name: "storm", Duration: Duration(time.Millisecond),
					Chaos: &PhaseChaos{Rate: 1, MTTR: Duration(3000 * time.Hour)}},
			}}
		}, nil},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.field)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v does not match ErrInvalidConfig", tc.field, err)
		}
		var fe *ConfigFieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a *ConfigFieldError", tc.field, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("error names field %q, want %q (%v)", fe.Field, tc.field, err)
		}
		if !strings.Contains(err.Error(), "Config."+tc.field) {
			t.Errorf("%s: message %q does not name the field", tc.field, err)
		}
		if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: error %v does not match its enum sentinel", tc.field, err)
		}
	}
}

// TestRunRejectsOutOfRangeTrace checks a trace naming a host the
// topology lacks fails when the run is built, as a TracePath field
// error, instead of panicking partway through the run.
func TestRunRejectsOutOfRangeTrace(t *testing.T) {
	const far = 1 << 20 // beyond any test topology
	cases := []struct {
		name string
		rec  traffic.Record
	}{
		{"src", traffic.Record{At: 1000, Src: far, Dst: 1, Size: 4096}},
		{"dst", traffic.Record{At: 1000, Src: 0, Dst: far, Size: 4096}},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), tc.name+".trace")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		ok := []traffic.Record{{At: 500, Src: 0, Dst: 1, Size: 4096}}
		if err := traffic.WriteTrace(f, append(ok, tc.rec)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		cfg := fastCfg()
		cfg.Workload, cfg.TracePath = WorkloadTrace, path
		_, err = RunContext(context.Background(), cfg)
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v does not match ErrInvalidConfig", tc.name, err)
		}
		var fe *ConfigFieldError
		if !errors.As(err, &fe) || fe.Field != "TracePath" {
			t.Errorf("%s: error %v is not a TracePath field error", tc.name, err)
		}
	}
}

// TestConfigErrorSentinelsDistinct makes sure matching one sentinel
// does not accidentally match the others.
func TestConfigErrorSentinelsDistinct(t *testing.T) {
	cfg := Config{K: 4, N: 2, C: 4, Duration: time.Millisecond, Policy: "magic"}
	err := cfg.Validate()
	if !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("err = %v, want ErrUnknownPolicy", err)
	}
	for _, wrong := range []error{ErrUnknownTopology, ErrUnknownWorkload, ErrUnknownRouting} {
		if errors.Is(err, wrong) {
			t.Errorf("policy error matches unrelated sentinel %v", wrong)
		}
	}
}

// TestValidateImpliedFields pins the output fields Validate turns into
// the switches they need, so Result.Config records what actually ran.
func TestValidateImpliedFields(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		check func(Config) bool
	}{
		{"FlowsOut implies FlowTrace", func(c *Config) { c.FlowsOut = "flows.json" },
			func(c Config) bool { return c.FlowTrace }},
		{"ProfileOut implies Profile", func(c *Config) { c.ProfileOut = "profile.json" },
			func(c Config) bool { return c.Profile }},
		{"MetricsOut defaults SampleInterval to Epoch", func(c *Config) { c.MetricsOut = "m.csv" },
			func(c Config) bool { return c.SampleInterval == c.Epoch }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.check(cfg) {
			t.Errorf("%s: not applied by Validate", tc.name)
		}
	}
}

func TestValidConfigHasNoError(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}
