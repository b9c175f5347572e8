package epnet

import (
	"fmt"
	"sort"
	"time"
)

// Option mutates a Config under construction; see NewConfig. Options
// compose left to right, so later options win on overlapping fields.
type Option func(*Config)

// NewConfig builds a Config for the given topology from the library
// defaults (DefaultConfig) and the supplied options:
//
//	cfg := epnet.NewConfig(epnet.TopoFBFLY,
//		epnet.WithRadix(8),
//		epnet.WithPolicy(epnet.PolicyHalveDouble),
//		epnet.WithWorkload(epnet.WorkloadSearch),
//	)
//
// The result still goes through Config.Validate inside Run, so an
// inconsistent combination fails there with a *ConfigFieldError rather
// than panicking here.
func NewConfig(topology TopologyKind, opts ...Option) Config {
	cfg := DefaultConfig()
	cfg.Topology = topology
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithShape sets the full k-ary n-flat shape: radix per dimension k,
// dimensions n (including the host dimension), and concentration c.
func WithShape(k, n, c int) Option {
	return func(cfg *Config) { cfg.K, cfg.N, cfg.C = k, n, c }
}

// WithRadix sets the switch radix per dimension (FBFLY k, fat-tree
// leaf/spine count, Clos3 chip radix) and matches the concentration to
// it — the paper's balanced c = k design point. Use WithShape or
// WithConcentration for unbalanced shapes.
func WithRadix(k int) Option {
	return func(cfg *Config) { cfg.K, cfg.C = k, k }
}

// WithConcentration sets the number of hosts per switch.
func WithConcentration(c int) Option {
	return func(cfg *Config) { cfg.C = c }
}

// WithDimensions sets the FBFLY dimension count n.
func WithDimensions(n int) Option {
	return func(cfg *Config) { cfg.N = n }
}

// WithWorkload selects the offered traffic.
func WithWorkload(w WorkloadKind) Option {
	return func(cfg *Config) { cfg.Workload = w }
}

// WithLoad overrides the workload's default average utilization.
func WithLoad(load float64) Option {
	return func(cfg *Config) { cfg.Load = load }
}

// WithTraceReplay selects trace replay of the given file (the binary
// format written by cmd/tracegen).
func WithTraceReplay(path string) Option {
	return func(cfg *Config) { cfg.Workload, cfg.TracePath = WorkloadTrace, path }
}

// WithPolicy selects the link control policy.
func WithPolicy(p PolicyKind) Option {
	return func(cfg *Config) { cfg.Policy = p }
}

// WithTargetUtil sets the policy's target channel utilization.
func WithTargetUtil(target float64) Option {
	return func(cfg *Config) { cfg.TargetUtil = target }
}

// WithIndependentChannels tunes the two unidirectional channels of each
// link independently (§3.3.1) instead of pairing them.
func WithIndependentChannels() Option {
	return func(cfg *Config) { cfg.Independent = true }
}

// WithRouting selects adaptive or dimension-order routing.
func WithRouting(r RoutingKind) Option {
	return func(cfg *Config) { cfg.Routing = r }
}

// WithReactivation sets the link reconfiguration penalty and scales the
// epoch to the paper's 10x rule (§4.2.2).
func WithReactivation(d time.Duration) Option {
	return func(cfg *Config) { cfg.Reactivation, cfg.Epoch = d, 10*d }
}

// WithEpoch sets the utilization measurement window directly.
func WithEpoch(d time.Duration) Option {
	return func(cfg *Config) { cfg.Epoch = d }
}

// WithModeAwareReactivation charges the SerDes model's per-transition
// penalties (CDR re-lock vs lane retraining, §3.1).
func WithModeAwareReactivation() Option {
	return func(cfg *Config) { cfg.ModeAwareReactivation = true }
}

// WithDynTopo enables the §5.1 dynamic topology controller.
func WithDynTopo() Option {
	return func(cfg *Config) { cfg.DynTopo = true }
}

// WithWindow sets the warmup and measurement durations.
func WithWindow(warmup, duration time.Duration) Option {
	return func(cfg *Config) { cfg.Warmup, cfg.Duration = warmup, duration }
}

// WithSeed sets the run's random seed.
func WithSeed(seed int64) Option {
	return func(cfg *Config) { cfg.Seed = seed }
}

// WithShards partitions the simulation across n windowed workers (see
// Config.Shards): 0 = auto (one per CPU, capped by topology size),
// 1 = serial. Results stay byte-identical to the serial run.
func WithShards(n int) Option {
	return func(cfg *Config) { cfg.Shards = n }
}

// WithFaultSchedule installs a deterministic fault schedule (see
// Config.Faults for the grammar).
func WithFaultSchedule(schedule string) Option {
	return func(cfg *Config) { cfg.Faults = schedule }
}

// WithFaultRate enables seeded-random faults at rate events per
// simulated millisecond, repaired after a mean time of mttr (zero means
// the 200 µs default).
func WithFaultRate(rate float64, mttr time.Duration) Option {
	return func(cfg *Config) { cfg.FaultRate, cfg.FaultMTTR = rate, mttr }
}

// presets are the named paper-system configurations, lazily built so a
// preset always reflects the current library defaults.
var presets = map[string]struct {
	doc   string
	build func() Config
}{
	"small-fbfly": {
		"8-ary 2-flat (64 hosts), Search workload, halve/double — the fast default",
		func() Config { return NewConfig(TopoFBFLY) },
	},
	"paper-fbfly": {
		"the paper's simulated system: 15-ary 3-flat, 3,375 hosts (§4)",
		func() Config { return NewConfig(TopoFBFLY, WithRadix(15), WithDimensions(3)) },
	},
	"paper-fbfly-independent": {
		"15-ary 3-flat with independent unidirectional channel control (§3.3.1)",
		func() Config {
			return NewConfig(TopoFBFLY, WithRadix(15), WithDimensions(3),
				WithIndependentChannels())
		},
	},
	"paper-fattree": {
		"folded-Clos comparison point: two-level fat tree at the default scale",
		func() Config { return NewConfig(TopoFatTree) },
	},
	"paper-clos3": {
		"three-tier folded Clos built from radix-8 chips (Table 1's other column)",
		func() Config { return NewConfig(TopoClos3, WithRadix(8)) },
	},
	"resilience": {
		"8-ary 2-flat under seeded-random link faults (0.5 events/ms, 200 µs MTTR)",
		func() Config {
			return NewConfig(TopoFBFLY, WithWorkload(WorkloadUniform),
				WithFaultRate(0.5, 200*time.Microsecond))
		},
	},
}

// Preset returns the named paper-system configuration. The available
// names are listed by PresetNames; unknown names report them in the
// error.
func Preset(name string) (Config, error) {
	p, ok := presets[name]
	if !ok {
		return Config{}, fmt.Errorf("epnet: unknown preset %q (have %v)", name, PresetNames())
	}
	return p.build(), nil
}

// PresetNames lists the available Preset names, sorted, with
// PresetDoc providing the one-line description of each.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PresetDoc returns the one-line description of a preset ("" when
// unknown).
func PresetDoc(name string) string { return presets[name].doc }
