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
//		epnet.WithShape(8, 2, 8),
//		epnet.WithWorkload(epnet.WorkloadSearch),
//	)
//
// Setting fields on DefaultConfig() does the same and reaches every
// field; NewConfig and its six options remain because the benchmark in
// bench/ builds its workloads with them.
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

// WithWorkload selects the offered traffic.
func WithWorkload(w WorkloadKind) Option {
	return func(cfg *Config) { cfg.Workload = w }
}

// WithLoad overrides the workload's default average utilization.
func WithLoad(load float64) Option {
	return func(cfg *Config) { cfg.Load = load }
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

// presets are the named paper-system configurations, lazily built so a
// preset always reflects the current library defaults.
var presets = map[string]struct {
	doc   string
	build func() Config
}{
	"small-fbfly": {
		"8-ary 2-flat (64 hosts), Search workload, halve/double — the fast default",
		DefaultConfig,
	},
	"paper-fbfly": {
		"the paper's simulated system: 15-ary 3-flat, 3,375 hosts (§4)",
		PaperConfig,
	},
	"paper-fbfly-independent": {
		"15-ary 3-flat with independent unidirectional channel control (§3.3.1)",
		func() Config {
			c := PaperConfig()
			c.Independent = true
			return c
		},
	},
	"paper-fattree": {
		"folded-Clos comparison point: two-level fat tree at the default scale",
		func() Config {
			c := DefaultConfig()
			c.Topology = TopoFatTree
			return c
		},
	},
	"paper-clos3": {
		"three-tier folded Clos built from radix-8 chips (Table 1's other column)",
		func() Config {
			c := DefaultConfig()
			c.Topology, c.K, c.C = TopoClos3, 8, 8
			return c
		},
	},
	"resilience": {
		"8-ary 2-flat under seeded-random link faults (0.5 events/ms, 200 µs MTTR)",
		func() Config {
			c := DefaultConfig()
			c.Workload = WorkloadUniform
			c.FaultRate, c.FaultMTTR = 0.5, 200*time.Microsecond
			return c
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
