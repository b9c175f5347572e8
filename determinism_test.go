package epnet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// matrixCase is one cell of the sharding determinism matrix: a topology
// under active link retuning, optionally riding out seeded-random
// faults, or a whole declarative scenario (multi-phase traffic, policy
// switches, chaos campaigns) resolved through LoadScenario.
type matrixCase struct {
	name     string
	faults   bool
	scenario string
	mutate   func(*Config)
}

// runMatrixCell executes one configuration at the given shard count,
// returning the Result and the raw bytes of its output files by name:
// the sampled metrics series, and for flow-traced cells the Chrome
// trace. The metrics file exercises the whole telemetry path —
// registry closures, merged latency histogram view, sampler — under
// sharding. With profile set, engine self-profiling runs too (and must
// not show up anywhere but Result.Profile and its own output file).
func runMatrixCell(t *testing.T, mc matrixCase, shards int, dir string, profile bool) (Result, map[string][]byte) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workload = WorkloadUniform
	cfg.Policy = PolicyHalveDouble
	cfg.Independent = true
	cfg.Warmup = 50 * time.Microsecond
	cfg.Duration = 300 * time.Microsecond
	cfg.Seed = 7
	cfg.Shards = shards
	cfg.Attribution = true
	cfg.MetricsOut = filepath.Join(dir, "metrics.csv")
	if profile {
		cfg.Profile = true
		cfg.ProfileOut = filepath.Join(dir, "profile.json")
	}
	if mc.faults && mc.scenario == "" {
		cfg.FaultRate = 20 // expected events per simulated ms
	}
	mc.mutate(&cfg)
	if cfg.FlowTrace {
		cfg.TraceOut = filepath.Join(dir, "trace.json")
	}
	if mc.scenario != "" {
		loaded, err := LoadScenario(mc.scenario, cfg)
		if err != nil {
			t.Fatalf("%s: %v", mc.name, err)
		}
		// Cap phase durations so the matrix stays fast; the determinism
		// comparison only needs both shard counts to run the same plan.
		const maxPhase = Duration(150 * time.Microsecond)
		for i := range loaded.Scenario.Phases {
			if loaded.Scenario.Phases[i].Duration > maxPhase {
				loaded.Scenario.Phases[i].Duration = maxPhase
			}
		}
		cfg = loaded
		cfg.Shards = shards
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", mc.name, shards, err)
	}
	files := map[string][]byte{}
	for name, path := range map[string]string{"metrics": cfg.MetricsOut, "trace": cfg.TraceOut} {
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s shards=%d: %v", mc.name, shards, err)
		}
		files[name] = data
	}
	if profile {
		if res.Profile == nil {
			t.Fatalf("%s shards=%d: Config.Profile set but Result.Profile is nil", mc.name, shards)
		}
		var out EngineProfile
		data, err := os.ReadFile(cfg.ProfileOut)
		if err != nil {
			t.Fatalf("%s shards=%d: %v", mc.name, shards, err)
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s shards=%d: profile output is not valid JSON: %v", mc.name, shards, err)
		}
		if len(out.Shards) != len(res.Profile.Shards) {
			t.Fatalf("%s shards=%d: profile file has %d shards, Result.Profile %d",
				mc.name, shards, len(out.Shards), len(res.Profile.Shards))
		}
	}
	return res, files
}

// TestShardDeterminismMatrix is the end-to-end half of the determinism
// guarantee: across topologies, with link retuning always on and with
// and without a seeded fault process, every shard count must reproduce
// the serial run's Result, its sampled telemetry series and, for the
// flow-traced cells, its Chrome trace byte for byte. Only Config.Shards
// itself may differ. The sharded cells run with engine self-profiling
// enabled while the serial anchor does not, so the same comparison also
// proves the profiler never perturbs the deterministic outputs
// (Result.Profile is wall-clock data and is normalized away, like the
// config fields that legitimately differ).
func TestShardDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of full runs")
	}
	topos := []matrixCase{
		{name: "fbfly", mutate: func(c *Config) {}},
		{name: "fattree", mutate: func(c *Config) {
			c.Topology = TopoFatTree
			c.K, c.C = 6, 6
		}},
		{name: "clos3", mutate: func(c *Config) {
			c.Topology = TopoClos3
			c.K = 4
		}},
	}
	var cells []matrixCase
	for _, base := range topos {
		for _, faults := range []bool{false, true} {
			mc := base
			mc.faults = faults
			mc.name += "/clean"
			if faults {
				mc.name = base.name + "/faults"
			}
			cells = append(cells, mc)
		}
	}
	// Declarative scenarios run through the same matrix: multi-phase
	// traffic with load shapes (diurnal) and a chaos campaign with
	// correlated failure groups (chaos) must both shard byte-identically.
	cells = append(cells,
		matrixCase{name: "scenario/diurnal", scenario: "diurnal", mutate: func(c *Config) {}},
		matrixCase{name: "scenario/chaos", scenario: "chaos", faults: true, mutate: func(c *Config) {}},
	)
	// Flow-traced cells: hash sampling must pick the same flow set at
	// every shard count, and the merged report (exemplars, per-phase
	// decompositions, anomaly dumps from real drops/faults) lives inside
	// Result.FlowTrace, so the DeepEqual below covers it byte for byte.
	// These cells also write the report's Chrome trace.
	cells = append(cells,
		matrixCase{name: "fbfly/flowtrace", mutate: func(c *Config) {
			c.FlowTrace = true
			c.FlowSample = 0.25
		}},
		matrixCase{name: "scenario/chaos-flowtrace", scenario: "chaos", faults: true, mutate: func(c *Config) {
			c.FlowTrace = true
			c.FlowSample = 0.25
		}},
	)
	for _, mc := range cells {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			want, wantFiles := runMatrixCell(t, mc, 1, t.TempDir(), false)
			if want.DeliveredPackets == 0 {
				t.Fatal("serial run delivered nothing")
			}
			if mc.faults && want.Faults.Total() == 0 {
				t.Fatal("fault case injected no faults")
			}
			shardCounts := []int{2, 4, 8}
			if mc.scenario != "" {
				shardCounts = []int{2, 4}
			}
			for _, shards := range shardCounts {
				got, gotFiles := runMatrixCell(t, mc, shards, t.TempDir(), true)
				// The recorded Config legitimately differs in the
				// shard count, the per-run temp output paths, and
				// the profiling switches; Result.Profile itself is
				// wall-clock measurement, not simulation output.
				// Normalize all of it before the deep compare.
				got.Config.Shards = want.Config.Shards
				got.Config.MetricsOut = want.Config.MetricsOut
				got.Config.TraceOut = want.Config.TraceOut
				got.Config.Profile = want.Config.Profile
				got.Config.ProfileOut = want.Config.ProfileOut
				got.Profile = nil
				if !reflect.DeepEqual(want, got) {
					t.Errorf("shards=%d: Result diverges from serial\nserial: %+v\nshards: %+v",
						shards, want, got)
				}
				for name, data := range wantFiles {
					if !bytes.Equal(data, gotFiles[name]) {
						t.Errorf("shards=%d: %s file diverges from serial (%d vs %d bytes)",
							shards, name, len(data), len(gotFiles[name]))
					}
				}
			}
		})
	}
}
