package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"epnet"
)

// workload is one set of inputs the benchmark runs. Every repetition is
// one complete simulation (a closed batch run), seeded by -seed.
type workload struct {
	name string
	why  string
	// harness marks the cmd/experiments workload: its repetitions exec
	// the experiments binary, and config is the evaluation base its
	// hundreds of simulations derive from.
	harness bool
	// metricsOut makes each repetition also write the sampled metric
	// time series (Config.MetricsOut) to a scratch file of its own.
	metricsOut bool
	config     func(seed int64) (epnet.Config, error)
}

var workloads = []workload{
	{
		name:    "harness",
		why:     "all 17 experiments of cmd/experiments on the 8-ary 2-flat: hundreds of 64-host runs, so grid scheduling and per-run set-up count",
		harness: true,
		config: func(seed int64) (epnet.Config, error) {
			c := epnet.DefaultEval().Config
			c.Seed = seed
			return c, nil
		},
	},
	{
		name: "paper3k",
		why:  "the paper's 3,375-host 15-ary 3-flat on Search, serial and unobserved: the packet path (event heap, routing, switch, link) dominates",
		config: func(seed int64) (epnet.Config, error) {
			c, err := epnet.Preset("paper-fbfly")
			c.Shards = 1
			c.Seed = seed
			return c, err
		},
	},
	{
		name: "scale32k",
		why:  "32,768 hosts at 5% uniform load, auto-sharded: set-up and the per-channel epoch sweep are large, and the shard barrier is exercised",
		config: func(seed int64) (epnet.Config, error) {
			return epnet.NewConfig(epnet.TopoFBFLY,
				epnet.WithShape(8, 5, 8),
				epnet.WithWorkload(epnet.WorkloadUniform),
				epnet.WithLoad(0.05),
				epnet.WithWindow(20*time.Microsecond, 100*time.Microsecond),
				epnet.WithShards(0),
				epnet.WithSeed(seed)), nil
		},
	},
	{
		name:       "chaos3k-obs",
		why:        "the paper's system through the three-phase chaos scenario with faults and every observer attached: the observed packet path",
		metricsOut: true,
		config: func(seed int64) (epnet.Config, error) {
			base, err := epnet.Preset("paper-fbfly")
			if err != nil {
				return base, err
			}
			c, err := epnet.LoadScenario("chaos", base)
			c.Shards = 1
			c.Seed = seed
			c.FlowTrace = true
			c.Attribution = true
			return c, err
		},
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// resultDigest is the SHA-256 of a Result's JSON with its inputs and
// its wall-clock profile cleared: what is left is simulated output only,
// identical across repetitions, shard counts and profiling.
func resultDigest(res epnet.Result) (string, error) {
	res.Config = epnet.Config{}
	res.Profile = nil
	b, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkResult checks the invariants a correct run must satisfy beyond
// reproducing its digest: traffic was delivered and, where the run
// (configured as res.Config records it) observed itself, the observers'
// books balance.
func checkResult(res epnet.Result) error {
	cfg := res.Config
	if res.DeliveredPackets <= 0 {
		return fmt.Errorf("no packets delivered")
	}
	if cfg.Attribution {
		var sum float64
		for _, a := range res.Attribution {
			sum += a.EnergyJoules
		}
		if math.Abs(sum-res.EnergyJoules) > 1e-9*math.Abs(res.EnergyJoules) {
			return fmt.Errorf("attribution sums to %g J, run reports %g J", sum, res.EnergyJoules)
		}
	}
	if cfg.FlowTrace {
		if res.FlowTrace == nil {
			return fmt.Errorf("flow tracing on but no flow-trace report")
		}
		for _, p := range res.FlowTrace.Exemplars {
			if got := p.Breakdown.TotalPs(); got != p.LatencyPs {
				return fmt.Errorf("exemplar packet %d: components sum to %d ps, latency is %d ps", p.ID, got, p.LatencyPs)
			}
		}
	}
	if s := cfg.Scenario; s != nil && len(s.Phases) > 1 && len(res.PhaseScores) != len(s.Phases) {
		return fmt.Errorf("%d phase scores for %d phases", len(res.PhaseScores), len(s.Phases))
	}
	return nil
}
