// Package cli is the one flag surface shared by every command that
// builds an epnet.Config. Each binary used to own a hand-rolled copy of
// the same two dozen flags with drifting names and defaults; now they
// all Bind a Loader and differ only in their command-specific flags.
//
// Resolution precedence, lowest to highest:
//
//  1. the base Config the command binds with,
//  2. -preset (a named preset replaces the base),
//  3. -scenario (an embedded scenario, preset name, or file; its
//     config block overlays the result),
//  4. flags the user explicitly set on the command line.
//
// Only explicitly set flags apply — a flag left at its default never
// clobbers a preset or scenario value, and binding with a non-default
// base (as cmd/experiments does with the evaluation scale) keeps that
// base intact. The output flags (-metrics-out, -flows-out, ...) are
// Config fields like any other, so a scenario's config block may set
// them too.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"epnet"
)

// Loader binds the shared simulation-config flags and resolves them to
// an epnet.Config.
type Loader struct {
	fs   *flag.FlagSet
	base epnet.Config

	// Preset and Scenario mirror the -preset / -scenario flags.
	Preset   string
	Scenario string

	apply  map[string]func(*epnet.Config)
	cmd    string
	listen string
	insp   *epnet.Inspector
}

// Bind registers the config flags on fs with defaults drawn from base.
// cmd names the command in messages. epsim, the single-run command,
// also gets -power-trace, -attribution and -profile, whose views only
// it prints; the grid commands number each run's output files instead.
func (l *Loader) Bind(fs *flag.FlagSet, cmd string, base epnet.Config) {
	l.fs, l.base, l.cmd = fs, base, cmd
	l.apply = map[string]func(*epnet.Config){}

	str := func(name, def, usage string, set func(*epnet.Config, string)) {
		p := fs.String(name, def, usage)
		l.apply[name] = func(c *epnet.Config) { set(c, *p) }
	}
	num := func(name string, def int, usage string, set func(*epnet.Config, int)) {
		p := fs.Int(name, def, usage)
		l.apply[name] = func(c *epnet.Config) { set(c, *p) }
	}
	f64 := func(name string, def float64, usage string, set func(*epnet.Config, float64)) {
		p := fs.Float64(name, def, usage)
		l.apply[name] = func(c *epnet.Config) { set(c, *p) }
	}
	boolean := func(name string, def bool, usage string, set func(*epnet.Config, bool)) {
		p := fs.Bool(name, def, usage)
		l.apply[name] = func(c *epnet.Config) { set(c, *p) }
	}
	dur := func(name string, def time.Duration, usage string, set func(*epnet.Config, time.Duration)) {
		p := fs.Duration(name, def, usage)
		l.apply[name] = func(c *epnet.Config) { set(c, *p) }
	}

	fs.StringVar(&l.Preset, "preset", "",
		"start from a named preset ("+strings.Join(epnet.PresetNames(), " | ")+"); other flags override it")
	fs.StringVar(&l.Scenario, "scenario", "",
		"run a scenario: an embedded name ("+strings.Join(epnet.ScenarioNames(), " | ")+"), a preset name, or a scenario JSON file; explicit flags override its config block")

	str("topology", string(base.Topology), "topology: fbfly | fattree | clos3",
		func(c *epnet.Config, v string) { c.Topology = epnet.TopologyKind(v) })
	num("k", base.K, "FBFLY radix per dimension (or fat-tree leaf/spine count)",
		func(c *epnet.Config, v int) { c.K = v })
	num("n", base.N, "FBFLY n (dimensions incl. host dimension)",
		func(c *epnet.Config, v int) { c.N = v })
	num("c", base.C, "concentration: hosts per switch",
		func(c *epnet.Config, v int) { c.C = v })
	str("workload", string(base.Workload), "workload: uniform | search | advert | permutation | hotspot | tornado | incast | migration | trace",
		func(c *epnet.Config, v string) { c.Workload = epnet.WorkloadKind(v) })
	str("trace", base.TracePath, "trace file for -workload trace (see tracegen)",
		func(c *epnet.Config, v string) { c.TracePath = v })
	f64("load", base.Load, "override workload average utilization (0 = workload default)",
		func(c *epnet.Config, v float64) { c.Load = v })
	str("policy", string(base.Policy), "policy: baseline | halve-double | min-max | hysteresis | static-min | queue-aware",
		func(c *epnet.Config, v string) { c.Policy = epnet.PolicyKind(v) })
	str("routing", "adaptive", "routing: adaptive | dor",
		func(c *epnet.Config, v string) { c.Routing = epnet.RoutingKind(v) })
	boolean("mode-aware", base.ModeAwareReactivation, "mode-aware reactivation penalties (CDR vs lane retraining)",
		func(c *epnet.Config, v bool) { c.ModeAwareReactivation = v })
	str("faults", base.Faults, `deterministic fault schedule, e.g. "50us fail-link s0p8; 400us repair-link s0p8; 500us fail-random 4"`,
		func(c *epnet.Config, v string) { c.Faults = v })
	f64("fault-rate", base.FaultRate, "seeded-random faults per simulated millisecond",
		func(c *epnet.Config, v float64) { c.FaultRate = v })
	dur("fault-mttr", base.FaultMTTR, "mean time to repair for -fault-rate faults (default 200us)",
		func(c *epnet.Config, v time.Duration) { c.FaultMTTR = v })
	f64("target", base.TargetUtil, "target channel utilization",
		func(c *epnet.Config, v float64) { c.TargetUtil = v })
	boolean("independent", base.Independent, "tune unidirectional channels independently",
		func(c *epnet.Config, v bool) { c.Independent = v })
	dur("reactivation", base.Reactivation, "link reactivation time",
		func(c *epnet.Config, v time.Duration) { c.Reactivation = v })
	dur("epoch", base.Epoch, "utilization epoch (default 10x reactivation)",
		func(c *epnet.Config, v time.Duration) { c.Epoch = v })
	dur("warmup", base.Warmup, "warmup before measurement",
		func(c *epnet.Config, v time.Duration) { c.Warmup = v })
	dur("duration", base.Duration, "measurement window (scenarios derive it from their phases)",
		func(c *epnet.Config, v time.Duration) { c.Duration = v })
	p := fs.Int64("seed", base.Seed, "random seed")
	l.apply["seed"] = func(c *epnet.Config) { c.Seed = *p }
	num("shards", base.Shards, "parallel simulation shards (0 = auto: one per 4,096 hosts, at most one per CPU, so serial below 8,192 hosts; 1 = serial; results, -flows-out and -trace-out are byte-identical)",
		func(c *epnet.Config, v int) { c.Shards = v })
	boolean("dyntopo", base.DynTopo, "enable the dynamic topology controller",
		func(c *epnet.Config, v bool) { c.DynTopo = v })

	perRun := "; each run gets a numeric suffix (telemetry.csv -> telemetry.000.csv)"
	if cmd == "epsim" {
		perRun = ""
		dur("power-trace", base.PowerSampleEvery, "sample instantaneous power at this interval (0 = off)",
			func(c *epnet.Config, v time.Duration) { c.PowerSampleEvery = v })
		boolean("attribution", base.Attribution, "print the per-link energy attribution (top consumers)",
			func(c *epnet.Config, v bool) { c.Attribution = v })
		boolean("profile", base.Profile, "self-profile the engine and print the critical-path report (per-shard stalls, window efficiency, barrier overhead)",
			func(c *epnet.Config, v bool) { c.Profile = v })
	}
	str("metrics-out", base.MetricsOut, "write the sampled metric time series to this file (CSV, or JSON Lines with a .jsonl extension)"+perRun,
		func(c *epnet.Config, v string) { c.MetricsOut = v })
	dur("sample-interval", base.SampleInterval, "metrics sampling period (default: one epoch)",
		func(c *epnet.Config, v time.Duration) { c.SampleInterval = v })
	str("trace-out", base.TraceOut, "write the flow-trace report as a Chrome trace_event JSON file (open in chrome://tracing or ui.perfetto.dev): traced packets' hops and latency components as spans; implies -flow-trace"+perRun,
		func(c *epnet.Config, v string) { c.TraceOut = v })
	str("heatmap-out", base.HeatmapOut, "write the per-link utilization x time heatmap CSV to this file"+perRun,
		func(c *epnet.Config, v string) { c.HeatmapOut = v })
	str("hist-out", base.HistOut, "write the link-utilization histogram CSV (Fig 8 view) to this file"+perRun,
		func(c *epnet.Config, v string) { c.HistOut = v })
	str("profile-out", base.ProfileOut, "write the engine self-profile to this file (JSON, or CSV with a .csv extension)"+perRun,
		func(c *epnet.Config, v string) { c.ProfileOut = v })
	boolean("flow-trace", base.FlowTrace, "hash-sample packets and decompose their latency per hop (queue/credit/retune/busy/cut-through/serialize/wire/route)",
		func(c *epnet.Config, v bool) { c.FlowTrace = v })
	f64("flow-sample", base.FlowSample, "flow-tracing sample rate in (0,1] (default 1/64; 1 traces every packet); implies -flow-trace",
		func(c *epnet.Config, v float64) { c.FlowSample = v })
	str("flows-out", base.FlowsOut, "write the flow-trace report to this file (JSON, or per-phase CSV with a .csv extension); implies -flow-trace"+perRun,
		func(c *epnet.Config, v string) { c.FlowsOut = v })
	fs.StringVar(&l.listen, "listen", "",
		`serve live inspection HTTP on this address (e.g. ":9090"): /metrics, /snapshot, /profile, /flows, /debug/pprof/`)
}

// Resolve builds the Config from the bound base.
func (l *Loader) Resolve() (epnet.Config, error) { return l.ResolveFrom(l.base) }

// ResolveFrom builds the Config from an alternative base — the hook for
// commands whose base is itself flag-selected (cmd/experiments' -full).
func (l *Loader) ResolveFrom(base epnet.Config) (epnet.Config, error) {
	cfg := base
	if l.Preset != "" {
		p, err := epnet.Preset(l.Preset)
		if err != nil {
			return epnet.Config{}, err
		}
		cfg = p
	}
	if l.Scenario != "" {
		s, err := epnet.LoadScenario(l.Scenario, cfg)
		if err != nil {
			return epnet.Config{}, err
		}
		cfg = s
	}
	l.fs.Visit(func(f *flag.Flag) {
		if apply, ok := l.apply[f.Name]; ok {
			apply(&cfg)
		}
	})
	if l.listen != "" {
		// One inspector serves every run of the command.
		if l.insp == nil {
			insp, addr, err := epnet.StartInspector(l.listen)
			if err != nil {
				return epnet.Config{}, err
			}
			fmt.Fprintf(os.Stderr, "%s: inspector listening on http://%s\n", l.cmd, addr)
			l.insp = insp
		}
		cfg.Inspector = l.insp
	}
	return cfg, nil
}
