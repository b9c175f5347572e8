package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"epnet"
	"epnet/internal/fabric"
	"epnet/internal/routing"
	"epnet/internal/scenario"
	"epnet/internal/sim"
	"epnet/internal/topo"
)

// repResult is what one repetition reports. A child process prints it
// as one JSON line; the parent fills it for harness repetitions itself.
type repResult struct {
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	RSSMB  float64 `json:"rss_mb"`
	CPUS   float64 `json:"cpu_s"`
	Digest string  `json:"digest"`
	Err    string  `json:"err,omitempty"`

	// Traced repetitions only: per-layer metrics, the work counts the
	// ledger multiplies layer costs by, harness experiment times, and
	// the spans recorded around each call.
	Layers        map[string]float64 `json:"layers,omitempty"`
	Delivered     int64              `json:"delivered,omitempty"`
	ChanEpochs    float64            `json:"chan_epochs,omitempty"`
	SeriesSamples float64            `json:"series_samples,omitempty"`
	Experiments   []namedTime        `json:"experiments,omitempty"`
	Spans         []span             `json:"spans,omitempty"`
}

// namedTime is one timed harness experiment.
type namedTime struct {
	Name string  `json:"name"`
	S    float64 `json:"s"`
}

// The set-up measurement is the median of at least minSetupBuilds
// builds, and of more, up to maxSetupBuilds, while they total less than
// minSetupTime: a 64-host build is too short to time steadily alone.
const (
	minSetupBuilds = 3
	maxSetupBuilds = 200
	minSetupTime   = 50 * time.Millisecond
)

// buildTimes is one timed construction of a workload's network: the
// calls a run makes before its first event, in order.
type buildTimes struct {
	topo, routing, fabric, traffic, close time.Duration
	fabricBytes                           uint64
}

func (b buildTimes) total() time.Duration {
	return b.topo + b.routing + b.fabric + b.traffic + b.close
}

func simTime(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) * sim.Nanosecond }

// heapAllocBytes is the cumulative bytes the process has allocated.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// buildNet constructs a validated cfg's topology, router and fabric with
// the given shard count, timing each constructor into bt. Every
// workload runs on a flattened butterfly with adaptive routing.
func buildNet(cfg epnet.Config, shards int, tr *tracer, parent int, bt *buildTimes) (*fabric.Network, error) {
	if cfg.Topology != epnet.TopoFBFLY || cfg.Routing != epnet.RoutingAdaptive {
		return nil, fmt.Errorf("benchmark networks are adaptive flattened butterflies, got %s/%s", cfg.Topology, cfg.Routing)
	}
	var t *topo.FBFLY
	var err error
	bt.topo = tr.timed("topo.NewFBFLY", parent, func() { t, err = topo.NewFBFLY(cfg.K, cfg.N, cfg.C) })
	if err != nil {
		return nil, err
	}
	var r *routing.FBFLY
	bt.routing = tr.timed("routing.NewFBFLY", parent, func() { r = routing.NewFBFLY(t) })
	fcfg := fabric.DefaultConfig()
	fcfg.MaxPacket = cfg.MaxPacket
	fcfg.Seed = cfg.Seed
	fcfg.Shards = shards
	var net *fabric.Network
	before := heapAllocBytes()
	bt.fabric = tr.timed("fabric.New", parent, func() { net, err = fabric.New(sim.New(), t, r, fcfg) })
	bt.fabricBytes = heapAllocBytes() - before
	return net, err
}

// phase0Sources builds the traffic sources a run starts at t=0 and the
// end of their window, seeded exactly as the simulator seeds them.
func phase0Sources(cfg epnet.Config) ([]scenario.Source, sim.Time, error) {
	warmup := simTime(cfg.Warmup)
	if cfg.Scenario == nil {
		src, err := scenario.NewSource(scenario.Traffic{Workload: string(cfg.Workload), Load: cfg.Load}, cfg.Seed)
		return []scenario.Source{src}, warmup + simTime(cfg.Duration), err
	}
	ph := cfg.Scenario.Phases[0]
	srcs := make([]scenario.Source, 0, len(ph.Traffic))
	for j, spec := range ph.Traffic {
		seed := cfg.Seed
		if j > 0 {
			seed = scenario.PhaseSeed(cfg.Seed, ph.Name, fmt.Sprintf("traffic:%d", j))
		}
		src, err := scenario.NewSource(spec, seed)
		if err != nil {
			return nil, 0, err
		}
		srcs = append(srcs, src)
	}
	return srcs, warmup + simTime(ph.Duration.D()), nil
}

// buildOnce times one complete set-up: topology, router, fabric, the
// phase-0 traffic sources started at t=0, and Close.
func buildOnce(cfg epnet.Config, tr *tracer, parent int) (buildTimes, error) {
	var bt buildTimes
	id := tr.begin("build", parent)
	defer tr.end(id)
	net, err := buildNet(cfg, cfg.Shards, tr, id, &bt)
	if err != nil {
		return bt, err
	}
	srcs, end, err := phase0Sources(cfg)
	if err != nil {
		net.Close()
		return bt, err
	}
	bt.traffic = tr.timed("scenario.Source.Run", id, func() {
		for _, src := range srcs {
			src.Run(net.E, net, 0, end)
		}
	})
	bt.close = tr.timed("fabric.Network.Close", id, net.Close)
	return bt, nil
}

// measureSetup builds cfg's network repeatedly, each time after a
// collection so no build pays for its predecessor's garbage, and
// returns every build.
func measureSetup(cfg epnet.Config, tr *tracer, parent int) ([]buildTimes, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var builds []buildTimes
	var spent time.Duration
	for len(builds) < minSetupBuilds || (spent < minSetupTime && len(builds) < maxSetupBuilds) {
		runtime.GC()
		bt, err := buildOnce(cfg, tr, parent)
		if err != nil {
			return nil, err
		}
		builds = append(builds, bt)
		spent += bt.total()
	}
	return builds, nil
}

// medianBuild is the median over builds of one of their fields.
func medianBuild(builds []buildTimes, field func(buildTimes) float64) float64 {
	xs := make([]float64, len(builds))
	for i, b := range builds {
		xs[i] = field(b)
	}
	return medianOf(xs)
}

func setupSeconds(b buildTimes) float64 { return b.total().Seconds() }

// selfUsage reads this process's peak resident set (MB) and CPU time.
func selfUsage() (rssMB, cpuS float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return rusageMB(&ru), rusageCPU(&ru)
}

// rusageMB converts Maxrss, which Linux reports in KiB, to MB.
func rusageMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

func rusageCPU(ru *syscall.Rusage) float64 {
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}

// simRun is one timed, checked simulation.
type simRun struct {
	res    epnet.Result
	wall   time.Duration
	digest string
}

// runSim runs cfg once, timing the RunContext call alone, then digests
// and checks its result.
func runSim(cfg epnet.Config, tr *tracer, parent int, name string) (simRun, error) {
	var res epnet.Result
	var err error
	wall := tr.timed(name, parent, func() { res, err = epnet.RunContext(context.Background(), cfg) })
	if err != nil {
		return simRun{}, err
	}
	digest, err := resultDigest(res)
	if err != nil {
		return simRun{}, err
	}
	return simRun{res: res, wall: wall, digest: digest}, checkResult(res)
}

// repConfig is w's configuration for one repetition; the returned
// function removes any file the run writes.
func repConfig(w workload, seed int64, scratch string) (epnet.Config, func(), error) {
	cfg, err := w.config(seed)
	if err != nil || !w.metricsOut {
		return cfg, func() {}, err
	}
	cfg.MetricsOut = filepath.Join(scratch, fmt.Sprintf("metrics-%d.csv", os.Getpid()))
	return cfg, func() { os.Remove(cfg.MetricsOut) }, nil
}

// runRep is one untraced repetition of a single-run workload, as a child
// process executes it: the cold run with its usage read as soon as it
// returns, then the set-up measurement.
func runRep(w workload, seed int64, scratch string) (repResult, error) {
	cfg, cleanup, err := repConfig(w, seed, scratch)
	defer cleanup()
	if err != nil {
		return repResult{}, err
	}
	run, err := runSim(cfg, nil, 0, "")
	rss, cpu := selfUsage()
	if err != nil {
		return repResult{}, err
	}
	builds, err := measureSetup(cfg, nil, 0)
	if err != nil {
		return repResult{}, err
	}
	return repResult{
		WallS:  run.wall.Seconds(),
		SetupS: medianBuild(builds, setupSeconds),
		RSSMB:  rss,
		CPUS:   cpu,
		Digest: run.digest,
	}, nil
}
