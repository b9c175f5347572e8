package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"epnet"
	"epnet/internal/core"
	"epnet/internal/fabric"
	"epnet/internal/link"
	"epnet/internal/power"
	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// A probe is a timed loop of one layer's public calls on the workload's
// own topology, repeated for at least minProbe; probeBatch is the number
// of packets, route lookups or link operations per loop iteration, and
// probeEpochs the controller epochs per iteration.
const (
	minProbe    = 100 * time.Millisecond
	probeBatch  = 4096
	probeEpochs = 20
)

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink float64

// probe repeats fn, which returns the operations it performed, until
// minProbe has elapsed, and returns nanoseconds per operation.
func probe(fn func() int) float64 {
	ops := 0
	t0 := time.Now()
	for {
		ops += fn()
		if el := time.Since(t0); el >= minProbe && ops > 0 {
			return float64(el.Nanoseconds()) / float64(ops)
		}
	}
}

// probePacket injects batches of seeded single-packet uniform messages
// into an idle serial network and runs it until they drain: the whole
// packet path (host queue, routing, switch, credits, link) per
// delivered packet, with no controller.
func probePacket(cfg epnet.Config) (float64, error) {
	net, err := buildNet(cfg, 1, nil, 0, &buildTimes{})
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	hosts := net.NumHosts()
	return probe(func() int {
		before, _ := net.Delivered()
		for i := 0; i < probeBatch; i++ {
			src := rng.Intn(hosts)
			dst := rng.Intn(hosts - 1)
			if dst >= src {
				dst++
			}
			net.InjectMessage(src, dst, cfg.MaxPacket)
		}
		net.E.Run()
		after, _ := net.Delivered()
		return int(after - before)
	}), nil
}

// probeEventDepth times Engine.At plus the event loop with the queue
// held at depth pending events: every event reschedules itself up to
// 1 µs ahead.
func probeEventDepth(depth int) float64 {
	e := sim.New()
	x := uint64(1)
	next := func() sim.Time { // a 64-bit LCG: cheaper than math/rand
		x = x*6364136223846793005 + 1442695040888963407
		return sim.Time(x>>33%1000+1) * sim.Nanosecond
	}
	var fn sim.Event
	fn = func(now sim.Time) { e.At(now+next(), fn) }
	for i := 0; i < depth; i++ {
		e.At(next(), fn)
	}
	return probe(func() int {
		p0 := e.Processed()
		for e.Processed()-p0 < probeBatch {
			e.RunUntil(e.Now() + sim.Microsecond)
		}
		return int(e.Processed() - p0)
	})
}

// probeCandidates times Router.Candidates over seeded (switch, host)
// pairs.
func probeCandidates(cfg epnet.Config) (float64, error) {
	t, err := topo.NewFBFLY(cfg.K, cfg.N, cfg.C)
	if err != nil {
		return 0, err
	}
	r := routing.NewFBFLY(t)
	rng := rand.New(rand.NewSource(cfg.Seed))
	pairs := make([][2]int, probeBatch)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(t.NumSwitches()), rng.Intn(t.NumHosts())}
	}
	buf := make([]int, 0, t.Radix())
	return probe(func() int {
		for _, p := range pairs {
			buf = r.Candidates(p[0], p[1], buf[:0])
			sink += float64(len(buf))
		}
		return len(pairs)
	}), nil
}

// probeLink times a channel's per-packet call (StartTransmit) and its
// per-epoch calls (EpochUtilization, ResetEpoch, SetRate down the ladder).
func probeLink(cfg epnet.Config) (transmitNs, epochNs float64) {
	ladder := link.DefaultLadder()
	var ch link.Channel
	ch.Init(ladder)
	var at sim.Time
	transmitNs = probe(func() int {
		for i := 0; i < probeBatch; i++ {
			at = ch.StartTransmit(at, cfg.MaxPacket)
		}
		return probeBatch
	})
	epoch, react := simTime(cfg.Epoch), simTime(cfg.Reactivation)
	now := at
	epochNs = probe(func() int {
		for i := 0; i < probeBatch; i++ {
			now += epoch
			sink += ch.EpochUtilization(now)
			ch.ResetEpoch(now)
			ch.SetRate(now, ladder[i%len(ladder)], react)
		}
		return probeBatch
	})
	return transmitNs, epochNs
}

// probeController runs the default epoch controller on an idle serial
// network and returns nanoseconds per channel per epoch, plus the
// network, whose channels have now visited several rates.
func probeController(cfg epnet.Config) (float64, *fabric.Network, error) {
	net, err := buildNet(cfg, 1, nil, 0, &buildTimes{})
	if err != nil {
		return 0, nil, err
	}
	ctrl := core.DefaultController(net)
	ctrl.Epoch, ctrl.Reactivation, ctrl.Paired = simTime(cfg.Epoch), simTime(cfg.Reactivation), !cfg.Independent
	if err := ctrl.Start(); err != nil {
		return 0, nil, err
	}
	nch := len(net.Channels())
	return probe(func() int {
		net.RunUntil(net.E.Now() + probeEpochs*ctrl.Epoch)
		return probeEpochs * nch
	}), net, nil
}

// probeTelemetry registers the network's and the controller's metrics
// and times Registry.ReadInto, the read a Sampler makes every tick:
// nanoseconds per series per sample, and the series count.
func probeTelemetry(cfg epnet.Config) (nsPerSeries float64, series int, err error) {
	net, err := buildNet(cfg, 1, nil, 0, &buildTimes{})
	if err != nil {
		return 0, 0, err
	}
	reg := telemetry.NewRegistry()
	if err := net.RegisterMetrics(reg); err != nil {
		return 0, 0, err
	}
	if err := core.DefaultController(net).RegisterMetrics(reg); err != nil {
		return 0, 0, err
	}
	series = reg.Len()
	row := make([]float64, series)
	return probe(func() int {
		reg.ReadInto(row)
		return series
	}), series, nil
}

// probePower times one end-of-run power collection over every channel
// of net: measured and ideal occupancy power plus the channel's energy
// attribution, in milliseconds.
func probePower(cfg epnet.Config, net *fabric.Network) float64 {
	measured := power.InfiniBandOptical()
	ideal := power.NewIdeal(link.DefaultLadder().Max())
	parts := power.DefaultPartPower()
	fullWatts := float64(net.T.NumSwitches())*parts.SwitchChipWatts + float64(net.T.NumHosts())*parts.NICWatts
	chans := net.Channels()
	return probe(func() int {
		now := net.E.Now()
		attr := power.NewAttribution(fullWatts, len(chans), simTime(cfg.Duration), measured)
		for _, ch := range chans {
			occ := ch.L.Occupancy(now)
			sink += power.OccupancyPower(occ, measured) + power.OccupancyPower(occ, ideal)
			class := topo.Electrical
			if ch.Src.Kind == topo.KindSwitch {
				class = net.T.LinkClass(ch.Src.ID, ch.Src.Port)
			}
			attr.Add(ch.Label(), class.String(), occ, ch.L.MeanUtilization(now))
		}
		return 1
	}) / 1e6
}

// namedCall is one step of a traced repetition, run inside a span.
type namedCall struct {
	name string
	run  func() error
}

// harnessExperiments are the exported epnet functions behind each
// simulating experiment of cmd/experiments, in its order and with its
// arguments.
func harnessExperiments(e epnet.EvalConfig) []namedCall {
	search, uniform := epnet.WorkloadSearch, epnet.WorkloadUniform
	return []namedCall{
		{"fig7", func() error { _, err := epnet.Figure7(e); return err }},
		{"fig8", func() error { _, err := epnet.Figure8(e); return err }},
		{"fig9a", func() error { _, err := epnet.Figure9a(e); return err }},
		{"fig9b", func() error { _, err := epnet.Figure9b(e); return err }},
		{"policies", func() error { _, err := epnet.PolicyAblation(e, search); return err }},
		{"dyntopo", func() error { _, err := epnet.DynTopoExperiment(e, epnet.WorkloadAdvert); return err }},
		{"routing", func() error { _, err := epnet.RoutingAblation(e, epnet.WorkloadPermutation); return err }},
		{"reactivation", func() error { _, err := epnet.ReactivationAblation(e, search); return err }},
		{"oversub", func() error {
			_, err := epnet.OverSubscription(e, search, []int{e.K / 2, e.K, e.K * 3 / 2, e.K * 2})
			return err
		}},
		{"topocompare", func() error { _, err := epnet.TopologyComparison(e, search); return err }},
		{"resilience", func() error { _, err := epnet.Resilience(e, search, []int{0, 2, 4, 8}); return err }},
		{"faultgrid", func() error {
			policies := []epnet.PolicyKind{epnet.PolicyBaseline, epnet.PolicyHalveDouble, epnet.PolicyQueueAware}
			_, err := epnet.ResilienceGrid(e, uniform, policies, []float64{1, 5, 20})
			return err
		}},
	}
}

// runTraced is a workload's extra traced repetition: one profiled run
// (for the harness, of its evaluation base, followed by a timed call of
// every experiment), a serial rerun when the run was sharded, a rerun
// without observers when it had any, the set-up builds, and the layer
// probes, each inside a span.
func runTraced(w workload, seed int64, scratch string) (repResult, error) {
	tr := &tracer{}
	root := tr.begin("traced "+w.name, 0)
	cfg, cleanup, err := repConfig(w, seed, scratch)
	defer cleanup()
	if err != nil {
		return repResult{}, err
	}
	cfg.Profile = true
	run, err := runSim(cfg, tr, root, "epnet.RunContext")
	rss, cpu := selfUsage()
	if err != nil {
		return repResult{}, err
	}
	res, prof := run.res, run.res.Profile
	vcfg := res.Config // as validated by the run: auto shards resolved
	delivered := float64(res.DeliveredPackets)
	events := float64(prof.TotalEvents() + prof.CtrlEvents)
	var peak int64
	for _, s := range prof.Shards {
		peak = max(peak, s.PeakPending)
	}
	L := map[string]float64{
		"sim.events":                     events,
		"fabric.events_per_pkt":          events / delivered,
		"sim.ns_per_event":               float64(prof.Wall.Nanoseconds()) / events,
		"sim.peak_pending":               float64(peak),
		"shard.count":                    float64(len(prof.Shards)),
		"shard.rounds":                   float64(prof.Rounds),
		"shard.barrier_pct":              prof.BarrierOverhead * 100,
		"shard.window_eff_pct":           prof.WindowEfficiency * 100,
		"shard.critical_path_s":          prof.CriticalPath.Seconds(),
		"shard.ctrl_s":                   prof.CtrlWall.Seconds(),
		"shard.drain_s":                  prof.DrainWall.Seconds(),
		"shard.speedup":                  1,
		"epnet.outside_engine_s":         (run.wall - prof.Wall).Seconds(),
		"epnet.ns_per_pkt":               float64(run.wall.Nanoseconds()) / delivered,
		"core.reconfigs":                 float64(res.Reconfigurations),
		"fault.events":                   float64(res.Faults.Total()),
		"fault.dropped_pkts":             float64(res.DroppedPackets),
		"model.power_ideal_pct":          res.RelPowerIdeal * 100,
		"model.power_measured_pct":       res.RelPowerMeasured * 100,
		"model.p99_us":                   float64(res.P99Latency) / float64(time.Microsecond),
		"telemetry.flow_traced":          0,
		"telemetry.observe_overhead_pct": 0,
	}
	if res.FlowTrace != nil {
		L["telemetry.flow_traced"] = float64(res.FlowTrace.Started)
	}

	if vcfg.Shards > 1 {
		serial := cfg
		serial.Shards = 1
		srun, err := runSim(serial, tr, root, "epnet.RunContext shards=1")
		if err != nil {
			return repResult{}, err
		}
		if srun.digest != run.digest {
			return repResult{}, fmt.Errorf("serial digest %.12s differs from %d-shard digest %.12s", srun.digest, vcfg.Shards, run.digest)
		}
		L["shard.speedup"] = srun.res.Profile.Wall.Seconds() / prof.Wall.Seconds()
	}
	if cfg.MetricsOut != "" || cfg.FlowTrace || cfg.Attribution {
		plain := cfg
		plain.MetricsOut, plain.FlowTrace, plain.Attribution = "", false, false
		prun, err := runSim(plain, tr, root, "epnet.RunContext unobserved")
		if err != nil {
			return repResult{}, err
		}
		L["telemetry.observe_overhead_pct"] = (run.wall.Seconds()/prun.wall.Seconds() - 1) * 100
	}

	setupID := tr.begin("setup", root)
	builds, err := measureSetup(cfg, tr, setupID)
	tr.end(setupID)
	if err != nil {
		return repResult{}, err
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	L["topo.build_ms"] = medianBuild(builds, func(b buildTimes) float64 { return ms(b.topo) })
	L["routing.build_ms"] = medianBuild(builds, func(b buildTimes) float64 { return ms(b.routing) })
	L["fabric.build_ms"] = medianBuild(builds, func(b buildTimes) float64 { return ms(b.fabric) })
	L["traffic.start_ms"] = medianBuild(builds, func(b buildTimes) float64 { return ms(b.traffic) })
	L["fabric.build_b_per_host"] = medianBuild(builds, func(b buildTimes) float64 { return float64(b.fabricBytes) }) / float64(res.Hosts)

	var series int
	var ctrlNet *fabric.Network
	probes := []namedCall{
		{"fabric.pkt_ns", func() (err error) { L["fabric.pkt_ns"], err = probePacket(vcfg); return err }},
		{"sim.event_ns_at_depth", func() error { L["sim.event_ns_at_depth"] = probeEventDepth(max(1, int(peak))); return nil }},
		{"routing.candidates_ns", func() (err error) { L["routing.candidates_ns"], err = probeCandidates(vcfg); return err }},
		{"link", func() error { L["link.transmit_ns"], L["link.epoch_ns"] = probeLink(vcfg); return nil }},
		{"core.chan_epoch_ns", func() (err error) { L["core.chan_epoch_ns"], ctrlNet, err = probeController(vcfg); return err }},
		{"power.collect_ms", func() error {
			L["power.collect_ms"] = probePower(vcfg, ctrlNet)
			ctrlNet = nil // a 32k-host network is worth freeing before the next probe
			return nil
		}},
		{"telemetry.sample_series_ns", func() (err error) {
			L["telemetry.sample_series_ns"], series, err = probeTelemetry(vcfg)
			L["telemetry.series"] = float64(series)
			return err
		}},
	}
	for _, p := range probes {
		runtime.GC()
		var err error
		tr.timed("probe "+p.name, root, func() { err = p.run() })
		if err != nil {
			return repResult{}, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}

	out := repResult{
		WallS:     run.wall.Seconds(),
		SetupS:    medianBuild(builds, setupSeconds),
		RSSMB:     rss,
		CPUS:      cpu,
		Digest:    run.digest,
		Layers:    L,
		Delivered: res.DeliveredPackets,
	}
	horizon := vcfg.Warmup + vcfg.Duration
	if vcfg.Policy != epnet.PolicyBaseline && vcfg.Policy != epnet.PolicyStaticMin {
		out.ChanEpochs = float64(res.Channels) * float64(horizon/vcfg.Epoch)
	}
	if vcfg.MetricsOut != "" {
		out.SeriesSamples = float64(series) * float64(horizon/vcfg.SampleInterval+1)
	}

	if w.harness {
		e := epnet.DefaultEval()
		e.Seed = seed
		e.Parallel = runtime.NumCPU()
		for _, x := range harnessExperiments(e) {
			var err error
			d := tr.timed("epnet "+x.name, root, func() { err = x.run() })
			if err != nil {
				return repResult{}, fmt.Errorf("%s: %w", x.name, err)
			}
			out.Experiments = append(out.Experiments, namedTime{x.name, d.Seconds()})
		}
	}
	tr.end(root)
	out.Spans = tr.spans
	return out, nil
}
