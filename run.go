package epnet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"epnet/internal/core"
	"epnet/internal/fabric"
	"epnet/internal/fault"
	"epnet/internal/link"
	"epnet/internal/parallel"
	"epnet/internal/power"
	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/stats"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// simTime converts a wall-clock-style duration to simulator picoseconds.
// Durations past maxSimDuration overflow; Validate rejects them.
func simTime(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) * sim.Nanosecond }

// maxSimDuration is the longest duration simTime converts exactly: the
// simulator clock counts picoseconds in an int64, about 2,562 hours.
const maxSimDuration = time.Duration(math.MaxInt64 / int64(sim.Nanosecond))

// toDuration converts simulator time back to a time.Duration
// (picoseconds truncate to nanoseconds).
func toDuration(t sim.Time) time.Duration {
	return time.Duration(int64(t) / int64(sim.Nanosecond))
}

// newTopology constructs the configured topology, which only records
// its shape: the fabric and the router build the per-switch state.
func newTopology(cfg Config) (topo.Topology, error) {
	switch cfg.Topology {
	case TopoFatTree:
		return topo.NewFatTree(cfg.C, cfg.K, cfg.K)
	case TopoClos3:
		return topo.NewClos3(cfg.K)
	default:
		return topo.NewFBFLY(cfg.K, cfg.N, cfg.C)
	}
}

// buildTopology constructs the configured topology and its router.
func buildTopology(cfg Config) (topo.Topology, routing.Router, *routing.FBFLY, error) {
	t, err := newTopology(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	switch t := t.(type) {
	case *topo.FatTree:
		return t, routing.NewFatTree(t), nil, nil
	case *topo.Clos3:
		return t, routing.NewClos3(t), nil, nil
	default:
		f := t.(*topo.FBFLY)
		if cfg.Routing == RoutingDOR {
			return f, &routing.DOR{F: f}, nil, nil
		}
		r := routing.NewFBFLY(f)
		return f, r, r, nil
	}
}

// Workload construction lives in scenario.go: every run — flag-
// configured or scenario-driven — resolves through buildPlan into
// streaming sources, so there is exactly one traffic codepath.

// advance drives the network to until, checking ctx for cooperative
// cancellation at every epoch boundary. A context that can never be
// canceled (Run's context.Background) collapses to a single RunUntil
// call, so the uncancelable path costs nothing extra. Cancellation
// observed after the window completes is ignored — the work is done.
// Network.RunUntil dispatches to the serial engine or the shard
// coordinator, so cancellation granularity is the same either way.
func advance(ctx context.Context, net *fabric.Network, until, epoch sim.Time) error {
	if ctx.Done() == nil {
		net.RunUntil(until)
		return nil
	}
	for now := net.E.Now(); now < until; now = net.E.Now() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("epnet: run canceled at %v: %w", toDuration(now), err)
		}
		step := now + epoch
		if step > until {
			step = until
		}
		net.RunUntil(step)
	}
	return nil
}

// chanLabels returns every channel's wiring label, indexed by channel.
func chanLabels(net *fabric.Network) []string {
	labels := make([]string, len(net.Channels()))
	for i, ch := range net.Channels() {
		labels[i] = ch.Label()
	}
	return labels
}

// Run executes one simulation described by cfg and returns its
// measurements. The run is deterministic for a given Config. It is
// shorthand for RunContext with a background context.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: when ctx is
// canceled, the simulation stops at the next epoch boundary and the
// context's error is returned (wrapped; test with errors.Is). A run
// that completes its measurement window before cancellation is
// observed returns its Result normally.
//
// A run passes through four stages (DESIGN.md, "Run pipeline"): build
// wires the network, attach hangs the controllers and observers on it,
// drive schedules traffic and faults and advances the clock, and
// collect folds everything into the Result and the output files — on
// the error path too, so an interrupted run still leaves its
// diagnostics behind.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	r, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	defer r.net.Close()
	if err = r.attach(); err == nil {
		err = r.drive(ctx)
	}
	return r.collect(err)
}

// run is one simulation on its way through the RunContext stages.
type run struct {
	cfg    Config
	e      *sim.Engine
	t      topo.Topology
	router routing.Router
	fbfly  *routing.FBFLY // nil unless the router is the adaptive FBFLY one
	net    *fabric.Network

	// Set by attach.
	warmup, horizon sim.Time
	plan            *runPlan
	eprof           *telemetry.EngineProfiler
	flow            *telemetry.FlowCollector
	rec             *deliveries
	ctrl            *core.Controller
	dyn             *core.DynTopo
	inj             *fault.Injector
	acct            *phaseAccounting
	out             outputs
	obs             *observer
	power           *telemetry.Sampler // the power trace's sampler, started by drive

	meter *power.Meter // instantaneous power; see powerMeter
	trace []PowerSample
}

// build constructs the topology, the router and the fabric.
func build(cfg Config) (*run, error) {
	r := &run{cfg: cfg, e: sim.New()}
	var err error
	if r.t, r.router, r.fbfly, err = buildTopology(cfg); err != nil {
		return nil, err
	}
	fcfg := fabric.DefaultConfig()
	fcfg.MaxPacket = cfg.MaxPacket
	fcfg.Seed = cfg.Seed
	fcfg.Shards = cfg.Shards
	if r.net, err = fabric.New(r.e, r.t, r.router, fcfg); err != nil {
		return nil, err
	}
	return r, nil
}

// ladder returns the fabric's link rate ladder.
func (r *run) ladder() link.RateLadder { return r.net.Cfg.Ladder }

// attach resolves the phase plan and hangs everything that watches or
// steers the network on it, in the order their start-up events must be
// scheduled: profiler, flow collector, controller, dynamic topology,
// fault injector, phase accounting, observer, and the delivery hook and
// power sampler they feed. The output files are created just before
// the observer that streams into one of them.
func (r *run) attach() error {
	cfg, net := r.cfg, r.net

	// The profiler observes wall-clock cost at window/barrier
	// granularity only, so every other Result field and every telemetry
	// file is byte-identical with profiling on or off.
	if cfg.Profile {
		r.eprof = telemetry.NewEngineProfiler(net.NumShards())
		net.SetProfiler(r.eprof)
	}

	// A flag-configured run is the implicit single steady phase; a
	// scenario contributes its phases.
	r.warmup = simTime(cfg.Warmup)
	r.horizon = r.warmup + simTime(cfg.Duration)
	var err error
	if r.plan, err = buildPlan(cfg, r.t.NumHosts(), r.warmup, r.horizon); err != nil {
		return err
	}

	// Flow tracing: hash-sampled packets carry hop logs, aggregated per
	// phase. Sampling is a pure function of packet ID and seed, so every
	// FlowTrace byte is identical across shard counts; with tracing off
	// the packet path keeps its zero-allocation fast path.
	if cfg.FlowTrace {
		r.flow = telemetry.NewFlowCollector(net.NumShards(), len(net.Channels()),
			cfg.FlowSample, cfg.Seed)
		names := make([]string, len(r.plan.phases))
		ends := make([]sim.Time, len(r.plan.phases))
		for i, ph := range r.plan.phases {
			names[i], ends[i] = ph.name, ph.end
		}
		r.flow.SetClasses(names, ends)
		net.SetFlowCollector(r.flow)
	}

	r.rec = newDeliveries(net, r.warmup)
	if err := r.startControl(); err != nil {
		return err
	}
	if r.inj, err = r.buildInjector(); err != nil {
		return err
	}

	// Per-phase scorecard (multi-phase scenarios only). Single-phase
	// runs skip it, so their event sequence — and every result byte —
	// matches the equivalent flag run.
	if r.plan.multi {
		r.acct = newPhaseAccounting(r.plan, net, r.ctrl, r.inj)
		r.acct.schedule(r.e)
		r.rec.byPhase(r.plan)
	}

	if r.out, err = openOutputs(&r.cfg); err != nil {
		return err
	}
	// The controller's epoch tick is already scheduled, so on coincident
	// timestamps the sampler observes post-retune link state (the engine
	// breaks ties FIFO).
	if r.obs, err = newObserver(r); err != nil {
		return err
	}
	net.OnDeliver = r.rec.deliver
	net.OnMessageDone = r.rec.messageDone
	if cfg.PowerSampleEvery > 0 {
		r.power, err = r.powerSampler(simTime(cfg.PowerSampleEvery))
	}
	return err
}

// startControl starts link control and the dynamic topology. A scenario
// that switches policy mid-run forces the controller on even when the
// opening policy is baseline/static-min (as a Static pin) — something
// has to execute the switch.
func (r *run) startControl() error {
	cfg, net := r.cfg, r.net
	switch {
	case cfg.Policy == PolicyBaseline && !r.plan.policySwitch:
		// Links stay at the ladder maximum; nothing to do.
	case cfg.Policy == PolicyStaticMin && !r.plan.policySwitch:
		for _, ch := range net.Channels() {
			ch.L.SetRate(0, r.ladder().Min(), 0)
		}
	default:
		if cfg.Policy == PolicyStaticMin {
			// Start at the floor immediately; the controller holds it
			// there until a phase switches policy.
			for _, ch := range net.Channels() {
				ch.L.SetRate(0, r.ladder().Min(), 0)
			}
		}
		r.ctrl = &core.Controller{
			Net:          net,
			Epoch:        simTime(cfg.Epoch),
			Reactivation: simTime(cfg.Reactivation),
			Paired:       !cfg.Independent,
			ModeAware:    cfg.ModeAwareReactivation,
			Policy:       resolveCorePolicy(cfg.Policy, cfg.TargetUtil, r.ladder()),
		}
		if err := r.ctrl.Start(); err != nil {
			return err
		}
	}
	if !cfg.DynTopo {
		return nil
	}
	if r.fbfly == nil {
		return fmt.Errorf("epnet: dynamic topology requires FBFLY")
	}
	r.dyn = core.DefaultDynTopo(net, r.fbfly)
	r.dyn.Reactivation = simTime(cfg.Reactivation)
	return r.dyn.Start()
}

// buildInjector constructs and wires the fault injector when the config
// or the run plan asks for any kind of fault, or returns nil. One
// injector executes the explicit schedule, the seeded-random process,
// and the scenario's chaos campaigns.
func (r *run) buildInjector() (*fault.Injector, error) {
	cfg := r.cfg
	if cfg.Faults == "" && cfg.FaultRate <= 0 && !r.plan.hasChaos {
		return nil, nil
	}
	masker, ok := r.router.(routing.PortMasker)
	if !ok {
		return nil, fieldErr("Routing", "fault injection requires adaptive routing, got %q", cfg.Routing)
	}
	inj := fault.New(r.net, masker)
	inj.Seed = cfg.Seed
	if cfg.ModeAwareReactivation {
		// A repaired link retrains its lanes; a cap-forced retune only
		// re-locks the receive CDR (§3.1).
		rm := link.DefaultReactivation()
		inj.RepairReactivation = rm.LaneChange
		inj.DegradeReactivation = rm.CDRLock
	} else {
		inj.RepairReactivation = simTime(cfg.Reactivation)
		inj.DegradeReactivation = simTime(cfg.Reactivation)
	}
	if cfg.Policy == PolicyBaseline && !r.plan.policySwitch {
		// No controller will climb the ladder; a restored link retunes
		// straight back to line rate. (A scenario that switches policy
		// forces the controller on, which climbs by itself.)
		inj.RestoreRate = r.ladder().Max()
	}
	if fr := r.fbfly; fr != nil {
		// Random faults must not partition the network: both endpoints
		// keep at least two live links in the affected dimension (real
		// clusters with more damage would be drained by operators).
		fb := fr.F
		liveInDim := func(sw, dim int) int {
			live := 0
			for v := 0; v < fb.K; v++ {
				if v == fb.Coord(sw, dim) {
					continue
				}
				if !fr.Dead(sw, fb.PortToPeer(sw, dim, v)) {
					live++
				}
			}
			return live
		}
		inj.Guard = func(pr [2]*fabric.Chan) bool {
			dim := fb.PortDim(pr[0].Src.Port)
			return liveInDim(pr[0].Src.ID, dim) >= 2 && liveInDim(pr[1].Src.ID, dim) >= 2
		}
	}
	return inj, nil
}

// powerMeter returns the instantaneous power meter over every channel,
// under the measured and then the ideal profile, building it on first
// use. The power.* gauges, the snapshot and the power trace read the
// same one.
func (r *run) powerMeter() *power.Meter {
	if r.meter == nil {
		chans := make([]*link.Channel, len(r.net.Channels()))
		for i, ch := range r.net.Channels() {
			chans[i] = &ch.L
		}
		r.meter = power.NewMeter(chans, power.InfiniBandOptical(), power.NewIdeal(r.ladder().Max()))
	}
	return r.meter
}

// powerSampler returns a sampler without a sink whose ticks append
// the Result.PowerTrace rows. Its baseline, at the warmup boundary,
// appends nothing: channel byte counters reset there, so the first row
// (one interval in) sees exactly the bytes moved since. It is never
// finished, so a window off its tick grid ends without a partial row.
func (r *run) powerSampler(interval sim.Time) (*telemetry.Sampler, error) {
	s, err := telemetry.NewSampler(nil, interval, nil, telemetry.CSV)
	if err != nil {
		return nil, err
	}
	meter := r.powerMeter()
	capacity := float64(r.ladder().Max()) / 8 * interval.Seconds() * float64(len(r.net.Channels()))
	var lastBytes int64
	var rel [2]float64
	s.OnSample = func(now sim.Time) {
		if now == r.warmup {
			return
		}
		bytes := meter.Read(now, rel[:])
		util := 0.0
		if capacity > 0 {
			util = float64(bytes-lastBytes) / capacity
		}
		lastBytes = bytes
		r.trace = append(r.trace, PowerSample{
			At:       toDuration(now - r.warmup),
			Measured: rel[0],
			Ideal:    rel[1],
			Util:     util,
		})
	}
	return s, nil
}

// drive starts the plan's traffic, schedules faults, chaos and the
// power sampler, and runs the warmup and the measured window with the
// accounting reset between them.
func (r *run) drive(ctx context.Context) error {
	// Phase 0's sources start inline — the engine is at t=0 — and each
	// later phase's traffic and policy switch is scheduled at its
	// boundary.
	r.plan.start(r.e, r.net, r.ctrl, r.ladder())
	if r.inj != nil {
		if r.cfg.Faults != "" {
			sched, err := fault.ParseSchedule(r.cfg.Faults)
			if err != nil {
				return fieldErr("Faults", "%v", err) // unreachable: Validate parsed it
			}
			if err := r.inj.Apply(r.warmup, sched); err != nil {
				return fieldErr("Faults", "%v", err)
			}
		}
		if r.cfg.FaultRate > 0 {
			r.inj.StartRandom(r.warmup, r.horizon, r.cfg.FaultRate, simTime(r.cfg.FaultMTTR), r.cfg.Seed)
		}
		if err := scheduleChaos(r.cfg, r.plan, r.inj, r.warmup); err != nil {
			return err
		}
	}
	if r.power != nil {
		r.e.At(r.warmup, func(sim.Time) { r.power.Start(r.e, r.horizon) })
	}

	// Warmup, then reset accounting so power/occupancy reflect steady
	// state.
	epoch := simTime(r.cfg.Epoch)
	if err := advance(ctx, r.net, r.warmup, epoch); err != nil {
		return err
	}
	for _, ch := range r.net.Channels() {
		ch.L.ResetAccounting(r.e.Now())
	}
	if r.ctrl != nil {
		r.ctrl.Reconfigurations = 0
	}
	if r.acct != nil {
		// Phase 0's measured slice starts here, with counters exactly as
		// the reset left them.
		r.acct.snaps[0] = r.acct.snapshot()
	}
	if err := advance(ctx, r.net, r.horizon, epoch); err != nil {
		return err
	}
	if r.acct != nil {
		r.acct.snaps[len(r.plan.phases)] = r.acct.snapshot()
	}
	return nil
}

// collect finishes the observer, builds the Result when the run
// succeeded, and writes the flow-trace, Chrome trace and profile files
// either way. A failed run's flow trace carries no energy join:
// per-channel energies exist only for a completed window.
func (r *run) collect(err error) (Result, error) {
	errs := []error{err, r.obs.finish(r.e.Now())}
	var res Result
	if err == nil {
		res = r.result()
	}
	flows, prof := res.FlowTrace, res.Profile
	if flows == nil && r.flow != nil {
		flows = r.flow.Report(chanLabels(r.net), nil, nil)
	}
	if prof == nil && r.eprof != nil {
		prof = r.eprof.Snapshot()
	}
	if flows != nil {
		errs = append(errs,
			r.out.write(outFlows, "flow trace", jsonOrCSV(r.cfg.FlowsOut, flows, flows.WriteCSV)),
			r.out.write(outTrace, "trace", flows.WriteChrome))
	}
	if prof != nil {
		errs = append(errs, r.out.write(outProfile, "profile", jsonOrCSV(r.cfg.ProfileOut, prof, prof.WriteCSV)))
	}
	r.out.close()
	if err := errors.Join(errs...); err != nil {
		return Result{}, err
	}
	return res, nil
}

// rateMap maps the rate in Gb/s of each rung o spent time at to f of
// that time.
func rateMap(o link.Occupancy, f func(sim.Time) float64) RateShareMap {
	m := make(RateShareMap)
	for i, t := range o.AtRate {
		if t != 0 {
			m[o.Ladder[i].GbpsF()] = f(t)
		}
	}
	return m
}

// result folds the finished run into its Result.
func (r *run) result() Result {
	cfg, net, t := r.cfg, r.net, r.t
	res := Result{
		Config:   cfg,
		Hosts:    t.NumHosts(),
		Switches: t.NumSwitches(),
		Channels: len(net.Channels()),
	}
	lat := r.rec.merged(func(s *recorder) *stats.Latency { return s.pkt })
	msgLat := r.rec.merged(func(s *recorder) *stats.Latency { return s.msg })
	res.MeanLatency = toDuration(lat.Mean())
	res.P50Latency = toDuration(lat.Percentile(50))
	res.P99Latency = toDuration(lat.Percentile(99))
	res.MaxLatency = toDuration(lat.Max())
	res.Packets = lat.Count()
	res.MsgMeanLatency = toDuration(msgLat.Mean())
	res.MsgP99Latency = toDuration(msgLat.Percentile(99))
	res.Messages = msgLat.Count()

	var share link.Occupancy
	measured := power.InfiniBandOptical()
	copper := power.InfiniBandCopper()
	ideal := power.NewIdeal(r.ladder().Max())
	parts := power.DefaultPartPower()
	fullWatts := float64(t.NumSwitches())*parts.SwitchChipWatts +
		float64(t.NumHosts())*parts.NICWatts

	// Optional per-channel attribution, charged under the same
	// measured profile and part model as the aggregate estimate so the
	// per-channel energies sum exactly to Result.EnergyJoules. Flow
	// tracing forces the computation (its energy join charges traced
	// bytes each channel's energy) even when Result.Attribution itself
	// stays off.
	var attr *power.Attribution
	if cfg.Attribution || r.flow != nil {
		attr = power.NewAttribution(fullWatts, len(net.Channels()),
			simTime(cfg.Duration), measured)
	}
	var chanEnergy []float64
	var chanTotBytes []int64
	if r.flow != nil {
		chanEnergy = make([]float64, len(net.Channels()))
		chanTotBytes = make([]int64, len(net.Channels()))
	}

	var pm, pi, util float64
	var classAcc, classCnt [topo.Optical + 1]float64
	// Each channel's time-at-rate row is read in place and folded at
	// once, so collection allocates nothing per channel.
	now := r.e.Now()
	for ci, ch := range net.Channels() {
		occ := ch.L.OccupancyView(now)
		share.Add(occ)
		pm += power.OccupancyPower(occ, measured)
		pi += power.OccupancyPower(occ, ideal)
		chUtil := ch.L.MeanUtilization(now)
		util += chUtil

		// Per-class breakdown: host channels are electrical; switch
		// channels follow the topology's packaging classification.
		class := topo.Electrical
		if ch.Src.Kind == topo.KindSwitch {
			class = t.LinkClass(ch.Src.ID, ch.Src.Port)
		}
		prof := power.Profile(measured)
		if class == topo.Electrical {
			prof = copper
		}
		classAcc[class] += power.OccupancyPower(occ, prof)
		classCnt[class]++

		if attr == nil {
			continue
		}
		ce := attr.Add(ch.Label(), class.String(), occ, chUtil)
		if chanEnergy != nil {
			chanEnergy[ci] = ce.EnergyJ
			chanTotBytes[ci] = ch.L.TotalBytes()
		}
		if !cfg.Attribution {
			continue
		}
		la := LinkAttribution{
			Link:         ce.Name,
			Class:        ce.Class,
			Utilization:  ce.Utilization,
			RelPower:     ce.RelPower,
			EnergyJoules: ce.EnergyJ,
			TimeAtRate:   rateMap(ce.Occupancy, sim.Time.Seconds),
			OffSeconds:   ce.Occupancy.Off.Seconds(),
			Bytes:        ch.L.TotalBytes(),
			Packets:      ch.L.TotalPackets(),
			Drops:        ch.Drops(),
		}
		res.Attribution = append(res.Attribution, la)
	}
	nch := float64(len(net.Channels()))
	res.RelPowerMeasured = pm / nch
	res.RelPowerIdeal = pi / nch
	res.AvgUtil = util / nch
	res.ClassPower = make(map[string]float64)
	for class, acc := range classAcc {
		if classCnt[class] > 0 {
			res.ClassPower[topo.LinkClass(class).String()] = acc / classCnt[class]
		}
	}

	// Directional asymmetry across link pairs (byte-weighted).
	var asymNum, asymDen float64
	for _, pr := range net.Pairs() {
		a := float64(pr[0].L.TotalBytes())
		b := float64(pr[1].L.TotalBytes())
		if a+b == 0 {
			continue
		}
		d := a - b
		if d < 0 {
			d = -d
		}
		asymNum += d
		asymDen += a + b
	}
	if asymDen > 0 {
		res.Asymmetry = asymNum / asymDen
	}

	// Energy estimate: the simulated network's part power scaled by the
	// measured relative power, integrated over the measurement window.
	res.EstimatedWatts = fullWatts * res.RelPowerMeasured
	res.EnergyJoules = res.EstimatedWatts * simTime(cfg.Duration).Seconds()

	for _, b := range lat.Buckets() {
		res.LatencyCDF = append(res.LatencyCDF, LatencyBucket{
			Upper: toDuration(b.Upper),
			Count: b.Count,
		})
	}
	res.RateShare = rateMap(share, func(t sim.Time) float64 { return float64(t) / float64(share.Total) })
	res.OffShare = share.OffFraction()
	if r.ctrl != nil {
		res.Reconfigurations = r.ctrl.Reconfigurations
	}
	if r.dyn != nil {
		res.DynTransitions = r.dyn.Transitions
	}
	res.InjectedPackets, _ = net.Injected()
	res.DeliveredPackets, res.DeliveredBytes = net.Delivered()
	res.DroppedPackets, res.DroppedBytes = net.Dropped()
	res.DeliveredFraction = 1.0
	if res.DroppedPackets > 0 {
		res.DeliveredFraction = float64(res.DeliveredPackets) /
			float64(res.DeliveredPackets+res.DroppedPackets)
	}
	if r.inj != nil {
		res.Faults = r.inj.Stats
	}
	res.BacklogBytes = net.HostBacklogBytes()
	res.PeakQueueBytes = net.PeakQueueBytes()
	res.PowerTrace = r.trace
	if r.acct != nil {
		res.PhaseScores = r.acct.scores(r.warmup, t.NumHosts(), r.ladder(), r.rec)
	}
	if r.flow != nil {
		res.FlowTrace = r.flow.Report(chanLabels(net), chanEnergy, chanTotBytes)
		// The collector's classes are the plan's phases, so a scorecard
		// row and its decomposition line up by index.
		for i := range res.PhaseScores {
			applyToScore(&res.FlowTrace.Classes[i], &res.PhaseScores[i])
		}
	}
	if r.eprof != nil {
		res.Profile = r.eprof.Snapshot()
	}
	return res
}

// deliveries is the run's one delivery hook and its per-shard
// recorders. OnDeliver and OnMessageDone run on the shard owning the
// destination host, so each shard writes only its own recorder; every
// read merges them with integer adds, which makes the totals
// independent of the shard count. Only packets injected after warmup
// are recorded.
type deliveries struct {
	net    *fabric.Network
	warmup sim.Time
	ends   []sim.Time // phase ends; nil unless multi-phase
	shards []recorder
}

// recorder is one shard's share of the delivery measurements.
type recorder struct {
	pkt, msg *stats.Latency
	// phase[i] records packets delivered in plan phase i (multi-phase
	// runs only).
	phase []*stats.Latency
	// buckets and sum accumulate the net.latency_us histogram (observed
	// runs only).
	buckets []int64
	sum     sim.Time
}

func newDeliveries(net *fabric.Network, warmup sim.Time) *deliveries {
	d := &deliveries{net: net, warmup: warmup, shards: make([]recorder, net.NumShards())}
	for i := range d.shards {
		d.shards[i].pkt = stats.NewLatency()
		d.shards[i].msg = stats.NewLatency()
	}
	return d
}

// byPhase adds per-phase latency recorders for plan's phases.
func (d *deliveries) byPhase(plan *runPlan) {
	d.ends = make([]sim.Time, len(plan.phases))
	for i, ph := range plan.phases {
		d.ends[i] = ph.end
	}
	for s := range d.shards {
		d.shards[s].phase = make([]*stats.Latency, len(d.ends))
		for i := range d.ends {
			d.shards[s].phase[i] = stats.NewLatency()
		}
	}
}

// withHistogram adds the net.latency_us bucket counters.
func (d *deliveries) withHistogram() {
	for s := range d.shards {
		d.shards[s].buckets = make([]int64, len(latencyBucketsUs)+1)
	}
}

// deliver is the fabric's OnDeliver hook. It runs on the destination
// shard's hot path: no allocation once the latency buckets are warm.
func (d *deliveries) deliver(p *fabric.Packet, now sim.Time) {
	if p.Inject < d.warmup {
		return
	}
	s := &d.shards[d.net.HostShard(int(p.Dst))]
	lat := now - p.Inject
	s.pkt.Add(lat)
	if s.phase != nil {
		// Classify by delivery time — the clock the boundary snapshots
		// cut on, which keeps every scorecard row a pure function of
		// events up to its phase end.
		i := 0
		for i < len(d.ends)-1 && now >= d.ends[i] {
			i++
		}
		s.phase[i].Add(lat)
	}
	if s.buckets != nil {
		// Histogram.Observe's bucket: the first bound >= the latency.
		b, _ := slices.BinarySearch(latencyBucketsUs, lat.Microseconds())
		s.buckets[b]++
		s.sum += lat
	}
}

// messageDone is the fabric's OnMessageDone hook.
func (d *deliveries) messageDone(_ int64, _, dst int, inject, done sim.Time) {
	if inject >= d.warmup {
		d.shards[d.net.HostShard(dst)].msg.Add(done - inject)
	}
}

// merged folds the latency recorder pick selects from every shard into
// one distribution. Merge is a pure integer reduction, so the result
// matches what a serial run records directly.
func (d *deliveries) merged(pick func(*recorder) *stats.Latency) *stats.Latency {
	out := stats.NewLatency()
	for i := range d.shards {
		out.Merge(pick(&d.shards[i]))
	}
	return out
}

// RunGrid executes every configuration across at most workers
// goroutines (workers < 1 means one per CPU) and returns the results in
// input order. Each simulation is fully self-contained — its own event
// engine and seeded RNGs — so the results are identical to running the
// configurations serially; only wall-clock time changes. On error, the
// error of the lowest-index failing configuration is returned and no
// results are.
func RunGrid(cfgs []Config, workers int) ([]Result, error) {
	return RunGridContext(context.Background(), cfgs, workers)
}

// RunGridContext is RunGrid with cooperative cancellation: the shared
// ctx cancels every in-flight simulation at its next epoch boundary,
// and the first (lowest-index) error is returned.
func RunGridContext(ctx context.Context, cfgs []Config, workers int) ([]Result, error) {
	return parallel.Map(len(cfgs), workers, func(i int) (Result, error) {
		return RunContext(ctx, cfgs[i])
	})
}

// RunBaselinePair runs cfg and its always-on baseline twin (identical
// except Policy=Baseline) and returns both plus the additional mean
// latency the energy-proportional configuration costs — the paper's
// Figure 9 metric.
func RunBaselinePair(cfg Config) (ep, base Result, addedMean time.Duration, err error) {
	return RunBaselinePairContext(context.Background(), cfg)
}

// RunBaselinePairContext is RunBaselinePair with cooperative
// cancellation through ctx.
func RunBaselinePairContext(ctx context.Context, cfg Config) (ep, base Result, addedMean time.Duration, err error) {
	bcfg := cfg
	bcfg.Policy = PolicyBaseline
	base, err = RunContext(ctx, bcfg)
	if err != nil {
		return
	}
	ep, err = RunContext(ctx, cfg)
	if err != nil {
		return
	}
	addedMean = ep.MeanLatency - base.MeanLatency
	return
}
