// Package epnet is a library-level reproduction of "Energy Proportional
// Datacenter Networks" (Abts, Marty, Wells, Klausler, Liu — ISCA 2010).
//
// It provides:
//
//   - An event-driven simulator of a flattened-butterfly (or fat-tree)
//     datacenter network with credit-based cut-through flow control,
//     per-hop adaptive routing, and plesiochronous links whose data rate
//     can be re-tuned at runtime (Run / Config / Result).
//   - The paper's energy-proportional link control heuristics: epoch
//     utilization sensing with halve/double rate adjustment, paired vs
//     independent unidirectional channel control, aggressive min/max
//     jumps, and dynamic topologies that power entire links off.
//   - The analytic power models behind the paper's Table 1 and Figure 1
//     (flattened butterfly vs folded Clos part counts and operating
//     cost), the measured switch power profile of Figure 5, and the ITRS
//     trends of Figure 6.
//   - The evaluation workloads: Uniform (512 KB random messages) and
//     synthetic stand-ins for the paper's production Search and Advert
//     traces (heavy-tailed, low-utilization, asymmetric).
//
// The cmd/experiments tool and the benchmarks in bench_test.go
// regenerate every table and figure of the paper; EXPERIMENTS.md records
// paper-vs-measured values.
package epnet

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"epnet/internal/fault"
)

// PolicyKind selects the link-rate control policy for a simulation.
type PolicyKind string

const (
	// PolicyBaseline keeps every link at full rate — the "always on"
	// status quo the paper starts from.
	PolicyBaseline PolicyKind = "baseline"
	// PolicyHalveDouble is the paper's §3.3 heuristic: below the target
	// utilization halve the rate, above it double it.
	PolicyHalveDouble PolicyKind = "halve-double"
	// PolicyMinMax is the §5.2 aggressive heuristic: jump straight to
	// the minimum or maximum rate.
	PolicyMinMax PolicyKind = "min-max"
	// PolicyHysteresis is a stabilized halve/double variant with a dead
	// band between target/2 and target.
	PolicyHysteresis PolicyKind = "hysteresis"
	// PolicyStaticMin pins every link at the slowest rate — the
	// low-power bound that "fails to keep up with the offered load".
	PolicyStaticMin PolicyKind = "static-min"
	// PolicyQueueAware is halve/double plus a congestion override: a
	// deep output-queue backlog jumps the link straight to full rate
	// (the §3.2/§5.2 congestion-sensing input).
	PolicyQueueAware PolicyKind = "queue-aware"
)

// RoutingKind selects the per-hop route choice on the FBFLY.
type RoutingKind string

const (
	// RoutingAdaptive picks the minimal candidate with the smallest
	// output queue — the paper's evaluation configuration, and the
	// mechanism that lets traffic flow around reconfiguring links.
	RoutingAdaptive RoutingKind = "adaptive"
	// RoutingDOR is deterministic dimension-order routing: the ablation
	// showing why adaptivity is an "essential ingredient" (§6).
	RoutingDOR RoutingKind = "dor"
)

// WorkloadKind selects the offered traffic.
type WorkloadKind string

const (
	// WorkloadUniform is §4.1's synthetic: each host repeatedly sends a
	// 512 KB message to a new random destination (~23% average load).
	WorkloadUniform WorkloadKind = "uniform"
	// WorkloadSearch is the web-search production-trace stand-in
	// (~6% average load, bursty, asymmetric).
	WorkloadSearch WorkloadKind = "search"
	// WorkloadAdvert is the advertising-service production-trace
	// stand-in (~5% average load).
	WorkloadAdvert WorkloadKind = "advert"
	// WorkloadPermutation streams along a fixed random permutation.
	WorkloadPermutation WorkloadKind = "permutation"
	// WorkloadHotspot converges all traffic on a few destinations.
	WorkloadHotspot WorkloadKind = "hotspot"
	// WorkloadTornado sends each host's traffic halfway around the
	// cluster — adversarial for ring-degraded (dynamic) topologies.
	WorkloadTornado WorkloadKind = "tornado"
	// WorkloadIncast fires synchronized fan-in bursts at rotating victim
	// hosts — the partition/aggregate pattern that punishes links detuned
	// during the preceding lull.
	WorkloadIncast WorkloadKind = "incast"
	// WorkloadMigration runs concurrent bulk point-to-point transfers
	// (a VM migration storm): few flows, each holding one path hot.
	WorkloadMigration WorkloadKind = "migration"
	// WorkloadTrace replays a recorded trace file (see Config.TracePath
	// and cmd/tracegen).
	WorkloadTrace WorkloadKind = "trace"
)

// TopologyKind selects the simulated topology.
type TopologyKind string

const (
	// TopoFBFLY is the flattened butterfly (k-ary n-flat).
	TopoFBFLY TopologyKind = "fbfly"
	// TopoFatTree is a two-level folded Clos with K leaves, K spines
	// and C hosts per leaf.
	TopoFatTree TopologyKind = "fattree"
	// TopoClos3 is a three-tier folded Clos (k-pod fat tree) built from
	// radix-K chips: K^3/4 hosts on 5K^2/4 switches. N and C are ignored.
	TopoClos3 TopologyKind = "clos3"
)

// Config describes one simulation run. The zero value is not runnable;
// start from DefaultConfig. Each field's json tag is its key in
// Config's JSON form (see MarshalJSON).
type Config struct {
	// Topology selects the network shape (default flattened butterfly).
	Topology TopologyKind `json:"topology,omitempty"`
	// K, N, C give the k-ary n-flat shape with concentration c. The
	// paper's simulated system is K=15, N=3, C=15 (3,375 hosts); the
	// default here is a smaller instance for fast runs.
	K int `json:"k,omitempty"`
	N int `json:"n,omitempty"`
	C int `json:"c,omitempty"`

	// Workload selects the offered traffic; Load overrides its default
	// average utilization when positive.
	Workload WorkloadKind `json:"workload,omitempty"`
	Load     float64      `json:"load,omitempty"`
	// TracePath is the trace file replayed when Workload is
	// WorkloadTrace (the binary format written by cmd/tracegen).
	TracePath string `json:"trace_path,omitempty"`

	// Policy is the link control policy; TargetUtil is its target
	// channel utilization (paper default 0.5).
	Policy     PolicyKind `json:"policy,omitempty"`
	TargetUtil float64    `json:"target_util,omitempty"`

	// Independent enables independent control of the two unidirectional
	// channels of each link (§3.3.1); false ties link pairs together.
	Independent bool `json:"independent,omitempty"`

	// Routing selects adaptive (default) or dimension-order routing.
	Routing RoutingKind `json:"routing,omitempty"`

	// ModeAwareReactivation charges per-transition penalties from the
	// SerDes model (§3.1: CDR re-lock ~100 ns for rate-only changes,
	// ~1 µs lane retraining) instead of the flat Reactivation.
	ModeAwareReactivation bool `json:"mode_aware_reactivation,omitempty"`

	// Reactivation is the link reconfiguration penalty (default 1 µs);
	// Epoch is the utilization measurement window (default 10x
	// reactivation, per §4.2.2).
	Reactivation time.Duration `json:"reactivation,omitempty"`
	Epoch        time.Duration `json:"epoch,omitempty"`

	// DynTopo additionally enables the §5.1 dynamic topology
	// controller (flattened butterfly only).
	DynTopo bool `json:"dyn_topo,omitempty"`

	// Warmup and Duration split the run: statistics (latency, power,
	// occupancy) are collected only during the Duration window after
	// Warmup ends. Injection runs through both.
	Warmup   time.Duration `json:"warmup,omitempty"`
	Duration time.Duration `json:"duration,omitempty"`

	// Seed makes the run reproducible.
	Seed int64 `json:"seed,omitempty"`

	// Shards, when > 1, partitions the fabric's switches (with their
	// attached hosts) across this many workers that advance in
	// conservative per-shard time windows bounded by a per-shard-pair
	// lookahead matrix, exchanging boundary events at window barriers.
	// The topology picks the partition: flattened butterflies cut along
	// dimensions, folded Clos along pods. Results are byte-identical to
	// the serial run for the same seed — sharding trades nothing but
	// wall-clock time.
	//
	// 0 (the default) means auto: one shard per available CPU
	// (runtime.GOMAXPROCS), capped so every shard keeps at least ~8
	// switches, and serial when the run needs the serial engine
	// (TraceOut). 1 forces the serial engine; counts above the switch
	// count are capped to it. Explicit Shards > 1 is incompatible with
	// TraceOut (the trace stream is single-writer).
	Shards int `json:"shards,omitempty"`

	// MaxPacket is the segmentation size (default 2048 bytes).
	MaxPacket int `json:"max_packet,omitempty"`

	// PowerSampleEvery, when positive, samples instantaneous network
	// power and offered utilization at this interval during the
	// measurement window, populating Result.PowerTrace — a direct view
	// of the network's power tracking its load.
	PowerSampleEvery time.Duration `json:"power_sample_every,omitempty"`

	// MetricsOut, when non-empty, writes a sampled time series of every
	// registered telemetry metric (link rates and states, switch queue
	// depths, delivery counters, instantaneous power, controller and
	// routing state) to this path at the end of the run — CSV by
	// default, JSON Lines when the path ends in ".jsonl".
	// SampleInterval is the sampling period; it defaults to Epoch, so
	// the series resolves per-epoch link rate changes.
	MetricsOut     string        `json:"metrics_out,omitempty"`
	SampleInterval time.Duration `json:"sample_interval,omitempty"`

	// TraceOut, when non-empty, streams a Chrome trace_event JSON file
	// to this path: packet lifetime spans (inject -> deliver) and link
	// reconfiguration spans (CDR re-lock vs lane retraining), loadable
	// in chrome://tracing or https://ui.perfetto.dev. When unset — the
	// default — the packet path carries no tracing work beyond one nil
	// check.
	TraceOut string `json:"trace_out,omitempty"`

	// HeatmapOut, when non-empty, writes a utilization x time heatmap
	// CSV at the end of the run: one row per inter-switch channel, one
	// column per SampleInterval, each cell the channel's utilization
	// over that interval — the per-link view behind the paper's Figs
	// 8-13.
	HeatmapOut string `json:"heatmap_out,omitempty"`

	// HistOut, when non-empty, writes a link-utilization histogram CSV
	// (the paper's Fig 8 view): how often links sit at each utilization
	// level, aggregated over all inter-switch channels and all sample
	// intervals of the run.
	HistOut string `json:"hist_out,omitempty"`

	// Attribution, when true, populates Result.Attribution with the
	// per-channel energy/utilization breakdown. Off by default to keep
	// Result compact at paper scale (thousands of channels).
	Attribution bool `json:"attribution,omitempty"`

	// Profile, when true, self-profiles the simulation engine and
	// populates Result.Profile: per-shard wall-clock busy / barrier-wait
	// / idle time, granted-vs-used window width, the cross-shard
	// exchange matrix, and a critical-path report identifying which
	// shard set each window barrier. Collection happens strictly outside
	// the deterministic simulation path (at window and barrier
	// granularity, never per packet), so every other Result field and
	// every telemetry CSV is byte-identical with profiling on or off.
	Profile bool `json:"profile,omitempty"`

	// ProfileOut, when non-empty, writes the engine profile to this path
	// at the end of the run — JSON by default, a per-shard CSV when the
	// path ends in ".csv" — and implies Profile.
	ProfileOut string `json:"profile_out,omitempty"`

	// FlowTrace, when true, hash-samples packets at injection and carries
	// a compact per-hop log on each sampled packet: queue wait, credit
	// stall, retune stall, busy wait, cut-through wait, serialization,
	// wire and routing delay, summing exactly to the packet's end-to-end
	// latency. The run populates Result.FlowTrace with per-phase latency
	// decompositions, energy per delivered bit, slowest-packet exemplars,
	// and anomaly dumps (a flight-recorder ring flushed on packet drops
	// and fault epochs). Sampling is a pure hash of the packet ID and
	// seed, so the sampled set — and every FlowTrace byte — is identical
	// across shard counts; with tracing off the packet path carries
	// nothing beyond one nil check.
	FlowTrace bool `json:"flow_trace,omitempty"`

	// FlowSample is the flow-tracing sample rate in (0,1]: the expected
	// fraction of packets carrying a hop log. 0 defaults to 1/64. 1
	// traces every packet (exact decompositions, highest overhead). A
	// positive rate implies FlowTrace.
	FlowSample float64 `json:"flow_sample,omitempty"`

	// FlowsOut, when non-empty, writes the flow-trace report to this
	// path at the end of the run — JSON by default, a per-phase
	// decomposition CSV when the path ends in ".csv" — and implies
	// FlowTrace.
	FlowsOut string `json:"flows_out,omitempty"`

	// Inspector, when non-nil, receives a Prometheus scrape body and a
	// JSON per-entity snapshot at every sample tick, for live HTTP
	// inspection of a running simulation (see NewInspector). Excluded
	// from the Config's JSON form: it is runtime wiring, not a
	// parameter.
	Inspector *Inspector `json:"-"`

	// Faults, when non-empty, is a deterministic fault schedule executed
	// by the internal/fault injector: semicolon-separated events of the
	// form "<offset> <verb> <target> [arg]", with offsets relative to the
	// end of warmup. Verbs: fail-link / repair-link / degrade-link /
	// restore-link (target "s<switch>p<port>", degrade takes a rate cap
	// in Gb/s), fail-switch / repair-switch (target is a switch index),
	// and fail-random (target is a link count >= 1: abruptly powers off
	// that many randomly chosen inter-switch link pairs, seeded by Seed
	// and never partitioning an FBFLY dimension — the failure case of
	// §1's failure-domain argument). Example:
	//
	//	"50us fail-link s0p8; 100us degrade-link s1p8 10; 400us repair-link s0p8; 500us fail-random 4"
	//
	// Requires adaptive routing (the router must mask dead ports).
	Faults string `json:"faults,omitempty"`

	// FaultRate, when positive, additionally injects seeded-random link
	// failures and lane degradations at this expected rate (events per
	// simulated millisecond) through the measurement window. Failed
	// links repair after an exponentially distributed time with mean
	// FaultMTTR (default 200 µs). The sequence is a pure function of
	// Seed: identical runs see identical fault histories.
	FaultRate float64       `json:"fault_rate,omitempty"`
	FaultMTTR time.Duration `json:"fault_mttr,omitempty"`

	// Scenario, when non-nil, drives the run as a sequence of named
	// phases — traffic mixes with load shapes, policy switches, and
	// chaos campaigns at phase boundaries — instead of the single
	// homogeneous workload the fields above describe. Load one with
	// LoadScenario; Validate checks it and derives Duration from the
	// phase durations. The first phase's first traffic stream and policy
	// are mirrored into Workload/Load/Policy/TargetUtil so reports and
	// single-phase scenarios read like ordinary runs.
	Scenario *Scenario `json:"scenario,omitempty"`
}

// DefaultConfig returns a fast-running configuration faithful to the
// paper's defaults: halve/double policy, 50% target, 1 µs reactivation,
// 10 µs epoch, paired link control, on an 8-ary 2-flat.
func DefaultConfig() Config {
	return Config{
		Topology:     TopoFBFLY,
		K:            8,
		N:            2,
		C:            8,
		Workload:     WorkloadSearch,
		Policy:       PolicyHalveDouble,
		TargetUtil:   0.5,
		Independent:  false,
		Reactivation: time.Microsecond,
		Epoch:        10 * time.Microsecond,
		Warmup:       200 * time.Microsecond,
		Duration:     2 * time.Millisecond,
		Seed:         1,
		MaxPacket:    2048,
	}
}

// PaperConfig returns the paper's full evaluation configuration: a
// 15-ary 3-flat with 3,375 hosts. Expect runs to take minutes of wall
// time at trace-level durations.
func PaperConfig() Config {
	c := DefaultConfig()
	c.K, c.N, c.C = 15, 3, 15
	return c
}

// Validate fills defaults and rejects inconsistent configurations,
// including durations the simulator clock cannot hold (past
// maxSimDuration). Every error it returns matches ErrInvalidConfig
// under errors.Is and carries the offending field name in a
// *ConfigFieldError; unknown enum values additionally match the
// corresponding ErrUnknown* sentinel.
func (c *Config) Validate() error {
	if c.Topology == "" {
		c.Topology = TopoFBFLY
	}
	if c.Topology != TopoFBFLY && c.Topology != TopoFatTree && c.Topology != TopoClos3 {
		return enumErr(ErrUnknownTopology, "Topology", "unknown topology %q", c.Topology)
	}
	if c.DynTopo && c.Topology != TopoFBFLY {
		return fieldErr("DynTopo", "dynamic topologies require the flattened butterfly, not %q", c.Topology)
	}
	if c.K < 2 {
		return fieldErr("K", "must be >= 2, got %d", c.K)
	}
	if c.C < 1 {
		return fieldErr("C", "must be >= 1, got %d", c.C)
	}
	if c.Topology == TopoClos3 && (c.K < 4 || c.K%2 != 0) {
		return fieldErr("K", "clos3 needs an even K >= 4, got %d", c.K)
	}
	if c.Topology == TopoFBFLY && c.N < 2 {
		return fieldErr("N", "must be >= 2, got %d", c.N)
	}
	if c.Scenario != nil {
		if err := c.validateScenario(); err != nil {
			return err
		}
	}
	switch c.Workload {
	case WorkloadUniform, WorkloadSearch, WorkloadAdvert, WorkloadPermutation,
		WorkloadHotspot, WorkloadTornado, WorkloadIncast, WorkloadMigration:
	case WorkloadTrace:
		if c.TracePath == "" {
			return fieldErr("TracePath", "trace workload needs a trace file")
		}
	case "":
		c.Workload = WorkloadUniform
	default:
		return enumErr(ErrUnknownWorkload, "Workload", "unknown workload %q", c.Workload)
	}
	switch c.Policy {
	case PolicyBaseline, PolicyHalveDouble, PolicyMinMax, PolicyHysteresis,
		PolicyStaticMin, PolicyQueueAware:
	case "":
		c.Policy = PolicyBaseline
	default:
		return enumErr(ErrUnknownPolicy, "Policy", "unknown policy %q", c.Policy)
	}
	switch c.Routing {
	case RoutingAdaptive, RoutingDOR:
	case "":
		c.Routing = RoutingAdaptive
	default:
		return enumErr(ErrUnknownRouting, "Routing", "unknown routing %q", c.Routing)
	}
	if c.Routing == RoutingDOR && c.Topology != TopoFBFLY {
		return fieldErr("Routing", "dimension-order routing requires the flattened butterfly, not %q", c.Topology)
	}
	if c.Scenario != nil && c.Routing == RoutingDOR && scenarioHasChaos(c.Scenario) {
		return fieldErr("Scenario", "chaos campaigns need adaptive routing (dead ports must be maskable)")
	}
	var faults fault.Schedule
	if c.Faults != "" {
		if c.Routing == RoutingDOR {
			return fieldErr("Faults", "fault injection needs adaptive routing (dead ports must be maskable)")
		}
		var err error
		if faults, err = fault.ParseSchedule(c.Faults); err != nil {
			return fieldErr("Faults", "%v", err)
		}
	}
	if c.FaultRate < 0 {
		return fieldErr("FaultRate", "must be >= 0, got %v", c.FaultRate)
	}
	if c.FaultRate > 0 {
		if c.Routing == RoutingDOR {
			return fieldErr("FaultRate", "fault injection needs adaptive routing (dead ports must be maskable)")
		}
		if c.FaultMTTR < 0 {
			return fieldErr("FaultMTTR", "must be >= 0, got %v", c.FaultMTTR)
		}
		if c.FaultMTTR == 0 {
			c.FaultMTTR = 200 * time.Microsecond
		}
	}
	if c.Load < 0 || c.Load >= 1 {
		return fieldErr("Load", "%v out of [0,1)", c.Load)
	}
	if c.TargetUtil == 0 {
		c.TargetUtil = 0.5
	}
	if c.TargetUtil < 0 || c.TargetUtil > 1 {
		return fieldErr("TargetUtil", "%v out of (0,1]", c.TargetUtil)
	}
	if c.Reactivation == 0 {
		c.Reactivation = time.Microsecond
	}
	if c.Reactivation < 0 {
		return fieldErr("Reactivation", "must be >= 0, got %v", c.Reactivation)
	}
	if c.Reactivation > maxSimDuration { // before the Epoch default multiplies it
		return clockErr("Reactivation", c.Reactivation)
	}
	if c.Epoch == 0 {
		c.Epoch = 10 * c.Reactivation
	}
	if c.Epoch <= c.Reactivation {
		return fieldErr("Epoch", "%v must exceed reactivation %v", c.Epoch, c.Reactivation)
	}
	if c.SampleInterval < 0 {
		return fieldErr("SampleInterval", "must be >= 0, got %v", c.SampleInterval)
	}
	if c.PowerSampleEvery < 0 {
		return fieldErr("PowerSampleEvery", "must be >= 0, got %v", c.PowerSampleEvery)
	}
	if (c.MetricsOut != "" || c.HeatmapOut != "" || c.HistOut != "" || c.Inspector != nil) &&
		c.SampleInterval == 0 {
		c.SampleInterval = c.Epoch
	}
	if c.Duration <= 0 {
		return fieldErr("Duration", "must be positive, got %v", c.Duration)
	}
	if c.Warmup < 0 {
		return fieldErr("Warmup", "must be >= 0, got %v", c.Warmup)
	}
	if err := c.checkClock(faults); err != nil {
		return err
	}
	if c.MaxPacket == 0 {
		c.MaxPacket = 2048
	}
	if c.MaxPacket < 64 {
		return fieldErr("MaxPacket", "%d below the 64-byte minimum", c.MaxPacket)
	}
	if c.ProfileOut != "" {
		c.Profile = true
	}
	if c.FlowSample < 0 || c.FlowSample > 1 {
		return fieldErr("FlowSample", "%v out of (0,1]", c.FlowSample)
	}
	if c.FlowsOut != "" || c.FlowSample > 0 {
		c.FlowTrace = true
	}
	if c.FlowTrace && c.FlowSample == 0 {
		c.FlowSample = 1.0 / 64
	}
	if c.Shards < 0 {
		return fieldErr("Shards", "must be >= 0, got %d", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = c.autoShards(runtime.GOMAXPROCS(0))
	}
	if c.Shards > 1 && c.TraceOut != "" {
		return fieldErr("TraceOut", "packet tracing requires the serial engine (Shards <= 1)")
	}
	return nil
}

// checkClock rejects durations the simulator clock cannot hold. It
// counts picoseconds in an int64, so simTime wraps past maxSimDuration
// and a run would silently do nothing or schedule into the past.
// Scripted faults fire at an offset from the end of the warmup (Faults)
// or from their phase's measured start (chaos scripts), so each sum
// must fit too.
func (c *Config) checkClock(faults fault.Schedule) error {
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"Warmup", c.Warmup},
		{"Epoch", c.Epoch},
		{"SampleInterval", c.SampleInterval},
		{"PowerSampleEvery", c.PowerSampleEvery},
		{"FaultMTTR", c.FaultMTTR},
	} {
		if f.d > maxSimDuration {
			return clockErr(f.name, f.d)
		}
	}
	if c.Duration > maxSimDuration-c.Warmup {
		return fieldErr("Duration", "warmup %v + duration %v exceeds the simulator clock's range of %v",
			c.Warmup, c.Duration, maxSimDuration)
	}
	offsetsFit := func(sched fault.Schedule, from time.Duration) bool {
		for _, ev := range sched {
			if ev.At > maxSimDuration-from {
				return false
			}
		}
		return true
	}
	if !offsetsFit(faults, c.Warmup) {
		return fieldErr("Faults", "an offset past warmup %v exceeds the simulator clock's range of %v",
			c.Warmup, maxSimDuration)
	}
	if c.Scenario == nil {
		return nil
	}
	start := c.Warmup // phase 0's measured start; each later phase follows on
	for _, ph := range c.Scenario.Phases {
		if ch := ph.Chaos; ch != nil {
			if ch.MTTR.D() > maxSimDuration || ch.GroupMTTR.D() > maxSimDuration {
				return fieldErr("Scenario", "phase %q: chaos MTTR exceeds the simulator clock's range of %v",
					ph.Name, maxSimDuration)
			}
			if ch.Script != "" {
				sched, _ := fault.ParseSchedule(ch.Script) // scenario validation parsed it
				if !offsetsFit(sched, start) {
					return fieldErr("Scenario", "phase %q: a chaos offset exceeds the simulator clock's range of %v",
						ph.Name, maxSimDuration)
				}
			}
		}
		start += ph.Duration.D()
	}
	return nil
}

// autoShards resolves Shards = 0: one worker per available CPU, capped
// by a topology-size heuristic — a shard needs a useful amount of work
// (here, at least 8 switches) to amortize its share of the window
// barriers — and forced serial when the run needs the serial engine
// (packet tracing). Called after the topology fields are validated.
func (c *Config) autoShards(procs int) int {
	if c.TraceOut != "" {
		return 1
	}
	var switches int
	switch c.Topology {
	case TopoFatTree:
		switches = 2 * c.K // K leaves + K spines
	case TopoClos3:
		switches = 5 * c.K * c.K / 4 // K^2 edge+agg, (K/2)^2 cores
	default: // TopoFBFLY: K^(N-1)
		switches = 1
		for i := 1; i < c.N && switches < 1<<20; i++ {
			switches *= c.K
		}
	}
	n := switches / 8
	if n > procs {
		n = procs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Result reports a simulation run's measurements over the post-warmup
// window.
type Result struct {
	Config Config

	Hosts    int
	Switches int
	Channels int

	// Latency of packets delivered in the measurement window, from
	// message offering to tail delivery (includes source queueing).
	MeanLatency time.Duration
	P50Latency  time.Duration
	P99Latency  time.Duration
	MaxLatency  time.Duration
	Packets     int64

	// Message-level latency: a message completes when its last packet
	// arrives. Messages counts completions in the measurement window.
	MsgMeanLatency time.Duration
	MsgP99Latency  time.Duration
	Messages       int64

	// AvgUtil is the measured mean channel utilization — the power an
	// ideally energy proportional network would consume (relative).
	AvgUtil float64

	// RelPowerMeasured is network power relative to the always-on
	// baseline under the measured (Figure 5) channel profile;
	// RelPowerIdeal under ideally proportional channels (Figure 8b).
	RelPowerMeasured float64
	RelPowerIdeal    float64

	// RateShare maps rate in Gb/s to the fraction of channel-time spent
	// at that rate; OffShare is the fraction powered off.
	RateShare RateShareMap
	OffShare  float64

	// ClassPower breaks RelPowerMeasured down by link class
	// ("electrical", "optical"), each relative to that class's always-on
	// baseline — the §2.2 packaging-locality distinction.
	ClassPower map[string]float64

	// Asymmetry measures how unevenly the two directions of links were
	// used: sum over link pairs of |bytesA - bytesB| / (bytesA + bytesB),
	// byte-weighted. 0 = perfectly symmetric; 1 = strictly one-way.
	// High asymmetry is what makes independent channel control (§3.3.1)
	// valuable.
	Asymmetry float64

	// EstimatedWatts is the simulated network's mean power under the
	// measured profile and the paper's part model (100 W/chip + 10 W/NIC
	// at full rate); EnergyJoules integrates it over the measurement
	// window.
	EstimatedWatts float64
	EnergyJoules   float64

	// LatencyCDF is the packet-latency histogram (ascending bucket upper
	// bounds), for CDF plots.
	LatencyCDF []LatencyBucket

	// Reconfigurations counts rate changes; DynTransitions counts
	// dynamic topology mode changes.
	Reconfigurations int64
	DynTransitions   int64

	// Delivery accounting over the whole run (including warmup).
	InjectedPackets  int64
	DeliveredPackets int64
	BacklogBytes     int64
	DeliveredBytes   int64

	// Drop accounting: packets lost to injected faults (in flight on a
	// failing channel, queued behind a dead port with no live
	// alternative, or destined to a crashed switch).
	// DeliveredFraction is delivered / (delivered + dropped); 1.0 when
	// nothing was dropped.
	DroppedPackets    int64
	DroppedBytes      int64
	DeliveredFraction float64

	// Faults summarizes injected fault events (zero value when fault
	// injection is off).
	Faults FaultStats

	// PeakQueueBytes is the deepest switch output queue observed — the
	// buffering the congestion-sensing mechanism had to ride out.
	PeakQueueBytes int64

	// PowerTrace is the time series sampled every
	// Config.PowerSampleEvery (empty when sampling is off).
	PowerTrace []PowerSample

	// PhaseScores is the per-phase resilience/energy scorecard of a
	// multi-phase scenario run, in phase order. Empty for ordinary runs
	// and single-phase scenarios — those add no snapshot events, so
	// their results stay byte-identical with the equivalent flag run.
	PhaseScores []PhaseScore

	// Attribution is the per-channel energy/utilization breakdown over
	// the measurement window, in wiring order (populated only when
	// Config.Attribution is set). The EnergyJoules of all entries sum
	// to Result.EnergyJoules: total fabric power is divided evenly
	// across channels and each channel is charged its share scaled by
	// its occupancy-weighted relative power under the measured profile.
	Attribution []LinkAttribution

	// FlowTrace is the per-flow latency and energy decomposition
	// (populated only when Config.FlowTrace or Config.FlowsOut is set):
	// per-phase component breakdowns, energy per delivered bit,
	// slowest-packet exemplars with full hop logs, and anomaly dumps
	// from the flight recorder. Fully deterministic — byte-identical
	// across shard counts for the same Config.
	FlowTrace *FlowTraceReport

	// Profile is the engine self-profile (populated only when
	// Config.Profile or Config.ProfileOut is set). Unlike every other
	// field it contains wall-clock measurements and is therefore not
	// deterministic — determinism comparisons must ignore it (all other
	// fields stay byte-identical with profiling on or off).
	Profile *EngineProfile
}

// LinkAttribution is one channel's slice of the run's energy and
// traffic accounting.
type LinkAttribution struct {
	// Link is the channel's entity id, e.g. "s0p1-s1p0" or "h3-s0p0".
	Link string `json:"link"`
	// Class is the physical link class ("electrical", "optical").
	Class string `json:"class"`
	// Utilization is the channel's mean utilization over the window.
	Utilization float64 `json:"util"`
	// RelPower is the occupancy-weighted relative power under the
	// measured profile.
	RelPower float64 `json:"rel_power"`
	// EnergyJoules is this channel's share of the network's energy.
	EnergyJoules float64 `json:"energy_j"`
	// TimeAtRate maps rate in Gb/s to seconds spent at that rate;
	// OffSeconds is time spent powered off.
	TimeAtRate RateShareMap `json:"time_at_rate_s"`
	OffSeconds float64      `json:"off_s"`
	// Bytes and Packets are the traffic carried over the channel's
	// whole accounted life; Drops counts packets lost on it to
	// injected faults.
	Bytes   int64 `json:"bytes"`
	Packets int64 `json:"packets"`
	Drops   int64 `json:"drops"`
}

// FaultStats counts the fault events an injector executed during a run;
// Total sums them.
type FaultStats = fault.Stats

// PhaseScore is one row of a scenario run's scorecard: delivery,
// latency, energy, and fault exposure over one phase's slice of the
// measurement window. Phases that overlap warmup are scored only for
// their measured part; a phase entirely inside warmup scores zeros.
type PhaseScore struct {
	// Phase is the phase name; Start and End bound its measured slice,
	// as offsets from the start of the run.
	Phase      string
	Start, End time.Duration

	// Delivery accounting within the phase.
	InjectedPackets   int64
	DeliveredPackets  int64
	DroppedPackets    int64
	DeliveredBytes    int64
	DeliveredFraction float64

	// Latency of packets delivered within the phase.
	MeanLatency time.Duration
	P99Latency  time.Duration

	// AvgUtil is the phase's delivered throughput as a fraction of
	// aggregate host line-rate capacity — the load an ideally
	// proportional network's power would track.
	AvgUtil float64

	// Reconfigurations counts rate changes; FaultEvents counts injected
	// fault events (repairs included) within the phase.
	Reconfigurations int64
	FaultEvents      int64

	// Flow-trace decomposition of the phase (populated only when
	// Config.FlowTrace is set): TracedPackets/TracedDropped count the
	// hash-sampled packets finishing in the phase, and the per-component
	// means split a traced packet's end-to-end latency — they sum to the
	// traced mean latency. EnergyPJPerBit charges each traced byte its
	// share of the channels it crossed (picojoules per delivered bit).
	TracedPackets  int64
	TracedDropped  int64
	QueueWait      time.Duration
	CreditStall    time.Duration
	RetuneStall    time.Duration
	BusyWait       time.Duration
	CutThroughWait time.Duration
	SerializeTime  time.Duration
	WireTime       time.Duration
	RouteTime      time.Duration
	EnergyPJPerBit float64
}

// PowerSample is one instant of the power-vs-load time series.
type PowerSample struct {
	// At is the time since the measurement window began.
	At time.Duration
	// Measured and Ideal are instantaneous network power under the two
	// profiles, relative to always-on.
	Measured float64
	Ideal    float64
	// Util is the network utilization over the preceding interval.
	Util float64
}

// LatencyBucket is one cell of a latency histogram: Count packets with
// latency at or below Upper (and above the previous bucket's bound).
type LatencyBucket struct {
	Upper time.Duration
	Count int64
}

// RateShareMap maps a rate in Gb/s to a fraction of channel-time. It
// marshals to JSON with string keys (JSON objects cannot have numeric
// keys).
type RateShareMap map[float64]float64

// MarshalJSON implements json.Marshaler.
func (m RateShareMap) MarshalJSON() ([]byte, error) {
	keys := make([]float64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%g", strconv.FormatFloat(k, 'g', -1, 64), m[k])
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *RateShareMap) UnmarshalJSON(data []byte) error {
	var raw map[string]float64
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(RateShareMap, len(raw))
	for k, v := range raw {
		f, err := strconv.ParseFloat(k, 64)
		if err != nil {
			return fmt.Errorf("epnet: rate share key %q: %w", k, err)
		}
		out[f] = v
	}
	*m = out
	return nil
}

// String summarizes the result in one line.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: mean=%v p99=%v util=%.1f%% power(measured)=%.1f%% power(ideal)=%.1f%%",
		r.Config.Workload, r.Config.Policy,
		r.MeanLatency, r.P99Latency, r.AvgUtil*100,
		r.RelPowerMeasured*100, r.RelPowerIdeal*100)
}
