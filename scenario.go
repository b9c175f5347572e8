package epnet

import (
	"bytes"
	"embed"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"epnet/internal/core"
	"epnet/internal/fabric"
	"epnet/internal/fault"
	"epnet/internal/link"
	"epnet/internal/scenario"
	"epnet/internal/sim"
	"epnet/internal/stats"
	"epnet/internal/traffic"
)

// The scenario DSL lives in internal/scenario; these aliases are its
// public face, so callers compose scenarios without a second import.
type (
	// Scenario is a versioned, declarative run description: named
	// phases of traffic, policy switches, and chaos campaigns.
	Scenario = scenario.Scenario
	// ScenarioPhase is one named phase.
	ScenarioPhase = scenario.Phase
	// PhaseTraffic is one traffic stream within a phase.
	PhaseTraffic = scenario.Traffic
	// LoadShape modulates a stream's load over its phase.
	LoadShape = scenario.Shape
	// PhasePolicy switches the link control policy at a phase boundary.
	PhasePolicy = scenario.Policy
	// PhaseChaos is a phase's fault campaign.
	PhaseChaos = scenario.Chaos
	// ChaosGroup declares a correlated failure domain.
	ChaosGroup = scenario.Group
)

// ParseScenario parses and validates a scenario document.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

//go:embed scenarios/*.json
var scenarioFS embed.FS

// ScenarioNames lists the embedded scenario library, sorted.
func ScenarioNames() []string {
	ents, err := scenarioFS.ReadDir("scenarios")
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(ents))
	for _, ent := range ents {
		names = append(names, strings.TrimSuffix(ent.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// ScenarioDoc returns an embedded scenario's one-line description, or
// "" for unknown names.
func ScenarioDoc(name string) string {
	data, err := scenarioFS.ReadFile("scenarios/" + name + ".json")
	if err != nil {
		return ""
	}
	s, err := scenario.Parse(data)
	if err != nil {
		return ""
	}
	return s.Notes
}

// LoadScenario resolves ref — an embedded library name, a Preset name
// (wrapped as a single-phase scenario), or a scenario file path, in
// that order — applies the scenario's config overrides on top of base,
// and returns the resulting Config with the scenario attached. The
// precedence story for callers layering flags on top: base, then the
// scenario's config block, then whatever the caller sets afterwards.
func LoadScenario(ref string, base Config) (Config, error) {
	if data, err := scenarioFS.ReadFile("scenarios/" + ref + ".json"); err == nil {
		s, err := scenario.Parse(data)
		if err != nil {
			return Config{}, fmt.Errorf("epnet: embedded scenario %q: %w", ref, err)
		}
		return applyScenario(base, s)
	}
	if p, err := Preset(ref); err == nil {
		// A preset reference adopts the preset's whole Config — the
		// preset replaces base, exactly like the -preset flag does.
		return applyScenario(p, presetScenario(ref, p))
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		return Config{}, fmt.Errorf("epnet: scenario %q is not an embedded scenario, a preset, or a readable file: %w", ref, err)
	}
	s, err := scenario.Parse(data)
	if err != nil {
		return Config{}, fmt.Errorf("epnet: scenario %s: %w", ref, err)
	}
	return applyScenario(base, s)
}

// applyScenario overlays s's config block onto base (strictly — unknown
// fields reject) and attaches the scenario. The config block is cleared
// once merged: its settings now live in the Config fields themselves,
// and keeping a second copy would let the two drift.
func applyScenario(base Config, s *Scenario) (Config, error) {
	cfg := base
	if len(s.Config) > 0 {
		if err := cfg.UnmarshalJSON(s.Config); err != nil {
			return Config{}, fmt.Errorf("epnet: scenario %q config: %w", s.Name, err)
		}
		s.Config = nil
	}
	if cfg.Scenario != nil {
		return Config{}, fmt.Errorf("epnet: scenario %q config block may not itself carry a scenario", s.Name)
	}
	cfg.Scenario = s
	return cfg, nil
}

// presetScenario wraps a Preset's Config as the equivalent single-phase
// scenario, which makes every preset loadable wherever a scenario is.
func presetScenario(name string, p Config) *Scenario {
	ph := ScenarioPhase{
		Name:     "steady",
		Duration: Duration(p.Duration),
	}
	if p.Workload != WorkloadTrace {
		ph.Traffic = []PhaseTraffic{{Workload: string(p.Workload), Load: p.Load}}
	}
	return &Scenario{
		Version: scenario.Version,
		Name:    name,
		Notes:   PresetDoc(name),
		Phases:  []ScenarioPhase{ph},
	}
}

// validateScenario is Config.Validate's scenario hook: it validates the
// document, checks phase policies against this package's policy enum
// (the DSL package doesn't own it), derives Duration from the phase
// durations, and mirrors the first phase's first stream and policy into
// the legacy Workload/Load/Policy/TargetUtil fields so a single-phase
// scenario is indistinguishable from the flag-configured run.
func (c *Config) validateScenario() error {
	s := c.Scenario
	if err := s.Validate(); err != nil {
		return fieldErr("Scenario", "%v", err)
	}
	for i := range s.Phases {
		ph := &s.Phases[i]
		if ph.Policy == nil {
			continue
		}
		switch PolicyKind(ph.Policy.Kind) {
		case PolicyBaseline, PolicyHalveDouble, PolicyMinMax, PolicyHysteresis,
			PolicyStaticMin, PolicyQueueAware:
		default:
			return enumErr(ErrUnknownPolicy, "Scenario",
				"phase %q: unknown policy %q", ph.Name, ph.Policy.Kind)
		}
	}
	c.Duration = s.TotalDuration()
	ph0 := &s.Phases[0]
	if len(ph0.Traffic) > 0 {
		c.Workload = WorkloadKind(ph0.Traffic[0].Workload)
		c.Load = ph0.Traffic[0].Load
	}
	if ph0.Policy != nil {
		c.Policy = PolicyKind(ph0.Policy.Kind)
		if ph0.Policy.TargetUtil > 0 {
			c.TargetUtil = ph0.Policy.TargetUtil
		}
	}
	return nil
}

// scenarioHasChaos reports whether any phase runs a fault campaign.
func scenarioHasChaos(s *Scenario) bool {
	for i := range s.Phases {
		if s.Phases[i].Chaos != nil {
			return true
		}
	}
	return false
}

// execPhase is one phase resolved against a run: absolute engine times
// and constructed sources. Phase 0 starts at t=0 — it owns the warmup
// ramp, exactly like a flag-configured workload — and each later phase
// starts where the previous one's measured slice ends.
type execPhase struct {
	name       string
	start, end sim.Time
	sources    []scenario.Source
	policy     *PhasePolicy
	chaos      *PhaseChaos
}

// runPlan is a Config resolved into executable phases. Every run has
// one — a flag-configured run is the implicit single steady phase —
// so there is exactly one traffic codepath.
type runPlan struct {
	phases []execPhase
	// multi enables the phase machinery (boundary snapshots, per-phase
	// latency recorders, the scorecard). Single-phase plans add no
	// events at all, keeping them byte-identical to the pre-scenario
	// engine behavior.
	multi bool
	// policySwitch is set when a phase after the first changes policy;
	// it forces the epoch controller on even under baseline/static-min.
	policySwitch bool
	hasChaos     bool
}

// streamSeed derives the seed for traffic stream idx of phase i. The
// very first stream uses the run seed verbatim — that is what makes a
// single-phase scenario reproduce the equivalent flag run byte for
// byte; every other stream derives position-independently from its
// phase name, so editing one phase never perturbs another's traffic.
func streamSeed(seed int64, phase int, name string, idx int) int64 {
	if phase == 0 && idx == 0 {
		return seed
	}
	return scenario.PhaseSeed(seed, name, fmt.Sprintf("traffic:%d", idx))
}

// buildPlan resolves cfg into its executable phases for a topology of
// hosts hosts. warmup and horizon are the run's absolute boundaries.
func buildPlan(cfg Config, hosts int, warmup, horizon sim.Time) (*runPlan, error) {
	if cfg.Scenario == nil {
		src, err := implicitSource(cfg, hosts)
		if err != nil {
			return nil, err
		}
		return &runPlan{phases: []execPhase{{
			name:    "steady",
			start:   0,
			end:     horizon,
			sources: []scenario.Source{src},
		}}}, nil
	}

	s := cfg.Scenario
	plan := &runPlan{multi: len(s.Phases) > 1, hasChaos: scenarioHasChaos(s)}
	at := sim.Time(0)
	for i := range s.Phases {
		ph := &s.Phases[i]
		ep := execPhase{name: ph.Name, start: at, policy: ph.Policy, chaos: ph.Chaos}
		ep.end = at + simTime(ph.Duration.D())
		if i == 0 {
			// Phase 0 spans warmup plus its measured duration.
			ep.end += warmup
		}
		at = ep.end
		for j, spec := range ph.Traffic {
			src, err := scenario.NewSource(spec, streamSeed(cfg.Seed, i, ph.Name, j))
			if err != nil {
				return nil, fieldErr("Scenario", "phase %q: %v", ph.Name, err)
			}
			ep.sources = append(ep.sources, src)
		}
		if i > 0 && ph.Policy != nil {
			plan.policySwitch = true
		}
		plan.phases = append(plan.phases, ep)
	}
	if at != horizon {
		// Unreachable: Validate derived Duration from the same sum.
		return nil, fieldErr("Scenario", "phase durations sum to %v, window is %v",
			toDuration(at), toDuration(horizon))
	}
	return plan, nil
}

// implicitSource wraps the legacy single-workload Config fields as one
// streaming source — the same constructors a scenario phase uses. A
// trace is checked against the topology's hosts here, so a record naming
// a missing host fails the run before it starts.
func implicitSource(cfg Config, hosts int) (scenario.Source, error) {
	if cfg.Workload == WorkloadTrace {
		f, err := os.Open(cfg.TracePath)
		if err != nil {
			return nil, fmt.Errorf("epnet: opening trace: %w", err)
		}
		defer f.Close()
		recs, err := traffic.ReadTrace(f)
		if err != nil {
			return nil, err
		}
		replay := &traffic.Replay{Label: cfg.TracePath, Records: recs}
		if err := replay.CheckHosts(hosts); err != nil {
			return nil, fieldErr("TracePath", "%v", err)
		}
		return scenario.FromWorkload(replay), nil
	}
	return scenario.NewSource(
		scenario.Traffic{Workload: string(cfg.Workload), Load: cfg.Load}, cfg.Seed)
}

// start launches phase 0's sources inline (the engine is at t=0, the
// exact call site the single-workload path used) and schedules each
// later phase's traffic and policy switch at its boundary — control
// events, so sharded runs stay byte-identical across shard counts.
func (p *runPlan) start(e *sim.Engine, net *fabric.Network, ctrl *core.Controller, ladder link.RateLadder) {
	for _, src := range p.phases[0].sources {
		src.Run(e, net, 0, p.phases[0].end)
	}
	for i := 1; i < len(p.phases); i++ {
		ph := p.phases[i]
		e.At(ph.start, func(now sim.Time) {
			if ph.policy != nil && ctrl != nil {
				ctrl.Policy = resolveCorePolicy(PolicyKind(ph.policy.Kind), ph.policy.TargetUtil, ladder)
			}
			for _, src := range ph.sources {
				src.Run(e, net, now, ph.end)
			}
		})
	}
}

// resolveCorePolicy maps a policy kind to its core implementation. The
// always-on baseline and static-min become Static pins so a scenario
// can switch into and out of them mid-run under a live controller.
func resolveCorePolicy(kind PolicyKind, target float64, ladder link.RateLadder) core.Policy {
	if target == 0 {
		target = 0.5
	}
	switch kind {
	case PolicyBaseline:
		return core.Static{Rate: ladder.Max()}
	case PolicyStaticMin:
		return core.Static{Rate: ladder.Min()}
	case PolicyMinMax:
		return core.MinMax{Target: target}
	case PolicyHysteresis:
		return core.Hysteresis{Target: target}
	case PolicyQueueAware:
		return core.QueueAware{Target: target, BurstBytes: 64 * 1024}
	default:
		return core.HalveDouble{Target: target}
	}
}

// scheduleChaos schedules every phase's fault campaign. Scripted events
// offset from the phase's measured start (max(phase start, warmup) —
// phase 0 scripts line up with the legacy Faults schedule); the random
// and correlated processes run over the phase's measured slice, each
// seeded from the phase name so campaigns are position-independent too.
func scheduleChaos(cfg Config, plan *runPlan, inj *fault.Injector, warmup sim.Time) error {
	for i := range plan.phases {
		ph := &plan.phases[i]
		if ph.chaos == nil {
			continue
		}
		start := ph.start
		if start < warmup {
			start = warmup
		}
		ch := ph.chaos
		if ch.Script != "" {
			sched, err := fault.ParseSchedule(ch.Script)
			if err != nil {
				return fieldErr("Scenario", "phase %q chaos: %v", ph.name, err) // unreachable: Validate parsed it
			}
			if err := inj.Apply(start, sched); err != nil {
				return fieldErr("Scenario", "phase %q chaos: %v", ph.name, err)
			}
		}
		if ch.Rate > 0 {
			inj.StartRandom(start, ph.end, ch.Rate, chaosMTTR(ch.MTTR),
				scenario.PhaseSeed(cfg.Seed, ph.name, "chaos"))
		}
		if ch.GroupRate > 0 {
			groups, err := resolveGroups(inj, ph.name, ch.Groups)
			if err != nil {
				return err
			}
			inj.StartCorrelated(start, ph.end, groups, ch.GroupRate, chaosMTTR(ch.GroupMTTR),
				scenario.PhaseSeed(cfg.Seed, ph.name, "chaos-groups"))
		}
	}
	return nil
}

// chaosMTTR applies the FaultMTTR default to an unset chaos MTTR.
func chaosMTTR(d scenario.Duration) sim.Time {
	if d <= 0 {
		return simTime(200 * time.Microsecond)
	}
	return simTime(d.D())
}

// resolveGroups expands a phase's correlated-group declarations against
// the live fabric.
func resolveGroups(inj *fault.Injector, phase string, specs []ChaosGroup) ([]fault.Group, error) {
	var out []fault.Group
	for _, g := range specs {
		switch g.Kind {
		case scenario.GroupRackPower:
			out = append(out, inj.RackDomains(g.Size)...)
		case scenario.GroupOpticsBundle:
			out = append(out, inj.OpticsBundles(g.Size)...)
		case scenario.GroupSwitches:
			grp, err := inj.SwitchGroup(fmt.Sprintf("%s/switches", phase), g.Switches)
			if err != nil {
				return nil, fieldErr("Scenario", "phase %q chaos: %v", phase, err)
			}
			out = append(out, grp)
		default:
			return nil, fieldErr("Scenario", "phase %q chaos: unknown group kind %q", phase, g.Kind) // unreachable: Validate checked it
		}
	}
	return out, nil
}

// ScorecardCSV renders the per-phase scorecard as CSV — one row per
// phase with the resilience (delivery, faults), energy (utilization),
// and flow-trace decomposition columns (zero when flow tracing is
// off). Empty for single-phase runs, which have no scorecard. New
// columns append on the right only — existing column positions are
// stable, which downstream golden files pin.
func (r *Result) ScorecardCSV() []byte {
	var b bytes.Buffer
	b.WriteString("phase,start_us,end_us,injected,delivered,dropped,delivered_frac," +
		"mean_latency_us,p99_latency_us,avg_util,reconfigs,fault_events," +
		"traced,traced_dropped,queue_us,credit_us,retune_us,busy_us," +
		"cutthrough_us,serialize_us,wire_us,route_us,energy_pj_per_bit\n")
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }
	for _, ps := range r.PhaseScores {
		fmt.Fprintf(&b, "%s,%.3f,%.3f,%d,%d,%d,%.5f,%.3f,%.3f,%.4f,%d,%d,"+
			"%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f\n",
			ps.Phase,
			us(ps.Start), us(ps.End),
			ps.InjectedPackets, ps.DeliveredPackets, ps.DroppedPackets,
			ps.DeliveredFraction,
			us(ps.MeanLatency), us(ps.P99Latency),
			ps.AvgUtil, ps.Reconfigurations, ps.FaultEvents,
			ps.TracedPackets, ps.TracedDropped,
			us(ps.QueueWait), us(ps.CreditStall), us(ps.RetuneStall), us(ps.BusyWait),
			us(ps.CutThroughWait), us(ps.SerializeTime), us(ps.WireTime), us(ps.RouteTime),
			ps.EnergyPJPerBit)
	}
	return b.Bytes()
}

// phaseAccounting is the per-phase scorecard machinery of a multi-phase
// run: counter snapshots at measured phase boundaries (the per-phase
// latencies live in the run's delivery recorders). Single-phase plans
// never construct one, so they add no events and no per-delivery work —
// their results stay byte-identical to the pre-scenario engine
// behavior.
type phaseAccounting struct {
	plan *runPlan
	net  *fabric.Network
	ctrl *core.Controller
	inj  *fault.Injector
	// snaps[i] is the counter state at phase i's measured start;
	// snaps[len(phases)] at the horizon.
	snaps []phaseSnap
}

type phaseSnap struct {
	injected, delivered, dropped int64
	deliveredBytes               int64
	reconfigs, faultEvents       int64
}

func newPhaseAccounting(plan *runPlan, net *fabric.Network, ctrl *core.Controller, inj *fault.Injector) *phaseAccounting {
	return &phaseAccounting{
		plan:  plan,
		net:   net,
		ctrl:  ctrl,
		inj:   inj,
		snaps: make([]phaseSnap, len(plan.phases)+1),
	}
}

// schedule puts the inner-boundary snapshot events on the control
// engine. Call before the plan's phase events are scheduled so the
// snapshots run first at coincident timestamps (the engine breaks ties
// FIFO) — not that order matters for the counters, since phase starts
// inject nothing at their own instant, but the invariant is cheap to
// keep and saves reasoning about it.
func (a *phaseAccounting) schedule(e *sim.Engine) {
	for i := 1; i < len(a.plan.phases); i++ {
		i := i
		e.At(a.plan.phases[i].start, func(sim.Time) { a.snaps[i] = a.snapshot() })
	}
}

func (a *phaseAccounting) snapshot() phaseSnap {
	s := phaseSnap{}
	s.injected, _ = a.net.Injected()
	s.delivered, s.deliveredBytes = a.net.Delivered()
	s.dropped, _ = a.net.Dropped()
	if a.ctrl != nil {
		s.reconfigs = a.ctrl.Reconfigurations
	}
	if a.inj != nil {
		s.faultEvents = FaultStats(a.inj.Stats).Total()
	}
	return s
}

// scores folds the snapshots and d's per-phase latencies into the
// Result scorecard.
func (a *phaseAccounting) scores(warmup sim.Time, hosts int, ladder link.RateLadder, d *deliveries) []PhaseScore {
	out := make([]PhaseScore, len(a.plan.phases))
	for i := range a.plan.phases {
		ph := &a.plan.phases[i]
		s0, s1 := a.snaps[i], a.snaps[i+1]
		start := ph.start
		if start < warmup {
			start = warmup
		}
		lat := d.merged(func(s *recorder) *stats.Latency { return s.phase[i] })
		sc := PhaseScore{
			Phase:            ph.name,
			Start:            toDuration(start),
			End:              toDuration(ph.end),
			InjectedPackets:  s1.injected - s0.injected,
			DeliveredPackets: s1.delivered - s0.delivered,
			DroppedPackets:   s1.dropped - s0.dropped,
			DeliveredBytes:   s1.deliveredBytes - s0.deliveredBytes,
			MeanLatency:      toDuration(lat.Mean()),
			P99Latency:       toDuration(lat.Percentile(99)),
			Reconfigurations: s1.reconfigs - s0.reconfigs,
			FaultEvents:      s1.faultEvents - s0.faultEvents,
		}
		sc.DeliveredFraction = 1.0
		if sc.DroppedPackets > 0 {
			sc.DeliveredFraction = float64(sc.DeliveredPackets) /
				float64(sc.DeliveredPackets+sc.DroppedPackets)
		}
		if capBytes := float64(hosts) * float64(ladder.Max()) / 8 * toDuration(ph.end-start).Seconds(); capBytes > 0 {
			sc.AvgUtil = float64(sc.DeliveredBytes) / capBytes
		}
		out[i] = sc
	}
	return out
}
