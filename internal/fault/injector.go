package fault

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"epnet/internal/fabric"
	"epnet/internal/link"
	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// Stats counts the fault events an injector has executed. A switch
// crash counts once as a switch failure; the incident link outages it
// implies are not additionally counted as link failures.
type Stats struct {
	LinkFailures     int64
	LinkRepairs      int64
	SwitchFailures   int64
	SwitchRepairs    int64
	LaneDegradations int64
	LaneRestores     int64
}

// Total returns the number of injected fault events (repairs included).
func (s Stats) Total() int64 {
	return s.LinkFailures + s.LinkRepairs + s.SwitchFailures +
		s.SwitchRepairs + s.LaneDegradations + s.LaneRestores
}

// Injector executes fault events against a running fabric. It owns the
// coordination a fault needs across layers: powering channels off with
// no drain (fabric drops and counts in-flight packets), masking dead
// ports in the router, pumping sender queues so stranded packets
// reroute or drop, and charging reactivation when links come back.
//
// Construct with New, then Apply a parsed Schedule and/or StartRandom
// for seeded background faults. All methods are single-threaded, like
// the engine that drives them.
type Injector struct {
	Net    *fabric.Network
	Masker routing.PortMasker

	// RepairReactivation is the penalty a repaired link pays before
	// carrying data again (lane retraining / CDR re-lock — the same
	// cost model the epoch controller charges for retunes).
	RepairReactivation sim.Time
	// DegradeReactivation is the retune penalty when a degradation cap
	// forces an immediate rate drop, and when RestoreRate retunes a
	// restored link.
	DegradeReactivation sim.Time
	// RepairRate is the rate a repaired link trains to (default: ladder
	// maximum, clamped by any active degradation cap).
	RepairRate link.Rate
	// RestoreRate, when non-zero, retunes a link to this rate as its
	// degradation cap lifts. Leave zero when an epoch controller runs —
	// it will climb the ladder itself; the always-on baseline has no
	// controller, so the caller sets the ladder maximum here.
	RestoreRate link.Rate

	// Guard, when set, vetoes random fault targets: StartRandom and
	// FailRandomLinks skip pairs for which it returns false. Run-level
	// code installs a connectivity guard here (e.g. "both endpoints
	// keep >= 2 live links in the affected dimension").
	Guard func(pair [2]*fabric.Chan) bool

	// Seed seeds the link choice of scheduled fail-random events
	// (normally the run seed).
	Seed int64

	// Stats counts executed events; read it after the run.
	Stats Stats

	radix      int
	byEndpoint map[int][2]*fabric.Chan      // sw*radix+port -> inter-switch pair
	bySwitch   [][][2]*fabric.Chan          // switch -> incident inter-switch pairs
	pairs      [][2]*fabric.Chan            // all inter-switch pairs, wiring order
	downAt     map[[2]*fabric.Chan]sim.Time // failed pair -> failure time
}

// New builds an injector over net, masking failed ports through masker,
// and switches the fabric into fault-tolerant (drop-and-count) mode.
func New(net *fabric.Network, masker routing.PortMasker) *Injector {
	inj := &Injector{
		Net:        net,
		Masker:     masker,
		RepairRate: net.Cfg.Ladder.Max(),
		radix:      net.T.Radix(),
		byEndpoint: make(map[int][2]*fabric.Chan),
		bySwitch:   make([][][2]*fabric.Chan, net.T.NumSwitches()),
		downAt:     make(map[[2]*fabric.Chan]sim.Time),
	}
	for _, pr := range net.Pairs() {
		if pr[0].Src.Kind != topo.KindSwitch || pr[0].Dst.Kind != topo.KindSwitch {
			continue
		}
		for _, ch := range pr {
			inj.byEndpoint[ch.Src.ID*inj.radix+ch.Src.Port] = pr
		}
		inj.bySwitch[pr[0].Src.ID] = append(inj.bySwitch[pr[0].Src.ID], pr)
		inj.bySwitch[pr[1].Src.ID] = append(inj.bySwitch[pr[1].Src.ID], pr)
		inj.pairs = append(inj.pairs, pr)
	}
	net.EnableFaults()
	return inj
}

// PairAt returns the inter-switch link pair with an endpoint at
// (sw, port), if one exists.
func (inj *Injector) PairAt(sw, port int) ([2]*fabric.Chan, bool) {
	pr, ok := inj.byEndpoint[sw*inj.radix+port]
	return pr, ok
}

// LinksDown returns the number of currently failed link pairs.
func (inj *Injector) LinksDown() int { return len(inj.downAt) }

// Outage describes one currently-failed link pair for live inspection.
type Outage struct {
	// Link is the failed pair's forward-channel entity id.
	Link string
	// Since is when the pair failed.
	Since sim.Time
}

// Outages returns the currently failed link pairs in wiring order (a
// deterministic order, unlike the downAt map), with their failure
// times — the live view a snapshot endpoint exposes while repairs are
// pending.
func (inj *Injector) Outages() []Outage {
	var out []Outage
	for _, pr := range inj.pairs {
		if since, down := inj.downAt[pr]; down {
			out = append(out, Outage{Link: pr[0].Label(), Since: since})
		}
	}
	return out
}

// Apply validates every event of sched against the network and
// schedules it on the engine, offsets measured from start. Validation
// errors (nonexistent link, off-ladder cap, bad switch index) are
// reported before anything is scheduled.
func (inj *Injector) Apply(start sim.Time, sched Schedule) error {
	for _, ev := range sched {
		switch {
		case ev.Kind == FailRandom:
		case ev.Kind.IsLink():
			if _, ok := inj.PairAt(ev.Sw, ev.Port); !ok {
				return fmt.Errorf("fault: no inter-switch link at %s", ev.Target())
			}
			if ev.Kind == DegradeLink && inj.Net.Cfg.Ladder.Index(ev.Cap()) < 0 {
				return fmt.Errorf("fault: degrade cap %vGb/s for %s not on the rate ladder",
					ev.CapGbps, ev.Target())
			}
		case ev.Sw < 0 || ev.Sw >= len(inj.Net.Switches):
			return fmt.Errorf("fault: switch %d out of range [0,%d)", ev.Sw, len(inj.Net.Switches))
		}
	}
	for _, ev := range sched {
		ev := ev
		inj.Net.E.At(start+simTime(ev.At), func(now sim.Time) { inj.exec(ev, now) })
	}
	return nil
}

// simTime converts a wall-clock duration to simulator picoseconds.
func simTime(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) * sim.Nanosecond }

// exec dispatches one validated event.
func (inj *Injector) exec(ev Event, now sim.Time) {
	switch ev.Kind {
	case FailLink:
		inj.FailLink(now, ev.Sw, ev.Port)
	case RepairLink:
		inj.RepairLink(now, ev.Sw, ev.Port)
	case DegradeLink:
		inj.DegradeLink(now, ev.Sw, ev.Port, ev.Cap())
	case RestoreLink:
		inj.RestoreLink(now, ev.Sw, ev.Port)
	case FailSwitch:
		inj.FailSwitch(now, ev.Sw)
	case RepairSwitch:
		inj.RepairSwitch(now, ev.Sw)
	case FailRandom:
		inj.FailRandomLinks(now, ev.Count, inj.Seed)
	}
}

// FailLink hard-fails the link with an endpoint at (sw, port). Returns
// false if no such link exists or it is already down.
func (inj *Injector) FailLink(now sim.Time, sw, port int) bool {
	pr, ok := inj.PairAt(sw, port)
	if !ok || !inj.failPair(now, pr) {
		return false
	}
	inj.Stats.LinkFailures++
	return true
}

// RepairLink returns a failed link to service. Returns false if the
// link is not down, or either endpoint switch is crashed (repair-switch
// revives those links).
func (inj *Injector) RepairLink(now sim.Time, sw, port int) bool {
	pr, ok := inj.PairAt(sw, port)
	if !ok || !inj.repairPair(now, pr) {
		return false
	}
	inj.Stats.LinkRepairs++
	return true
}

// DegradeLink pins the link at or below cap (which must be on the
// ladder). An Active link above the cap retunes down immediately,
// paying DegradeReactivation. Returns false for unknown or failed
// links.
func (inj *Injector) DegradeLink(now sim.Time, sw, port int, cap link.Rate) bool {
	pr, ok := inj.PairAt(sw, port)
	if !ok || pr[0].Failed() {
		return false
	}
	inj.Stats.LaneDegradations++
	for _, ch := range pr {
		ch.L.SetRateCap(now, cap, inj.DegradeReactivation)
	}
	return true
}

// RestoreLink lifts a degradation cap. With RestoreRate set the link
// retunes to it; otherwise the rate controller climbs on its own.
// Returns false for unknown or uncapped links.
func (inj *Injector) RestoreLink(now sim.Time, sw, port int) bool {
	pr, ok := inj.PairAt(sw, port)
	if !ok || pr[0].L.RateCap() == 0 {
		return false
	}
	inj.Stats.LaneRestores++
	for _, ch := range pr {
		ch.L.SetRateCap(now, 0, 0)
		if inj.RestoreRate != 0 && !ch.Failed() {
			inj.Net.SetRate(ch, now, inj.RestoreRate, inj.DegradeReactivation)
			ch.L.ResetEpoch(now)
			inj.Net.KickSender(ch, now)
		}
	}
	return true
}

// FailSwitch crashes switch sw: its queued packets are dropped, every
// incident inter-switch link fails, and traffic destined to its hosts
// is dropped wherever it is first routed. Returns false if already
// crashed.
func (inj *Injector) FailSwitch(now sim.Time, sw int) bool {
	if inj.Net.SwitchDead(sw) {
		return false
	}
	inj.Stats.SwitchFailures++
	inj.Net.SetSwitchDead(sw, true)
	inj.Net.Switches[sw].DropAllQueued(now)
	for _, pr := range inj.bySwitch[sw] {
		inj.failPair(now, pr)
	}
	return true
}

// RepairSwitch revives a crashed switch and all of its incident links
// (whether they failed with the crash or individually before it),
// except links to switches that are still crashed. Returns false if sw
// is not crashed.
func (inj *Injector) RepairSwitch(now sim.Time, sw int) bool {
	if !inj.Net.SwitchDead(sw) {
		return false
	}
	inj.Stats.SwitchRepairs++
	inj.Net.SetSwitchDead(sw, false)
	for _, pr := range inj.bySwitch[sw] {
		inj.repairPair(now, pr)
	}
	return true
}

// failPair is the mechanics of a link failure, shared by link and
// switch faults: fail both channels, mask both sending ports, take one
// flight-recorder dump for the link, then pump both senders so queued
// packets reroute (or drop).
func (inj *Injector) failPair(now sim.Time, pr [2]*fabric.Chan) bool {
	if pr[0].Failed() {
		return false
	}
	inj.downAt[pr] = now
	for _, ch := range pr {
		inj.Net.FailChan(ch, now)
		inj.Masker.SetDead(ch.Src.ID, ch.Src.Port, true)
	}
	if fc := inj.Net.FlowCollector(); fc != nil {
		// Fault injection is a control event (all shards quiescent), so
		// the flight-recorder rings are safe to merge here. The dump
		// keeps only transmits before now, so it reads the same whether
		// it is taken before or after the channels go down.
		fc.FaultDump("fault: channel "+pr[0].Label()+" failed", now)
	}
	// Pump only after both directions are masked, so reroutes cannot
	// pick the dying reverse direction.
	for _, ch := range pr {
		inj.Net.Switches[ch.Src.ID].PumpPort(ch.Src.Port, now)
	}
	return true
}

// repairPair is the mechanics of a link repair: unmask, power both
// channels back on (paying RepairReactivation), and kick the senders.
func (inj *Injector) repairPair(now sim.Time, pr [2]*fabric.Chan) bool {
	if !pr[0].Failed() {
		return false
	}
	if inj.Net.SwitchDead(pr[0].Src.ID) || inj.Net.SwitchDead(pr[1].Src.ID) {
		return false
	}
	for _, ch := range pr {
		inj.Masker.SetDead(ch.Src.ID, ch.Src.Port, false)
		inj.Net.RepairChan(ch, now, ch.L.ClampRate(inj.RepairRate), inj.RepairReactivation)
	}
	delete(inj.downAt, pr)
	return true
}

// FailRandomLinks abruptly fails count randomly chosen inter-switch
// link pairs at time now, never repairing them — the fail-random
// schedule verb. Selection shuffles the pairs with a seed-derived RNG
// (seed^0x0FA11) and honors Guard, so damage never partitions a
// guarded network.
// Returns how many pairs actually failed.
func (inj *Injector) FailRandomLinks(now sim.Time, count int, seed int64) int {
	rng := rand.New(rand.NewSource(seed ^ 0x0FA11))
	pairs := make([][2]*fabric.Chan, len(inj.pairs))
	copy(pairs, inj.pairs)
	rng.Shuffle(len(pairs), func(i, j int) {
		pairs[i], pairs[j] = pairs[j], pairs[i]
	})
	failed := 0
	for _, pr := range pairs {
		if failed == count {
			break
		}
		if pr[0].Failed() {
			continue
		}
		if inj.Guard != nil && !inj.Guard(pr) {
			continue
		}
		if inj.failPair(now, pr) {
			inj.Stats.LinkFailures++
			failed++
		}
	}
	return failed
}

// StartRandom schedules a seeded-random fault process over (start,
// horizon): events arrive with exponential inter-arrival times at an
// expected rate of perMs events per simulated millisecond. Roughly a
// quarter of events are lane degradations (restored after about twice
// the mean-time-to-repair); the rest are link failures repaired after
// an exponentially distributed outage with mean mttr. Targets are
// drawn uniformly from live, Guard-approved inter-switch pairs.
//
// The whole process is a pure function of (seed, topology, mttr,
// perMs): identical runs replay identical fault histories.
func (inj *Injector) StartRandom(start, horizon sim.Time, perMs float64, mttr sim.Time, seed int64) {
	if perMs <= 0 || len(inj.pairs) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed ^ 0xFA017))
	interArrival := float64(sim.Millisecond) / perMs
	ladder := inj.Net.Cfg.Ladder

	var tick sim.Event
	scheduleNext := func(from sim.Time) {
		if next, ok := expAfter(rng, from, interArrival); ok && next < horizon {
			inj.Net.E.At(next, tick)
		}
	}
	tick = func(now sim.Time) {
		// A bounded retry keeps target selection cheap and deterministic
		// even when most of the fabric is already degraded.
		for try := 0; try < 8; try++ {
			pr := inj.pairs[rng.Intn(len(inj.pairs))]
			if pr[0].Failed() || pr[0].L.RateCap() != 0 {
				continue
			}
			if inj.Net.SwitchDead(pr[0].Src.ID) || inj.Net.SwitchDead(pr[1].Src.ID) {
				continue
			}
			if inj.Guard != nil && !inj.Guard(pr) {
				continue
			}
			sw, port := pr[0].Src.ID, pr[0].Src.Port
			if rng.Float64() < 0.25 {
				// Lane degradation: pin somewhere below the maximum.
				cap := ladder[rng.Intn(len(ladder)-1)]
				inj.DegradeLink(now, sw, port, cap)
				if restoreAt, ok := expAfter(rng, now, 2*float64(mttr)); ok {
					inj.Net.E.At(restoreAt, func(at sim.Time) {
						inj.RestoreLink(at, sw, port)
					})
				}
			} else {
				inj.FailLink(now, sw, port)
				if repairAt, ok := expAfter(rng, now, float64(mttr)); ok {
					inj.Net.E.At(repairAt, func(at sim.Time) {
						inj.RepairLink(at, sw, port)
					})
				}
			}
			break
		}
		scheduleNext(now)
	}
	scheduleNext(start)
}

// expAfter returns now plus one exponentially distributed draw from rng
// with the given mean, floored at 1 ns. It reports false when the draw
// or the sum passes the end of the clock: that instant lies past every
// run's horizon, so the event must never fire, where an unchecked
// conversion would wrap it around to an instant almost at once.
func expAfter(rng *rand.Rand, now sim.Time, mean float64) (sim.Time, bool) {
	d := rng.ExpFloat64() * mean
	if !(d < math.MaxInt64) { // also catches NaN and +Inf
		return 0, false
	}
	t := max(sim.Time(d), sim.Nanosecond)
	if t > math.MaxInt64-now {
		return 0, false
	}
	return now + t, true
}

// RegisterMetrics exposes the injector's counters to a telemetry
// registry under the fault.* prefix, in a stable order.
func (inj *Injector) RegisterMetrics(reg *telemetry.Registry) error {
	gauges := []struct {
		name string
		fn   func() float64
	}{
		{"fault.link_failures", func() float64 { return float64(inj.Stats.LinkFailures) }},
		{"fault.link_repairs", func() float64 { return float64(inj.Stats.LinkRepairs) }},
		{"fault.switch_failures", func() float64 { return float64(inj.Stats.SwitchFailures) }},
		{"fault.switch_repairs", func() float64 { return float64(inj.Stats.SwitchRepairs) }},
		{"fault.lane_degradations", func() float64 { return float64(inj.Stats.LaneDegradations) }},
		{"fault.lane_restores", func() float64 { return float64(inj.Stats.LaneRestores) }},
		{"fault.links_down", func() float64 { return float64(inj.LinksDown()) }},
	}
	for _, g := range gauges {
		if err := reg.GaugeFunc(g.name, g.fn); err != nil {
			return err
		}
	}
	return nil
}
