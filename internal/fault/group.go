package fault

import (
	"fmt"
	"math/rand"

	"epnet/internal/fabric"
	"epnet/internal/sim"
)

// Group is a correlated failure domain: a set of switches and/or link
// pairs that fail together in one incident — a rack losing power takes
// out every switch in it; a cut or flaky shared-optics bundle takes out
// the links riding it. Groups are built against a live injector so they
// resolve to concrete fabric channels once, up front.
type Group struct {
	Name     string
	Switches []int
	Links    [][2]*fabric.Chan
}

// RackDomains partitions the switches into power domains of size
// consecutive switches each (the last domain may be smaller) — the
// "rack PDU dies" failure unit. size <= 0 defaults to 4.
func (inj *Injector) RackDomains(size int) []Group {
	if size <= 0 {
		size = 4
	}
	n := len(inj.Net.Switches)
	var groups []Group
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		g := Group{Name: fmt.Sprintf("rack-power[%d:%d]", lo, hi)}
		for sw := lo; sw < hi; sw++ {
			g.Switches = append(g.Switches, sw)
		}
		groups = append(groups, g)
	}
	return groups
}

// OpticsBundles partitions the inter-switch link pairs, in wiring
// order, into bundles of size pairs each — physically adjacent fibers
// sharing a conduit or a multi-lane optical module. size <= 0 defaults
// to 4.
func (inj *Injector) OpticsBundles(size int) []Group {
	if size <= 0 {
		size = 4
	}
	var groups []Group
	for lo := 0; lo < len(inj.pairs); lo += size {
		hi := lo + size
		if hi > len(inj.pairs) {
			hi = len(inj.pairs)
		}
		g := Group{Name: fmt.Sprintf("optics-bundle[%d:%d]", lo, hi)}
		g.Links = append(g.Links, inj.pairs[lo:hi]...)
		groups = append(groups, g)
	}
	return groups
}

// SwitchGroup builds an explicit failure domain from switch indices.
// Out-of-range indices are an error.
func (inj *Injector) SwitchGroup(name string, switches []int) (Group, error) {
	for _, sw := range switches {
		if sw < 0 || sw >= len(inj.Net.Switches) {
			return Group{}, fmt.Errorf("fault: group %q: switch %d out of range [0,%d)",
				name, sw, len(inj.Net.Switches))
		}
	}
	return Group{Name: name, Switches: append([]int(nil), switches...)}, nil
}

// FailGroup fails every member of g at once: switches crash, links hard
// fail. Correlated incidents deliberately bypass Guard — a rack power
// loss does not politely spare the last path — which is exactly the
// stress a resilience scorecard wants to measure. Returns how many
// members newly failed.
func (inj *Injector) FailGroup(now sim.Time, g Group) int {
	failed := 0
	for _, sw := range g.Switches {
		if inj.FailSwitch(now, sw) {
			failed++
		}
	}
	for _, pr := range g.Links {
		if inj.failPair(now, pr) {
			inj.Stats.LinkFailures++
			failed++
		}
	}
	return failed
}

// RepairGroup returns every member of g to service: switches revive
// (with their incident links), then the group's own links repair.
// Returns how many members were repaired.
func (inj *Injector) RepairGroup(now sim.Time, g Group) int {
	repaired := 0
	for _, sw := range g.Switches {
		if inj.RepairSwitch(now, sw) {
			repaired++
		}
	}
	for _, pr := range g.Links {
		if inj.repairPair(now, pr) {
			inj.Stats.LinkRepairs++
			repaired++
		}
	}
	return repaired
}

// StartCorrelated schedules a seeded-random correlated-incident process
// over (start, horizon): incidents arrive with exponential inter-arrival
// times at perMs expected incidents per simulated millisecond, each
// striking one uniformly chosen group and repairing after an
// exponentially distributed outage with mean mttr. Like StartRandom,
// the whole process is a pure function of (seed, groups, mttr, perMs).
// The seed salt differs from StartRandom's, so running both from the
// same scenario seed yields independent histories.
func (inj *Injector) StartCorrelated(start, horizon sim.Time, groups []Group, perMs float64, mttr sim.Time, seed int64) {
	if perMs <= 0 || len(groups) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed ^ 0xC0FA17))
	interArrival := float64(sim.Millisecond) / perMs

	var tick sim.Event
	scheduleNext := func(from sim.Time) {
		if next, ok := expAfter(rng, from, interArrival); ok && next < horizon {
			inj.Net.E.At(next, tick)
		}
	}
	tick = func(now sim.Time) {
		g := groups[rng.Intn(len(groups))]
		// Draw the outage length unconditionally so the random stream
		// stays aligned even when the strike is a no-op (group already
		// down).
		repairAt, ok := expAfter(rng, now, float64(mttr))
		if inj.FailGroup(now, g) > 0 && ok {
			inj.Net.E.At(repairAt, func(at sim.Time) {
				inj.RepairGroup(at, g)
			})
		}
		scheduleNext(now)
	}
	scheduleNext(start)
}
