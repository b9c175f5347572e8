package fault

import (
	"testing"

	"epnet/internal/sim"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// readMetrics snapshots a registry into a name -> value map.
func readMetrics(reg *telemetry.Registry) map[string]float64 {
	vals := make([]float64, reg.Len())
	reg.ReadInto(vals)
	out := make(map[string]float64, len(vals))
	for i, name := range reg.Names() {
		out[name] = vals[i]
	}
	return out
}

// TestOutagesAndDropReconciliation fails a link and a switch while
// traffic is in flight, then checks the three accounting views agree:
// the live Outages() spans, the fault.* metric counters, and the
// per-channel drop counters (which must sum exactly to the network's
// total drop count).
func TestOutagesAndDropReconciliation(t *testing.T) {
	e, n, _, inj := newTestNet(t)
	f := n.T.(*topo.FBFLY)
	reg := telemetry.NewRegistry()
	if err := inj.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}

	const failAt = 2 * sim.Microsecond
	port := f.PortToPeer(0, 0, 1)
	var midOutages []Outage
	e.At(failAt, func(now sim.Time) {
		if !inj.FailLink(now, 0, port) {
			t.Error("FailLink refused")
		}
		if !inj.FailSwitch(now, 3) {
			t.Error("FailSwitch refused")
		}
		midOutages = inj.Outages()
	})
	injectAllPairs(n, 65536) // big messages: plenty in flight at failAt
	e.Run()

	_, dropped := conserve(t, n)
	if dropped == 0 {
		t.Fatal("schedule dropped nothing; test is vacuous")
	}

	// Every drop is attributed to the last channel the packet crossed:
	// a packet is only dropped after its first transmit.
	var chDrops int64
	for _, ch := range n.Channels() {
		chDrops += ch.Drops()
	}
	if chDrops != dropped {
		t.Errorf("drop attribution: per-channel drops %d != total %d", chDrops, dropped)
	}

	// Outages: the explicit link plus switch 3's incident pairs, all
	// down since failAt, in deterministic wiring order.
	if len(midOutages) != inj.LinksDown() {
		t.Errorf("outages = %d, links down = %d", len(midOutages), inj.LinksDown())
	}
	wantLabel, _ := inj.PairAt(0, port)
	found := false
	for _, out := range midOutages {
		if out.Since != failAt {
			t.Errorf("outage %s since %v, want %v", out.Link, out.Since, failAt)
		}
		if out.Link == wantLabel[0].Label() {
			found = true
		}
	}
	if !found {
		t.Errorf("explicitly failed link %s missing from outages %v",
			wantLabel[0].Label(), midOutages)
	}

	// The fault.* counters agree with the injector's stats.
	m := readMetrics(reg)
	if got := m["fault.link_failures"]; got != float64(inj.Stats.LinkFailures) {
		t.Errorf("fault.link_failures = %v, want %d", got, inj.Stats.LinkFailures)
	}
	if got := m["fault.switch_failures"]; got != float64(inj.Stats.SwitchFailures) {
		t.Errorf("fault.switch_failures = %v, want %d", got, inj.Stats.SwitchFailures)
	}
	if got := m["fault.links_down"]; got != float64(inj.LinksDown()) {
		t.Errorf("fault.links_down = %v, want %d", got, inj.LinksDown())
	}
	if inj.Stats.LinkFailures != 1 || inj.Stats.SwitchFailures != 1 {
		t.Errorf("stats = %+v, want 1 link + 1 switch failure", inj.Stats)
	}

	// Repair everything: outages drain and links_down returns to zero.
	if !inj.RepairSwitch(e.Now(), 3) || !inj.RepairLink(e.Now(), 0, port) {
		t.Fatal("repairs refused")
	}
	if got := inj.Outages(); len(got) != 0 {
		t.Errorf("outages after repair = %v, want none", got)
	}
	if got := readMetrics(reg)["fault.links_down"]; got != 0 {
		t.Errorf("fault.links_down after repair = %v", got)
	}
}
