package core

import (
	"fmt"

	"epnet/internal/fabric"
	"epnet/internal/link"
	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/topo"
)

// DynTopo is the §5.1 dynamic topology controller: starting from a
// flattened butterfly, it selectively powers off links so a dimension
// degrades to a ring (the torus configuration) when demand is low, and
// powers them back on as offered load rises. Powering off is a drain
// protocol: links to be disabled first stop accepting new packets
// (adaptive routing is steered away), finish their queued traffic, and
// only then power off — and the two directions of a link are powered
// off together, since "one direction of a link cannot operate without
// the other direction active in order to receive credits back".
type DynTopo struct {
	Net    *fabric.Network
	Router *routing.FBFLY

	// Epoch is the demand-measurement window; dynamic topology changes
	// are coarser-grained than rate tuning, so this is typically much
	// longer than the rate controller's epoch.
	Epoch sim.Time

	// Reactivation is the power-on penalty for a re-enabled link.
	Reactivation sim.Time

	// LowWater and HighWater are per-dimension demand thresholds
	// (fraction of the dimension's full-wiring capacity): below
	// LowWater a full dimension degrades to a ring; above HighWater a
	// ring dimension is restored to full wiring.
	LowWater, HighWater float64

	// OnRate is the rate links come back up at.
	OnRate link.Rate

	// DegradeTo selects the reduced topology for a quiet dimension:
	// DimRing (torus-like, the default) keeps wraparound links; DimLine
	// (mesh-like) also powers off the wraparound, saving two more links
	// per ring at the cost of longer worst-case paths — exactly the
	// mesh/torus spectrum of §5.1.
	DegradeTo routing.DimMode

	// Transitions counts dimension mode changes.
	Transitions int64

	dimChans  [][]*fabric.Chan
	lastBytes []int64
	started   bool
}

// DefaultDynTopo returns a controller with a 100 us demand epoch, 1 us
// reactivation, and water marks sized for an 8-ary dimension (a ring
// retains 2/(k-1) of the full wiring's capacity).
func DefaultDynTopo(net *fabric.Network, r *routing.FBFLY) *DynTopo {
	return &DynTopo{
		Net:          net,
		Router:       r,
		Epoch:        100 * sim.Microsecond,
		Reactivation: sim.Microsecond,
		LowWater:     0.05,
		HighWater:    0.15,
		OnRate:       net.Cfg.Ladder.Max(),
	}
}

// Start validates and schedules the periodic demand ticks.
func (d *DynTopo) Start() error {
	if d.started {
		return fmt.Errorf("core: dyntopo already started")
	}
	if d.Net == nil || d.Router == nil {
		return fmt.Errorf("core: dyntopo needs a network and an FBFLY router")
	}
	if d.Epoch <= 0 {
		return fmt.Errorf("core: dyntopo epoch must be positive")
	}
	if d.LowWater < 0 || d.HighWater <= d.LowWater {
		return fmt.Errorf("core: dyntopo water marks must satisfy 0 <= low < high")
	}
	if d.OnRate == 0 {
		d.OnRate = d.Net.Cfg.Ladder.Max()
	}
	if d.DegradeTo == routing.DimFull {
		d.DegradeTo = routing.DimRing
	}
	f := d.Router.F
	d.dimChans = make([][]*fabric.Chan, f.D)
	for _, ch := range d.Net.InterSwitchChannels() {
		dim := f.PortDim(ch.Src.Port)
		if dim < 0 {
			continue
		}
		d.dimChans[dim] = append(d.dimChans[dim], ch)
	}
	d.lastBytes = make([]int64, f.D)
	d.started = true
	d.Net.E.After(d.Epoch, d.tick)
	return nil
}

// DemandUtil returns the last measured per-dimension demand as a
// fraction of the dimension's full-wiring capacity; valid after at
// least one epoch.
func (d *DynTopo) demandUtil(dim int) float64 {
	var bytes int64
	for _, ch := range d.dimChans[dim] {
		bytes += ch.L.TotalBytes()
	}
	delta := bytes - d.lastBytes[dim]
	d.lastBytes[dim] = bytes
	capacity := float64(len(d.dimChans[dim])) * float64(d.Net.Cfg.Ladder.Max()) * d.Epoch.Seconds() / 8
	if capacity == 0 {
		return 0
	}
	return float64(delta) / capacity
}

func (d *DynTopo) tick(now sim.Time) {
	f := d.Router.F
	for dim := 0; dim < f.D; dim++ {
		d.sweepDrained(dim, now)
		util := d.demandUtil(dim)
		switch d.Router.Mode(dim) {
		case routing.DimFull:
			if util < d.LowWater {
				d.degrade(dim, now)
			}
		default: // ring or line
			if util > d.HighWater {
				d.restore(dim, now)
			}
		}
	}
	d.Net.E.After(d.Epoch, d.tick)
}

// degrade switches a dimension to the configured reduced mode and
// starts draining the now-inactive links.
func (d *DynTopo) degrade(dim int, now sim.Time) {
	d.Router.SetMode(dim, d.DegradeTo)
	d.Transitions++
	for _, ch := range d.dimChans[dim] {
		if !d.Router.ActiveInDim(ch.Src.ID, ch.Src.Port) {
			d.Net.Switches[ch.Src.ID].SetClosing(ch.Src.Port, true)
		}
	}
}

// restore switches a dimension back to full wiring, powering links on.
func (d *DynTopo) restore(dim int, now sim.Time) {
	d.Router.SetMode(dim, routing.DimFull)
	d.Transitions++
	for _, ch := range d.dimChans[dim] {
		d.Net.Switches[ch.Src.ID].SetClosing(ch.Src.Port, false)
		d.Net.PowerOn(ch, now, d.OnRate, d.Reactivation)
	}
}

// sweepDrained powers off link pairs that are closing and fully drained.
// Both directions must be idle, honoring the credit-return constraint.
func (d *DynTopo) sweepDrained(dim int, now sim.Time) {
	seen := make(map[*fabric.Chan]bool)
	for _, pair := range d.Net.Pairs() {
		a, b := pair[0], pair[1]
		if a.Src.Kind != topo.KindSwitch || a.Dst.Kind != topo.KindSwitch {
			continue
		}
		if d.Router.F.PortDim(a.Src.Port) != dim || seen[a] {
			continue
		}
		seen[a], seen[b] = true, true
		if !d.Net.Switches[a.Src.ID].Closing(a.Src.Port) ||
			!d.Net.Switches[b.Src.ID].Closing(b.Src.Port) {
			continue
		}
		if d.Net.Switches[a.Src.ID].QueuedPackets(a.Src.Port) > 0 ||
			d.Net.Switches[b.Src.ID].QueuedPackets(b.Src.Port) > 0 {
			continue
		}
		if at, on := a.L.AvailableAt(now); on && at <= now {
			if bt, bon := b.L.AvailableAt(now); bon && bt <= now {
				d.Net.PowerOff(a, now)
				d.Net.PowerOff(b, now)
			}
		}
	}
}
