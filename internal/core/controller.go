package core

import (
	"fmt"
	"strconv"

	"epnet/internal/fabric"
	"epnet/internal/link"
	"epnet/internal/sim"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// Controller is the energy-proportional link controller. Every Epoch it
// measures the utilization of every channel, asks the Policy for the
// next rate, and reconfigures channels whose rate changes, paying the
// Reactivation penalty. Decisions are purely local to each link — the
// property that makes this mechanism a natural fit for the flattened
// butterfly, whose routing decisions are local too (§3.2).
//
// Sharded execution contract: the controller's epoch events run on the
// control engine (fabric.Network.E), which the shard coordinator only
// advances at window barriers, when every shard worker is parked at the
// same instant. The controller may therefore read and reconfigure any
// channel without synchronization — it never races a shard — and the
// barrier schedule is a pure function of event timestamps, so epoch
// decisions land at identical times at every shard count.
type Controller struct {
	Net    *fabric.Network
	Policy Policy

	// Epoch is the utilization measurement window. The paper sizes it
	// at 10x the reactivation time, bounding reconfiguration overhead
	// to 10% (§4.2.2).
	Epoch sim.Time

	// Reactivation is the link-reconfiguration penalty (1 us default,
	// "a conservative value", §4.1).
	Reactivation sim.Time

	// Paired, when true, ties both unidirectional channels of a link to
	// the same rate, driven by the busier direction — current chips'
	// behavior. When false, each channel is tuned independently (the
	// paper's proposed switch-design improvement, §3.3.1).
	Paired bool

	// IncludeHostLinks extends tuning to host-switch links (default in
	// Start unless explicitly disabled via SkipHostLinks).
	SkipHostLinks bool

	// ModeAware, when true, replaces the flat Reactivation penalty with
	// the SerDes model of §3.1: a rate-only change merely re-locks the
	// receive CDR (~100 ns) while a lane-count change retrains the link
	// (~1 us). The paper's §5.2 suggests better algorithms "take into
	// account the difference in link resynchronization latency".
	ModeAware  bool
	ReactModel link.ReactivationModel
	Modes      []link.Mode

	// Reconfigurations counts rate changes applied, for reports.
	Reconfigurations int64

	// Labeled retune counters, pre-resolved by RegisterMetrics and
	// nil when telemetry is off (Inc on nil is a no-op). mUp/mDown
	// split rate changes by direction; mDim attributes them to the
	// topology dimension of the retuned port when the topology exposes
	// one (flattened butterfly inter-switch ports).
	mUp, mDown *telemetry.Counter
	mDim       []*telemetry.Counter
	dimOf      func(port int) int

	started bool
}

// RegisterMetrics exposes the controller's counters to a telemetry
// registry: the flat ctrl.reconfigs total plus labeled vectors
// ctrl.retunes{dir=up|down} and — when the network's topology is a
// flattened butterfly — ctrl.dim_retunes{dim=N} attributing rate
// changes to topology dimensions. The counters are resolved to
// handles here, off the epoch tick.
func (c *Controller) RegisterMetrics(reg *telemetry.Registry) error {
	if err := reg.GaugeFunc("ctrl.reconfigs",
		func() float64 { return float64(c.Reconfigurations) }); err != nil {
		return err
	}
	retunes := reg.CounterVec("ctrl.retunes", "dir")
	var err error
	if c.mUp, err = retunes.With("up"); err != nil {
		return err
	}
	if c.mDown, err = retunes.With("down"); err != nil {
		return err
	}
	if c.Net != nil {
		if f, ok := c.Net.T.(*topo.FBFLY); ok && f.D > 0 {
			dims := reg.CounterVec("ctrl.dim_retunes", "dim")
			c.mDim = make([]*telemetry.Counter, f.D)
			for d := range c.mDim {
				if c.mDim[d], err = dims.With(strconv.Itoa(d)); err != nil {
					return err
				}
			}
			c.dimOf = f.PortDim
		}
	}
	return nil
}

// noteRetune feeds the labeled retune counters for one channel's rate
// change. All handles are nil-safe, so runs without telemetry pay one
// nil test per actual reconfiguration (a cold path).
func (c *Controller) noteRetune(ch *fabric.Chan, from, to link.Rate) {
	if to > from {
		c.mUp.Inc()
	} else {
		c.mDown.Inc()
	}
	if c.mDim != nil && ch.Src.Kind == topo.KindSwitch {
		if d := c.dimOf(ch.Src.Port); d >= 0 && d < len(c.mDim) {
			c.mDim[d].Inc()
		}
	}
}

// DefaultController returns the paper's evaluation configuration: the
// halve/double policy at 50% target utilization, 1 us reactivation, and
// a 10 us epoch, with paired link control.
func DefaultController(net *fabric.Network) *Controller {
	return &Controller{
		Net:          net,
		Policy:       HalveDouble{Target: 0.5},
		Epoch:        10 * sim.Microsecond,
		Reactivation: sim.Microsecond,
		Paired:       true,
	}
}

// Start validates the configuration and schedules the periodic epoch
// ticks on the network's engine.
func (c *Controller) Start() error {
	if c.started {
		return fmt.Errorf("core: controller already started")
	}
	if c.Net == nil {
		return fmt.Errorf("core: controller needs a network")
	}
	if c.Policy == nil {
		return fmt.Errorf("core: controller needs a policy")
	}
	if c.Epoch <= 0 {
		return fmt.Errorf("core: epoch must be positive, got %v", c.Epoch)
	}
	if c.Reactivation < 0 {
		return fmt.Errorf("core: negative reactivation %v", c.Reactivation)
	}
	if c.Reactivation >= c.Epoch {
		return fmt.Errorf("core: reactivation %v must be shorter than epoch %v",
			c.Reactivation, c.Epoch)
	}
	if c.ModeAware {
		if c.Modes == nil {
			c.Modes = link.InfiniBandModes()
		}
		if c.ReactModel == (link.ReactivationModel{}) {
			c.ReactModel = link.DefaultReactivation()
		}
	}
	c.started = true
	c.Net.E.After(c.Epoch, c.tick)
	return nil
}

// reactivationFor returns the penalty for reconfiguring from one rate
// to another.
func (c *Controller) reactivationFor(from, to link.Rate) sim.Time {
	if !c.ModeAware {
		return c.Reactivation
	}
	fm, ok1 := link.ModeFor(from, c.Modes)
	tm, ok2 := link.ModeFor(to, c.Modes)
	if !ok1 || !ok2 {
		return c.Reactivation
	}
	return c.ReactModel.Penalty(fm, tm)
}

// signalsFor gathers the policy inputs for one channel: its epoch
// utilization and the backlog queued behind it at its source.
func (c *Controller) signalsFor(ch *fabric.Chan, now sim.Time) Signals {
	s := Signals{
		Util: ch.L.EpochUtilization(now),
		Rate: ch.L.Rate(),
	}
	switch ch.Src.Kind {
	case topo.KindSwitch:
		s.QueueBytes = c.Net.Switches[ch.Src.ID].QueueBytes(ch.Src.Port)
	case topo.KindHost:
		s.QueueBytes = c.Net.Hosts[ch.Src.ID].BacklogBytes()
	}
	return s
}

func (c *Controller) tick(now sim.Time) {
	if c.Paired {
		for _, pair := range c.Net.Pairs() {
			if c.skip(pair[0]) {
				continue
			}
			a, b := &pair[0].L, &pair[1].L
			if a.State(now) == link.Off || b.State(now) == link.Off {
				continue // dynamic topology owns powered-off links
			}
			// The pair must satisfy the busier direction (§3.3.1).
			sa := c.signalsFor(pair[0], now)
			sb := c.signalsFor(pair[1], now)
			s := sa
			if sb.Util > s.Util {
				s.Util = sb.Util
			}
			if sb.QueueBytes > s.QueueBytes {
				s.QueueBytes = sb.QueueBytes
			}
			next := c.Policy.Decide(s, a.Ladder())
			// A degraded lane (fault injection) caps what either side
			// can train to; clamp before comparing so a pinned link is
			// not counted as reconfiguring every epoch.
			next = b.ClampRate(a.ClampRate(next))
			if next != a.Rate() {
				fromA, fromB := a.Rate(), b.Rate()
				react := c.reactivationFor(fromA, next)
				a.SetRate(now, next, react)
				b.SetRate(now, next, react)
				c.Reconfigurations += 2
				c.noteRetune(pair[0], fromA, next)
				c.noteRetune(pair[1], fromB, next)
			}
			a.ResetEpoch(now)
			b.ResetEpoch(now)
		}
	} else {
		for _, ch := range c.Net.Channels() {
			if c.skip(ch) {
				continue
			}
			l := &ch.L
			if l.State(now) == link.Off {
				continue
			}
			next := c.Policy.Decide(c.signalsFor(ch, now), l.Ladder())
			next = l.ClampRate(next)
			if next != l.Rate() {
				from := l.Rate()
				react := c.reactivationFor(from, next)
				l.SetRate(now, next, react)
				c.Reconfigurations++
				c.noteRetune(ch, from, next)
			}
			l.ResetEpoch(now)
		}
	}
	c.Net.E.After(c.Epoch, c.tick)
}

func (c *Controller) skip(ch *fabric.Chan) bool {
	if !c.SkipHostLinks {
		return false
	}
	return ch.Src.Kind == topo.KindHost || ch.Dst.Kind == topo.KindHost
}
