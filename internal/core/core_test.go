package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"epnet/internal/fabric"
	"epnet/internal/link"
	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/topo"
)

func ladder() link.RateLadder { return link.DefaultLadder() }

func TestHalveDouble(t *testing.T) {
	p := HalveDouble{Target: 0.5}
	l := ladder()
	if got := p.Decide(Signals{Util: 0.2, Rate: link.Rate40G}, l); got != link.Rate20G {
		t.Errorf("below target: %v, want halved to 20G", got)
	}
	if got := p.Decide(Signals{Util: 0.9, Rate: link.Rate20G}, l); got != link.Rate40G {
		t.Errorf("above target: %v, want doubled to 40G", got)
	}
	if got := p.Decide(Signals{Util: 0.0, Rate: link.Rate2_5G}, l); got != link.Rate2_5G {
		t.Errorf("at minimum: %v, want saturate", got)
	}
	if got := p.Decide(Signals{Util: 0.9, Rate: link.Rate40G}, l); got != link.Rate40G {
		t.Errorf("at maximum: %v, want saturate", got)
	}
	if got := p.Decide(Signals{Util: 0.5, Rate: link.Rate10G}, l); got != link.Rate10G {
		t.Errorf("exactly at target: %v, want unchanged", got)
	}
}

func TestMinMax(t *testing.T) {
	p := MinMax{Target: 0.5}
	l := ladder()
	if got := p.Decide(Signals{Util: 0.1, Rate: link.Rate20G}, l); got != link.Rate2_5G {
		t.Errorf("below: %v, want min", got)
	}
	if got := p.Decide(Signals{Util: 0.8, Rate: link.Rate5G}, l); got != link.Rate40G {
		t.Errorf("above: %v, want max", got)
	}
}

func TestHysteresis(t *testing.T) {
	p := Hysteresis{Target: 0.5}
	l := ladder()
	if got := p.Decide(Signals{Util: 0.6, Rate: link.Rate20G}, l); got != link.Rate40G {
		t.Errorf("above target: %v", got)
	}
	// In the dead band [target/2, target]: hold.
	if got := p.Decide(Signals{Util: 0.4, Rate: link.Rate20G}, l); got != link.Rate20G {
		t.Errorf("dead band: %v, want hold", got)
	}
	if got := p.Decide(Signals{Util: 0.1, Rate: link.Rate20G}, l); got != link.Rate10G {
		t.Errorf("below half target: %v, want down", got)
	}
}

func TestStatic(t *testing.T) {
	p := Static{Rate: link.Rate10G}
	if got := p.Decide(Signals{Util: 0.99, Rate: link.Rate40G}, ladder()); got != link.Rate10G {
		t.Errorf("static: %v", got)
	}
}

// Property: every policy's decision is always on the ladder, for any
// utilization (including pathological values).
func TestPolicyLadderClosureProperty(t *testing.T) {
	l := ladder()
	policies := []Policy{
		HalveDouble{0.5}, MinMax{0.5}, Hysteresis{0.5},
		Static{link.Rate2_5G}, HalveDouble{0.25}, HalveDouble{0.75},
	}
	f := func(curIdx uint8, utilRaw int16) bool {
		cur := l[int(curIdx)%len(l)]
		util := float64(utilRaw) / 1000 // may be negative or > 1
		for _, p := range policies {
			if l.Index(p.Decide(Signals{Util: util, Rate: cur}, l)) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{HalveDouble{0.5}, MinMax{0.5}, Hysteresis{0.5}, Static{link.Rate40G}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

// buildNet creates an 8-ary 2-flat with its router.
func buildNet(t testing.TB) (*sim.Engine, *fabric.Network, *routing.FBFLY) {
	t.Helper()
	e := sim.New()
	f := topo.MustFBFLY(8, 2, 8)
	r := routing.NewFBFLY(f)
	n, err := fabric.New(e, f, r, fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e, n, r
}

func TestControllerValidation(t *testing.T) {
	_, n, _ := buildNet(t)
	cases := []*Controller{
		{Net: nil, Policy: HalveDouble{0.5}, Epoch: sim.Microsecond},
		{Net: n, Policy: nil, Epoch: sim.Microsecond},
		{Net: n, Policy: HalveDouble{0.5}, Epoch: 0},
		{Net: n, Policy: HalveDouble{0.5}, Epoch: sim.Microsecond, Reactivation: -1},
		{Net: n, Policy: HalveDouble{0.5}, Epoch: sim.Microsecond, Reactivation: 2 * sim.Microsecond},
	}
	for i, c := range cases {
		if err := c.Start(); err == nil {
			t.Errorf("case %d: invalid controller started", i)
		}
	}
	good := DefaultController(n)
	if err := good.Start(); err != nil {
		t.Fatalf("valid controller rejected: %v", err)
	}
	if err := good.Start(); err == nil {
		t.Error("double start accepted")
	}
}

// TestControllerIdleConvergence: with no traffic, every channel descends
// the ladder to the minimum rate within a few epochs.
func TestControllerIdleConvergence(t *testing.T) {
	e, n, _ := buildNet(t)
	c := DefaultController(n)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// 4 downward steps needed (40->20->10->5->2.5): run 6 epochs.
	e.RunUntil(6 * c.Epoch)
	for _, ch := range n.Channels() {
		if got := ch.L.Rate(); got != link.Rate2_5G {
			t.Fatalf("channel %s at %v after idle epochs, want 2.5G", ch.Label(), got)
		}
	}
	if c.Reconfigurations == 0 {
		t.Error("no reconfigurations counted")
	}
}

// TestControllerLoadedStaysFast: a saturating flow keeps its path fast
// while idle channels detune.
func TestControllerLoadedStaysFast(t *testing.T) {
	e, n, _ := buildNet(t)
	c := DefaultController(n)
	c.Paired = false
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Host 0 streams to host 8 (sw0 -> sw1) continuously: inject 64KB
	// every 10us = ~52 Gb/s offered, saturating the 40G path.
	var feed func(now sim.Time)
	feed = func(now sim.Time) {
		n.InjectMessage(0, 8, 65536)
		e.After(10*sim.Microsecond, feed)
	}
	e.At(0, feed)
	e.RunUntil(200 * sim.Microsecond)

	// The source host's uplink must still be at a high rate.
	up := &n.Hosts[0].Uplink().L
	if up.Rate() < link.Rate20G {
		t.Errorf("loaded uplink detuned to %v", up.Rate())
	}
	// A far-away idle host's uplink must be at minimum.
	idle := &n.Hosts[63].Uplink().L
	if idle.Rate() != link.Rate2_5G {
		t.Errorf("idle uplink at %v, want 2.5G", idle.Rate())
	}
}

// TestControllerPairedVsIndependent reproduces the §3.3.1 asymmetry
// argument: with one-directional traffic, paired control keeps both
// directions fast while independent control detunes the quiet reverse
// direction.
func TestControllerPairedVsIndependent(t *testing.T) {
	run := func(paired bool) (fwd, rev link.Rate) {
		e, n, _ := buildNet(t)
		c := DefaultController(n)
		c.Paired = paired
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		var feed func(now sim.Time)
		feed = func(now sim.Time) {
			n.InjectMessage(0, 8, 65536) // one-way host0 -> host8
			e.After(10*sim.Microsecond, feed)
		}
		e.At(0, feed)
		e.RunUntil(300 * sim.Microsecond)
		up := n.Hosts[0].Uplink()
		// Find the reverse (switch -> host 0) channel: it is up's pair.
		for _, pair := range n.Pairs() {
			if pair[0] == up {
				return pair[0].L.Rate(), pair[1].L.Rate()
			}
			if pair[1] == up {
				return pair[1].L.Rate(), pair[0].L.Rate()
			}
		}
		t.Fatal("uplink pair not found")
		return 0, 0
	}
	fwdP, revP := run(true)
	if fwdP < link.Rate20G || revP != fwdP {
		t.Errorf("paired: fwd=%v rev=%v, want both fast and equal", fwdP, revP)
	}
	fwdI, revI := run(false)
	if fwdI < link.Rate20G {
		t.Errorf("independent: fwd=%v, want fast", fwdI)
	}
	if revI != link.Rate2_5G {
		t.Errorf("independent: rev=%v, want 2.5G (asymmetric detune)", revI)
	}
}

// TestControllerTrafficSurvivesTuning: tuning must not lose packets.
func TestControllerTrafficSurvivesTuning(t *testing.T) {
	e, n, _ := buildNet(t)
	c := DefaultController(n)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		i := i
		e.At(sim.Time(i)*7*sim.Microsecond, func(sim.Time) {
			n.InjectMessage(i%64, (i*13+5)%64, 4096)
		})
	}
	e.RunUntil(5 * sim.Millisecond)
	inj, _ := n.Injected()
	del, _ := n.Delivered()
	if inj != del {
		t.Errorf("injected %d delivered %d with tuning active", inj, del)
	}
}

// TestDynTopoDegradeAndRestore drives the dynamic topology controller
// through a full cycle: idle -> ring (links powered off) -> loaded ->
// full wiring again.
func TestDynTopoDegradeAndRestore(t *testing.T) {
	e, n, r := buildNet(t)
	d := DefaultDynTopo(n, r)
	d.Epoch = 50 * sim.Microsecond
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	// Phase 1: idle. After two epochs the dimension must degrade.
	e.RunUntil(120 * sim.Microsecond)
	if got := r.Mode(0); got != routing.DimRing {
		t.Fatalf("mode after idle = %v, want ring", got)
	}
	// After another sweep, non-ring links are powered off.
	e.RunUntil(250 * sim.Microsecond)
	off := 0
	for _, ch := range n.InterSwitchChannels() {
		if ch.L.State(e.Now()) == link.Off {
			off++
		}
	}
	// 8 switches x 7 peers = 56 directed channels; ring keeps 16.
	if off != 40 {
		t.Fatalf("off channels = %d, want 40", off)
	}

	// Phase 2: traffic still flows over the ring.
	delivered := 0
	n.OnDeliver = func(*fabric.Packet, sim.Time) { delivered++ }
	n.InjectMessage(0, 32, 2048) // sw0 -> sw4: 4 ring hops
	e.RunUntil(300 * sim.Microsecond)
	if delivered != 1 {
		t.Fatalf("delivered %d over ring, want 1", delivered)
	}

	// Phase 3: sustained heavy all-to-all load restores full wiring.
	var feed func(now sim.Time)
	i := 0
	feed = func(now sim.Time) {
		for h := 0; h < 64; h += 2 {
			n.InjectMessage(h, (h+8*(1+i%7))%64, 32768)
		}
		i++
		e.After(20*sim.Microsecond, feed)
	}
	e.At(300*sim.Microsecond, feed)
	e.RunUntil(700 * sim.Microsecond)
	if got := r.Mode(0); got != routing.DimFull {
		t.Fatalf("mode under load = %v, want full", got)
	}
	for _, ch := range n.InterSwitchChannels() {
		if ch.L.State(e.Now()) == link.Off {
			t.Fatalf("channel %s still off after restore", ch.Label())
		}
	}
	if d.Transitions < 2 {
		t.Errorf("transitions = %d, want >= 2", d.Transitions)
	}
}

func TestDynTopoValidation(t *testing.T) {
	_, n, r := buildNet(t)
	bad := []*DynTopo{
		{Net: nil, Router: r, Epoch: sim.Microsecond, HighWater: 0.2},
		{Net: n, Router: nil, Epoch: sim.Microsecond, HighWater: 0.2},
		{Net: n, Router: r, Epoch: 0, HighWater: 0.2},
		{Net: n, Router: r, Epoch: sim.Microsecond, LowWater: 0.5, HighWater: 0.2},
	}
	for i, d := range bad {
		if err := d.Start(); err == nil {
			t.Errorf("case %d: invalid dyntopo started", i)
		}
	}
	good := DefaultDynTopo(n, r)
	if err := good.Start(); err != nil {
		t.Fatalf("valid dyntopo rejected: %v", err)
	}
	if err := good.Start(); err == nil {
		t.Error("double start accepted")
	}
}

// TestControllerAndDynTopoCompose runs both controllers together with
// traffic and checks conservation.
func TestControllerAndDynTopoCompose(t *testing.T) {
	e, n, r := buildNet(t)
	c := DefaultController(n)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	d := DefaultDynTopo(n, r)
	d.Epoch = 50 * sim.Microsecond
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		i := i
		e.At(sim.Time(i%100)*5*sim.Microsecond, func(sim.Time) {
			n.InjectMessage(i%64, (i*29+3)%64, 2048)
		})
	}
	e.RunUntil(3 * sim.Millisecond)
	inj, _ := n.Injected()
	del, _ := n.Delivered()
	if inj != del {
		t.Errorf("injected %d delivered %d with both controllers", inj, del)
	}
}

func TestQueueAware(t *testing.T) {
	p := QueueAware{Target: 0.5, BurstBytes: 100000}
	l := ladder()
	// Below the burst threshold it behaves like halve/double.
	if got := p.Decide(Signals{Util: 0.1, QueueBytes: 500, Rate: link.Rate20G}, l); got != link.Rate10G {
		t.Errorf("low util, small queue: %v, want 10G", got)
	}
	// A deep backlog jumps straight to the maximum even at low
	// measured utilization (the link may just have come out of
	// reconfiguration).
	if got := p.Decide(Signals{Util: 0.1, QueueBytes: 200000, Rate: link.Rate2_5G}, l); got != link.Rate40G {
		t.Errorf("deep backlog: %v, want max", got)
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

// TestControllerModeAware: with mode-aware reactivation, a 20G -> 40G
// change (4x DDR -> 4x QDR, same lanes) pays only the CDR re-lock time,
// while 10G -> 20G (1x QDR -> 4x DDR) pays the lane retraining time.
func TestControllerModeAware(t *testing.T) {
	_, n, _ := buildNet(t)
	c := DefaultController(n)
	c.ModeAware = true
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if got := c.reactivationFor(link.Rate20G, link.Rate40G); got != c.ReactModel.CDRLock {
		t.Errorf("20->40G penalty = %v, want CDR lock %v", got, c.ReactModel.CDRLock)
	}
	if got := c.reactivationFor(link.Rate10G, link.Rate20G); got != c.ReactModel.LaneChange {
		t.Errorf("10->20G penalty = %v, want lane change %v", got, c.ReactModel.LaneChange)
	}
	if got := c.reactivationFor(link.Rate2_5G, link.Rate5G); got != c.ReactModel.CDRLock {
		t.Errorf("2.5->5G penalty = %v, want CDR lock", got)
	}
}

// TestControllerQueueAwareDrainsFaster: on a sudden burst arriving at a
// detuned link, the queue-aware policy restores full rate in one epoch
// and drains the backlog sooner than halve/double.
func TestControllerQueueAwareDrainsFaster(t *testing.T) {
	drainTime := func(p Policy) sim.Time {
		e, n, _ := buildNet(t)
		c := DefaultController(n)
		c.Policy = p
		c.Paired = false
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		// Let everything detune to 2.5G, then slam a 2MB burst.
		var last sim.Time
		n.OnDeliver = func(_ *fabric.Packet, now sim.Time) { last = now }
		e.At(100*sim.Microsecond, func(sim.Time) {
			n.InjectMessage(0, 8, 2*1024*1024)
		})
		e.RunUntil(5 * sim.Millisecond)
		if pkts, _ := n.Injected(); pkts == 0 {
			t.Fatal("no injection")
		}
		inj, _ := n.Injected()
		del, _ := n.Delivered()
		if inj != del {
			t.Fatalf("%s: burst not drained (%d/%d)", p.Name(), del, inj)
		}
		return last
	}
	hd := drainTime(HalveDouble{Target: 0.5})
	qa := drainTime(QueueAware{Target: 0.5, BurstBytes: 64 * 1024})
	if qa >= hd {
		t.Errorf("queue-aware drained at %v, halve-double at %v: no improvement", qa, hd)
	}
}

// TestDynTopoMeshMode degrades a dimension to a line (mesh) instead of
// a ring: two more channels power off per ring (the wraparound pair),
// and traffic still flows.
func TestDynTopoMeshMode(t *testing.T) {
	e, n, r := buildNet(t)
	d := DefaultDynTopo(n, r)
	d.Epoch = 50 * sim.Microsecond
	d.DegradeTo = routing.DimLine
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(250 * sim.Microsecond)
	if got := r.Mode(0); got != routing.DimLine {
		t.Fatalf("mode = %v, want line", got)
	}
	off := 0
	for _, ch := range n.InterSwitchChannels() {
		if ch.L.State(e.Now()) == link.Off {
			off++
		}
	}
	// Ring keeps 16 of 56 directed channels; line keeps 14.
	if off != 42 {
		t.Fatalf("off channels = %d, want 42 (mesh keeps 14)", off)
	}
	// End-to-end traffic across the line: host on sw0 to host on sw7
	// must walk all 7 line hops.
	delivered := 0
	var hops int
	n.OnDeliver = func(p *fabric.Packet, _ sim.Time) { delivered++; hops = int(p.Hops) }
	n.InjectMessage(0, 7*8, 2048)
	e.RunUntil(400 * sim.Microsecond)
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	if hops != 8 {
		t.Errorf("took %d hops, want 8 (7 line hops + egress)", hops)
	}
}

// TestConservationUnderTuningProperty is the capstone invariant: for
// random small topologies, random traffic, and random controller
// settings (policy, pairing, epoch, reactivation), every injected
// packet is delivered once the sources stop — energy proportional
// tuning never loses or duplicates traffic.
func TestConservationUnderTuningProperty(t *testing.T) {
	policies := []Policy{
		HalveDouble{0.5}, MinMax{0.5}, Hysteresis{0.5},
		QueueAware{0.5, 32 * 1024}, HalveDouble{0.25},
	}
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 12; trial++ {
		k := 2 + rng.Intn(4) // 2..5
		n := 2 + rng.Intn(2) // 2..3
		c := 1 + rng.Intn(3) // 1..3
		f := topo.MustFBFLY(k, n, c)
		e := sim.New()
		cfg := fabric.DefaultConfig()
		cfg.Seed = int64(trial)
		net, err := fabric.New(e, f, routing.NewFBFLY(f), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctrl := DefaultController(net)
		ctrl.Policy = policies[rng.Intn(len(policies))]
		ctrl.Paired = rng.Intn(2) == 0
		ctrl.Epoch = sim.Time(2+rng.Intn(20)) * sim.Microsecond
		ctrl.Reactivation = ctrl.Epoch / sim.Time(2+rng.Intn(8))
		ctrl.ModeAware = rng.Intn(2) == 0
		if err := ctrl.Start(); err != nil {
			t.Fatal(err)
		}
		hosts := f.NumHosts()
		for i := 0; i < 150; i++ {
			src, dst := rng.Intn(hosts), rng.Intn(hosts)
			if src == dst {
				continue
			}
			size := 1 + rng.Intn(30000)
			e.At(sim.Time(rng.Intn(200))*sim.Microsecond, func(sim.Time) {
				net.InjectMessage(src, dst, size)
			})
		}
		e.RunUntil(5 * sim.Millisecond)
		inj, injB := net.Injected()
		del, delB := net.Delivered()
		if inj != del || injB != delB {
			t.Fatalf("trial %d (k=%d n=%d c=%d %s paired=%v): injected %d/%dB delivered %d/%dB",
				trial, k, n, c, ctrl.Policy.Name(), ctrl.Paired, inj, injB, del, delB)
		}
	}
}
