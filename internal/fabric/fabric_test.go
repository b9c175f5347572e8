package fabric

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"epnet/internal/link"
	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/topo"
)

// newTestNet builds an 8-ary 2-flat network (64 hosts, 8 switches).
func newTestNet(t testing.TB) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.New()
	f := topo.MustFBFLY(8, 2, 8)
	n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e, n
}

func TestConfigValidation(t *testing.T) {
	e := sim.New()
	f := topo.MustFBFLY(2, 2, 1)
	r := routing.NewFBFLY(f)

	bad := DefaultConfig()
	bad.MaxPacket = 0
	if _, err := New(e, f, r, bad); err == nil {
		t.Error("MaxPacket=0 accepted")
	}
	bad = DefaultConfig()
	bad.InputBufBytes = 10
	if _, err := New(e, f, r, bad); err == nil {
		t.Error("buffer smaller than packet accepted")
	}
	// Packet.Size is 32-bit, so a larger segment is rejected even when
	// the buffer would hold it.
	bad = DefaultConfig()
	big := int64(math.MaxInt32) + 1
	bad.MaxPacket, bad.InputBufBytes = int(big), int(big)
	if _, err := New(e, f, r, bad); err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Errorf("MaxPacket past 32 bits: err = %v, want the 32-bit size rejected", err)
	}
	bad = DefaultConfig()
	bad.WireDelay = -1
	if _, err := New(e, f, r, bad); err == nil {
		t.Error("negative delay accepted")
	}
	// Nil ladder defaults.
	ok := DefaultConfig()
	ok.Ladder = nil
	if _, err := New(e, f, r, ok); err != nil {
		t.Errorf("nil ladder rejected: %v", err)
	}
}

func TestChannelWiring(t *testing.T) {
	_, n := newTestNet(t)
	f := n.T.(*topo.FBFLY)
	// Channels: 2 per host link + 2 per inter-switch link.
	wantLinks := f.NumHosts() + f.NumSwitches()*(f.K-1)*f.D/2
	if got := len(n.Pairs()); got != wantLinks {
		t.Errorf("pairs = %d, want %d", got, wantLinks)
	}
	if got := len(n.Channels()); got != 2*wantLinks {
		t.Errorf("channels = %d, want %d", got, 2*wantLinks)
	}
	if got := len(n.InterSwitchChannels()); got != f.NumSwitches()*(f.K-1)*f.D {
		t.Errorf("inter-switch channels = %d", got)
	}
	// Every pair is mutually reversed.
	for _, pr := range n.Pairs() {
		if pr[0].Src != pr[1].Dst || pr[0].Dst != pr[1].Src {
			t.Fatalf("pair not reversed: %v / %v", pr[0].Label(), pr[1].Label())
		}
	}
}

// TestSinglePacketLatency checks the exact end-to-end timing of a single
// packet: serialization, cut-through per-hop latency, wire and routing
// delays.
func TestSinglePacketLatency(t *testing.T) {
	e, n := newTestNet(t)
	var got sim.Time
	var hops int
	n.OnDeliver = func(p *Packet, now sim.Time) {
		got = now - p.Inject
		hops = int(p.Hops)
	}
	// Host 0 (sw0) to host 8 (sw1): one inter-switch hop.
	n.InjectMessage(0, 8, 1000)
	e.Run()
	// ser(1000B@40G)=200ns; host: [0,200]; sw0 arrives head 50, routes at
	// 150, transmits [150,350]; sw1 head 400... routes at 300, transmits
	// [300,500]; tail at host 550ns.
	want := 550 * sim.Nanosecond
	if got != want {
		t.Errorf("latency = %v, want %v", got, want)
	}
	if hops != 2 {
		t.Errorf("hops = %d, want 2", hops)
	}

	// Same-switch delivery: host 0 -> host 1.
	got = 0
	n.InjectMessage(0, 1, 1000)
	e.Run()
	if want := 400 * sim.Nanosecond; got != want {
		t.Errorf("local latency = %v, want %v", got, want)
	}
}

func TestMessageSegmentation(t *testing.T) {
	e, n := newTestNet(t)
	delivered := 0
	var bytes int64
	n.OnDeliver = func(p *Packet, _ sim.Time) { delivered++; bytes += int64(p.Size) }
	// 5000 bytes with 2048-byte packets: 2048+2048+904.
	n.InjectMessage(0, 9, 5000)
	if pkts, b := n.Injected(); pkts != 3 || b != 5000 {
		t.Fatalf("injected %d pkts %d bytes", pkts, b)
	}
	e.Run()
	if delivered != 3 || bytes != 5000 {
		t.Errorf("delivered %d pkts %d bytes", delivered, bytes)
	}
	if n.InFlightPackets() != 0 {
		t.Errorf("in flight = %d", n.InFlightPackets())
	}
}

// TestQueuedMessagesHoldNoPackets offers 101 messages of 256 packets
// each to one host at one instant: the queue holds them whole, so the
// offers allocate no packets, and draining the network delivers every
// packet under the ID reserved for it at injection.
func TestQueuedMessagesHoldNoPackets(t *testing.T) {
	const size, perMsg = 512 << 10, 256
	e, n := newTestNet(t)
	done := 0
	n.OnMessageDone = func(int64, int, int, sim.Time, sim.Time) { done++ }
	ids := make(map[int64][]int64)
	n.OnDeliver = func(p *Packet, _ sim.Time) { ids[p.MsgID] = append(ids[p.MsgID], p.ID) }
	if allocs := testing.AllocsPerRun(100, func() { n.InjectMessage(0, 9, size) }); allocs >= 1 {
		t.Errorf("InjectMessage allocates %.2f times per message, want < 1", allocs)
	}
	e.Run()
	if done != 101 || len(ids) != 101 {
		t.Fatalf("%d messages done, %d delivered, want 101", done, len(ids))
	}
	for msg, got := range ids {
		slices.Sort(got)
		first := (msg-1)*perMsg + 1
		if len(got) != perMsg || got[0] != first || got[perMsg-1] != first+perMsg-1 ||
			len(slices.Compact(got)) != perMsg {
			t.Fatalf("message %d delivered IDs %d..%d (%d), want %d..%d",
				msg, got[0], got[len(got)-1], len(got), first, first+perMsg-1)
		}
	}
	if n.InFlightPackets() != 0 || n.HostBacklogBytes() != 0 {
		t.Errorf("in flight %d, backlog %d B after drain", n.InFlightPackets(), n.HostBacklogBytes())
	}
}

// TestConservation floods the network with random traffic and verifies
// every injected packet is delivered exactly once.
func TestConservation(t *testing.T) {
	e, n := newTestNet(t)
	seen := make(map[int64]int)
	n.OnDeliver = func(p *Packet, _ sim.Time) { seen[p.ID]++ }
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		src := rng.Intn(64)
		dst := rng.Intn(64)
		if dst == src {
			dst = (dst + 1) % 64
		}
		e.At(sim.Time(rng.Intn(100))*sim.Microsecond, func(sim.Time) {
			n.InjectMessage(src, dst, 1+rng.Intn(8000))
		})
	}
	e.Run()
	inj, injB := n.Injected()
	del, delB := n.Delivered()
	if inj != del || injB != delB {
		t.Fatalf("injected %d/%dB delivered %d/%dB", inj, injB, del, delB)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("packet %d delivered %d times", id, c)
		}
	}
	if n.HostBacklogBytes() != 0 {
		t.Errorf("backlog = %d after drain", n.HostBacklogBytes())
	}
}

// TestCreditBackpressure shrinks input buffers to a single packet and
// verifies traffic still flows (more slowly) without loss or deadlock.
func TestCreditBackpressure(t *testing.T) {
	e := sim.New()
	f := topo.MustFBFLY(4, 2, 4)
	cfg := DefaultConfig()
	cfg.MaxPacket = 1024
	cfg.InputBufBytes = 1024 // exactly one packet of credits
	n, err := New(e, f, routing.NewFBFLY(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	n.OnDeliver = func(*Packet, sim.Time) { delivered++ }
	// Everyone bursts to host 0's switch neighborhood at once.
	for h := 4; h < 16; h++ {
		n.InjectMessage(h, h%4, 8192)
	}
	e.Run()
	if want := 12 * 8; delivered != want {
		t.Fatalf("delivered %d, want %d", delivered, want)
	}
}

// TestAdaptiveSpreading sends many packets between switch pairs that
// have two minimal paths and verifies both dimensions carry traffic.
func TestAdaptiveSpreading(t *testing.T) {
	e, n := newTestNet(t)
	f := topo.MustFBFLY(4, 3, 2) // use a 2-dim topology for 2 paths
	e = sim.New()
	n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Host 0 is on switch 0 (coords 0,0); pick a destination whose
	// switch differs in both dimensions, e.g. switch 5 (coords 1,1).
	dst := 5 * f.C
	for i := 0; i < 200; i++ {
		n.InjectMessage(0, dst, 2048)
	}
	e.Run()
	// Count how many first-hop packets left switch 0 per dimension.
	perDim := map[int]int64{}
	sw0 := n.Switches[0]
	for p := f.C; p < f.Radix(); p++ {
		if ch := sw0.ports[p].out; ch != nil {
			perDim[f.PortDim(p)] += ch.L.TotalPackets()
		}
	}
	if perDim[0] == 0 || perDim[1] == 0 {
		t.Errorf("adaptive routing did not use both dimensions: %v", perDim)
	}
	if perDim[0]+perDim[1] != 200 {
		t.Errorf("first-hop packets = %d, want 200", perDim[0]+perDim[1])
	}
}

// TestDetunedChannelThroughput verifies that a channel detuned to
// 2.5 Gb/s serializes 16x slower, and delivery reflects it.
func TestDetunedChannelThroughput(t *testing.T) {
	e, n := newTestNet(t)
	var last sim.Time
	n.OnDeliver = func(p *Packet, now sim.Time) { last = now }
	// Detune host 0's uplink.
	n.Hosts[0].Uplink().L.SetRate(0, link.Rate2_5G, 0)
	n.InjectMessage(0, 8, 40000) // 20 packets of 2000B... 2048B
	e.Run()
	// Serialization dominates: 40000B at 2.5G = 128us lower bound.
	if last < 128*sim.Microsecond {
		t.Errorf("finished at %v, cannot beat 2.5G serialization of 128us", last)
	}
	inj, _ := n.Injected()
	del, _ := n.Delivered()
	if inj != del {
		t.Errorf("injected %d != delivered %d", inj, del)
	}
}

// TestSlowestModeBacklog reproduces the §4.2.1 observation that a
// network always operating in the slowest mode "fails to keep up with
// the offered host load": at high offered load, source backlog persists.
func TestSlowestModeBacklog(t *testing.T) {
	e, n := newTestNet(t)
	// All channels at 2.5 Gb/s.
	for _, c := range n.Channels() {
		c.L.SetRate(0, link.Rate2_5G, 0)
	}
	// Offer ~40% of 40G line rate from every host for 100us: far beyond
	// the 2.5G host uplinks (6.25% of 40G).
	rng := rand.New(rand.NewSource(5))
	for h := 0; h < 64; h++ {
		for i := 0; i < 10; i++ {
			h := h
			e.At(sim.Time(i)*10*sim.Microsecond, func(sim.Time) {
				dst := rng.Intn(64)
				if dst == h {
					dst = (dst + 1) % 64
				}
				n.InjectMessage(h, dst, 20000)
			})
		}
	}
	e.RunUntil(100 * sim.Microsecond)
	if n.HostBacklogBytes() == 0 {
		t.Error("no backlog at 2.5G with 40% offered load; expected saturation")
	}
}

// TestRerouteOnPowerOff powers a link off with packets queued and
// verifies they are re-routed and still delivered.
func TestRerouteOnPowerOff(t *testing.T) {
	e := sim.New()
	f := topo.MustFBFLY(4, 3, 2)
	n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	n.OnDeliver = func(*Packet, sim.Time) { delivered++ }
	dst := 5 * f.C // two minimal paths from switch 0
	for i := 0; i < 50; i++ {
		n.InjectMessage(0, dst, 2048)
	}
	// After 2us, kill whichever dim-0 first-hop channel has packets.
	e.At(2*sim.Microsecond, func(now sim.Time) {
		sw0 := n.Switches[0]
		for p := f.C; p < f.Radix(); p++ {
			if ch := sw0.ports[p].out; ch != nil && sw0.QueuedPackets(p) > 0 {
				n.PowerOff(ch, now)
				sw0.pumpOut(p, now)
				break
			}
		}
	})
	e.Run()
	if delivered != 50 {
		t.Errorf("delivered %d, want 50 (reroute around powered-off link)", delivered)
	}
}

// TestPortOffFollowsPower checks that a switch port's off flag, which
// route choice reads instead of the port's channel, follows the
// channel's power state through every transition the network offers.
func TestPortOffFollowsPower(t *testing.T) {
	_, n := newTestNet(t)
	n.EnableFaults()
	s := n.Switches[0]
	p := len(s.ports) - 1 // an inter-switch port
	ch := s.ports[p].out
	check := func(step string, off bool) {
		t.Helper()
		for sw, other := range n.Switches {
			for q, pt := range other.ports {
				if got, want := pt.off, pt.out.L.State(0) == link.Off; got != want {
					t.Fatalf("%s: sw%d.p%d off flag %v, channel off %v", step, sw, q, got, want)
				}
			}
		}
		if s.ports[p].off != off {
			t.Fatalf("%s: off flag %v, want %v", step, s.ports[p].off, off)
		}
	}
	check("built", false)
	n.PowerOff(ch, sim.Microsecond)
	check("PowerOff", true)
	n.PowerOn(ch, 2*sim.Microsecond, link.Rate10G, 0)
	check("PowerOn", false)
	n.PowerOff(ch, 3*sim.Microsecond)
	n.SetRate(ch, 4*sim.Microsecond, link.Rate20G, 0)
	check("SetRate on an Off channel", false)
	n.FailChan(ch, 5*sim.Microsecond)
	check("FailChan", true)
	n.RepairChan(ch, 6*sim.Microsecond, link.Rate40G, 0)
	check("RepairChan", false)
}

func TestInjectValidation(t *testing.T) {
	_, n := newTestNet(t)
	for _, fn := range []func(){
		func() { n.InjectMessage(-1, 0, 10) },
		func() { n.InjectMessage(0, 1000, 10) },
		func() { n.InjectMessage(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid inject did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestDeterminism runs the same random workload twice and requires
// byte-identical outcomes (same seeds everywhere).
func TestDeterminism(t *testing.T) {
	run := func() (int64, sim.Time) {
		e := sim.New()
		f := topo.MustFBFLY(8, 2, 8)
		cfg := DefaultConfig()
		cfg.Seed = 42
		n, err := New(e, f, routing.NewFBFLY(f), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var lastDeliver sim.Time
		n.OnDeliver = func(_ *Packet, now sim.Time) { lastDeliver = now }
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 200; i++ {
			at := sim.Time(rng.Intn(50)) * sim.Microsecond
			src, dst := rng.Intn(64), rng.Intn(64)
			if src == dst {
				dst = (dst + 1) % 64
			}
			size := 1 + rng.Intn(10000)
			e.At(at, func(sim.Time) { n.InjectMessage(src, dst, size) })
		}
		e.Run()
		_, b := n.Delivered()
		return b, lastDeliver
	}
	b1, t1 := run()
	b2, t2 := run()
	if b1 != b2 || t1 != t2 {
		t.Errorf("non-deterministic: (%d,%v) vs (%d,%v)", b1, t1, b2, t2)
	}
}

// TestReconfigurationStorm subjects the fabric to random rate changes on
// random channels while traffic flows, and requires zero packet loss —
// the property the paper's whole mechanism rests on ("rely on the
// adaptive routing mechanism to sense congestion and automatically route
// traffic around the link").
func TestReconfigurationStorm(t *testing.T) {
	e := sim.New()
	f := topo.MustFBFLY(4, 3, 2)
	n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(123))
	ladder := link.DefaultLadder()
	chans := n.Channels()
	// Storm: every 500ns, retune a random channel to a random rate with
	// a random (up to 2us) reactivation.
	var storm func(now sim.Time)
	storm = func(now sim.Time) {
		if now > 300*sim.Microsecond {
			return
		}
		ch := chans[rng.Intn(len(chans))]
		ch.L.SetRate(now, ladder[rng.Intn(len(ladder))], sim.Time(rng.Intn(2000))*sim.Nanosecond)
		// Wake the sender in case it was waiting on the old schedule.
		n.wakeSender(ch, now)
		e.After(500*sim.Nanosecond, storm)
	}
	e.At(0, storm)
	for i := 0; i < 400; i++ {
		i := i
		e.At(sim.Time(rng.Intn(250))*sim.Microsecond, func(sim.Time) {
			src, dst := i%32, (i*17+3)%32
			if src == dst {
				dst = (dst + 1) % 32
			}
			n.InjectMessage(src, dst, 1+rng.Intn(16000))
		})
	}
	e.Run()
	inj, injB := n.Injected()
	del, delB := n.Delivered()
	if inj != del || injB != delB {
		t.Fatalf("storm lost packets: injected %d/%dB delivered %d/%dB", inj, injB, del, delB)
	}
}

// TestHopCountsMinimal verifies every delivered packet took exactly the
// minimal number of switch hops (adaptive routing is minimal).
func TestHopCountsMinimal(t *testing.T) {
	e := sim.New()
	f := topo.MustFBFLY(4, 3, 2)
	n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.OnDeliver = func(p *Packet, _ sim.Time) {
		want := f.MinimalHops(int(p.Src), int(p.Dst)) + 1 // +1 for the egress switch hop
		if int(p.Hops) != want {
			t.Errorf("packet %d->%d took %d hops, want %d", p.Src, p.Dst, p.Hops, want)
		}
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		src, dst := rng.Intn(32), rng.Intn(32)
		if src == dst {
			continue
		}
		n.InjectMessage(src, dst, 2048)
	}
	e.Run()
}
