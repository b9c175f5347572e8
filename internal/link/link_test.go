package link

import (
	"reflect"
	"testing"
	"testing/quick"

	"epnet/internal/sim"
)

func TestRateString(t *testing.T) {
	if Rate40G.String() != "40Gb/s" {
		t.Errorf("Rate40G = %q", Rate40G.String())
	}
	if Rate2_5G.String() != "2.5Gb/s" {
		t.Errorf("Rate2_5G = %q", Rate2_5G.String())
	}
	if Rate10G.GbpsF() != 10 {
		t.Errorf("GbpsF = %v", Rate10G.GbpsF())
	}
}

func TestTransmitTime(t *testing.T) {
	cases := []struct {
		rate Rate
		n    int
		want sim.Time
	}{
		{Rate40G, 1, 200 * sim.Picosecond},       // 8 bits at 40G = 200 ps
		{Rate40G, 2048, 409600 * sim.Picosecond}, // 2 KiB packet ~ 410 ns
		{Rate2_5G, 1, 3200 * sim.Picosecond},     // 16x slower than 40G
		{Rate10G, 1250, sim.Microsecond},         // 10000 bits at 10G = 1 us
	}
	for _, c := range cases {
		if got := c.rate.TransmitTime(c.n); got != c.want {
			t.Errorf("TransmitTime(%v, %d) = %v, want %v", c.rate, c.n, got, c.want)
		}
	}
}

func TestTransmitTimeScalesInversely(t *testing.T) {
	// Halving the rate doubles the time, for every ladder step.
	l := DefaultLadder()
	n := 4096
	for i := 1; i < len(l); i++ {
		slow := l[i-1].TransmitTime(n)
		fast := l[i].TransmitTime(n)
		if slow != 2*fast {
			t.Errorf("rate %v->%v: %v vs %v, want exact 2x", l[i-1], l[i], slow, fast)
		}
	}
}

// TestChannelTransmitTime checks the channel's stored transmit factor
// against Rate.TransmitTime for sizes 1 to 65,536 bytes, after every
// call that writes the rate: Init, SetRate, PowerOn and SetRateCap, on
// every rung of the default ladder and of one reaching down to 1 Mb/s.
func TestChannelTransmitTime(t *testing.T) {
	ladders := []RateLadder{
		DefaultLadder(),
		{1_000_000, 3_000_000, 100_000_000, 1_000_000_007, 7 * Gbps, 100 * Gbps},
	}
	for _, l := range ladders {
		c := MustChannel("c", l)
		check := func(after string) {
			t.Helper()
			for n := 1; n <= 65536; n++ {
				if got, want := c.TransmitTime(n), c.Rate().TransmitTime(n); got != want {
					t.Fatalf("after %s at %v: TransmitTime(%d) = %v, want %v", after, c.Rate(), n, got, want)
				}
			}
		}
		check("Init")
		now := sim.Time(0)
		for _, r := range l {
			// Each step below moves the rate unless r is the top rung.
			now += sim.Microsecond
			c.SetRate(now, r, 0)
			check("SetRate")
			c.PowerOff(now)
			c.PowerOn(now, l.Max(), 0)
			check("PowerOn")
			c.SetRateCap(now, r, 0)
			check("SetRateCap")
			c.SetRateCap(now, 0, 0)
			c.SetRate(now, l.Max(), 0)
			c.PowerOff(now)
			c.SetRateCap(now, r, 0)
			c.PowerOn(now, l.Max(), 0)
			check("PowerOn under a cap")
			c.SetRateCap(now, 0, 0)
		}
	}
}

func TestLadder(t *testing.T) {
	l := DefaultLadder()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Min() != Rate2_5G || l.Max() != Rate40G {
		t.Fatalf("ladder bounds %v..%v", l.Min(), l.Max())
	}
	if l.Down(Rate2_5G) != Rate2_5G {
		t.Error("Down saturates at minimum")
	}
	if l.Up(Rate40G) != Rate40G {
		t.Error("Up saturates at maximum")
	}
	if l.Down(Rate40G) != Rate20G || l.Up(Rate10G) != Rate20G {
		t.Error("Up/Down neighbors wrong")
	}
	if l.Index(Rate10G) != 2 || l.Index(Rate(1)) != -1 {
		t.Error("Index wrong")
	}
}

func TestLadderValidation(t *testing.T) {
	if err := (RateLadder{}).Validate(); err == nil {
		t.Error("empty ladder accepted")
	}
	if err := (RateLadder{Rate10G, Rate5G}).Validate(); err == nil {
		t.Error("non-increasing ladder accepted")
	}
	if err := (RateLadder{0, Rate5G}).Validate(); err == nil {
		t.Error("zero rate accepted")
	}
	if err := (RateLadder{Rate5G, Rate5G}).Validate(); err == nil {
		t.Error("duplicate rate accepted")
	}
}

// TestInfiniBandTable2 checks the rate modes of the paper's Table 2.
func TestInfiniBandTable2(t *testing.T) {
	modes := InfiniBandModes()
	want := map[Mode]Rate{
		{1, Rate2_5G}: Rate2_5G, // 1x SDR = 2.5
		{1, Rate5G}:   Rate5G,   // 1x DDR = 5
		{1, Rate10G}:  Rate10G,  // 1x QDR = 10
		{4, Rate2_5G}: Rate10G,  // 4x SDR = 10
		{4, Rate5G}:   Rate20G,  // 4x DDR = 20
		{4, Rate10G}:  Rate40G,  // 4x QDR = 40
	}
	if len(modes) != len(want) {
		t.Fatalf("%d modes, want %d", len(modes), len(want))
	}
	for _, m := range modes {
		if got := m.Total(); got != want[m] {
			t.Errorf("mode %dx %v = %v, want %v", m.Lanes, m.LaneRate, got, want[m])
		}
	}
	// 10G is realizable as 1x QDR or 4x SDR; prefer fewer lanes.
	m, ok := ModeFor(Rate10G, modes)
	if !ok || m.Lanes != 1 {
		t.Errorf("ModeFor(10G) = %+v ok=%v, want 1x QDR", m, ok)
	}
	if _, ok := ModeFor(Rate(3), modes); ok {
		t.Error("ModeFor(unrealizable) succeeded")
	}
}

func TestReactivationModel(t *testing.T) {
	m := DefaultReactivation()
	sdr1 := Mode{1, Rate2_5G}
	ddr1 := Mode{1, Rate5G}
	ddr4 := Mode{4, Rate5G}
	if got := m.Penalty(sdr1, sdr1); got != 0 {
		t.Errorf("same mode penalty = %v, want 0", got)
	}
	if got := m.Penalty(sdr1, ddr1); got != m.CDRLock {
		t.Errorf("rate-only change penalty = %v, want CDR lock %v", got, m.CDRLock)
	}
	if got := m.Penalty(ddr1, ddr4); got != m.LaneChange {
		t.Errorf("lane change penalty = %v, want %v", got, m.LaneChange)
	}
}

func TestChannelLifecycle(t *testing.T) {
	c := MustChannel("test", DefaultLadder())
	if c.Rate() != Rate40G {
		t.Fatalf("initial rate %v, want max", c.Rate())
	}
	if c.State(0) != Active {
		t.Fatalf("initial state %v", c.State(0))
	}
	// Transmit 1000 bytes at t=0.
	done := c.StartTransmit(0, 1000)
	if done != Rate40G.TransmitTime(1000) {
		t.Fatalf("done = %v", done)
	}
	avail, ok := c.AvailableAt(0)
	if !ok || avail != done {
		t.Fatalf("AvailableAt = %v,%v want %v", avail, ok, done)
	}
	// Reconfigure down at the completion time with 1us reactivation.
	c.SetRate(done, Rate20G, sim.Microsecond)
	if c.State(done) != Reconfiguring {
		t.Fatalf("state after SetRate = %v", c.State(done))
	}
	if c.State(done+sim.Microsecond) != Active {
		t.Fatalf("state after reactivation = %v", c.State(done+sim.Microsecond))
	}
	avail, ok = c.AvailableAt(done)
	if !ok || avail != done+sim.Microsecond {
		t.Fatalf("AvailableAt during reconfig = %v", avail)
	}
	// Transmit after reactivation at the new rate.
	start := avail
	done2 := c.StartTransmit(start, 1000)
	if done2-start != Rate20G.TransmitTime(1000) {
		t.Fatalf("second transmit took %v", done2-start)
	}
	if c.TotalBytes() != 2000 || c.TotalPackets() != 2 {
		t.Fatalf("totals: %d bytes %d pkts", c.TotalBytes(), c.TotalPackets())
	}
}

func TestChannelEpochUtilization(t *testing.T) {
	c := MustChannel("u", DefaultLadder())
	epoch := 10 * sim.Microsecond
	// 40G for 10us can carry 50000 bytes; send 25000: busy 5us of 10us.
	c.StartTransmit(0, 25000)
	got := c.EpochUtilization(epoch)
	if got < 0.499 || got > 0.501 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	c.ResetEpoch(epoch)
	if c.EpochBytes() != 0 {
		t.Fatal("ResetEpoch did not clear")
	}
	if got := c.EpochUtilization(2 * epoch); got != 0 {
		t.Fatalf("utilization after reset = %v", got)
	}
	if c.EpochUtilization(0) != 0 {
		t.Error("zero window should be 0")
	}
}

// A transmission straddling an epoch boundary contributes only its
// overlap to each epoch, so utilization never exceeds 1 and slow links
// are not starved of signal.
func TestChannelEpochUtilizationStraddle(t *testing.T) {
	c := MustChannel("s", DefaultLadder())
	c.SetRate(0, Rate2_5G, 0)
	// 2048 bytes at 2.5G = 6.5536us, crossing several 1us epochs.
	c.StartTransmit(0, 2048)
	epoch := sim.Microsecond
	for i := sim.Time(1); i <= 6; i++ {
		got := c.EpochUtilization(i * epoch)
		if got < 0.999 || got > 1.001 {
			t.Fatalf("epoch %d utilization = %v, want 1.0", i, got)
		}
		c.ResetEpoch(i * epoch)
	}
	// Epoch 7 covers only the final 0.5536us of the transmission.
	got := c.EpochUtilization(7 * epoch)
	if got < 0.55 || got > 0.56 {
		t.Fatalf("final epoch utilization = %v, want ~0.554", got)
	}
}

func TestChannelOccupancy(t *testing.T) {
	c := MustChannel("o", DefaultLadder())
	// 0-10us at 40G, then reconfigure (1us) to 2.5G, run to 20us, off to 30us.
	c.SetRate(10*sim.Microsecond, Rate2_5G, sim.Microsecond)
	c.PowerOff(20 * sim.Microsecond)
	occ := c.Occupancy(30 * sim.Microsecond)
	if occ.Total != 30*sim.Microsecond {
		t.Fatalf("total = %v", occ.Total)
	}
	// The row is indexed by rung: 2.5G first, 40G last.
	us := sim.Microsecond
	if want := []sim.Time{10 * us, 0, 0, 0, 10 * us}; !reflect.DeepEqual(occ.AtRate, want) {
		t.Errorf("AtRate = %v, want %v (2.5G incl. reactivation)", occ.AtRate, want)
	}
	if !reflect.DeepEqual(occ.Ladder, DefaultLadder()) {
		t.Errorf("Ladder = %v", occ.Ladder)
	}
	if occ.Off != 10*us {
		t.Errorf("off = %v, want 10us", occ.Off)
	}
	if f := occ.OffFraction(); f < 0.333 || f > 0.334 {
		t.Errorf("OffFraction = %v", f)
	}

	// Add aggregates channel-time across channels, as Figure 7 does.
	t.Run("Add", func(t *testing.T) {
		var agg Occupancy
		if agg.OffFraction() != 0 {
			t.Error("empty aggregate OffFraction not 0")
		}
		l := DefaultLadder()
		agg.Add(MustChannel("idle", l).Occupancy(0)) // no row yet
		agg.Add(Occupancy{Ladder: l, AtRate: []sim.Time{30, 0, 0, 0, 10}, Total: 40})
		agg.Add(Occupancy{Ladder: l, AtRate: []sim.Time{50, 0, 0, 0, 0}, Off: 10, Total: 60})
		if want := []sim.Time{80, 0, 0, 0, 10}; !reflect.DeepEqual(agg.AtRate, want) {
			t.Errorf("aggregate AtRate = %v, want %v", agg.AtRate, want)
		}
		if agg.Total != 100 || agg.Off != 10 {
			t.Errorf("aggregate Total, Off = %v, %v, want 100, 10", agg.Total, agg.Off)
		}
		if got := agg.OffFraction(); got != 0.1 {
			t.Errorf("aggregate OffFraction = %v, want 0.1", got)
		}
	})
}

// occSink keeps the allocation tests' occupancies alive.
var occSink Occupancy

// TestChannelAccountingAllocs pins that a channel allocates its
// time-at-rate row once: retuning over the ladder, a power cycle and an
// accounting reset reuse it, and Occupancy allocates only its copy.
func TestChannelAccountingAllocs(t *testing.T) {
	c := MustChannel("a", DefaultLadder())
	now := sim.Time(0)
	next := func() sim.Time { now += sim.Microsecond; return now }
	c.SetRate(next(), Rate2_5G, 0) // the first slice allocates the row
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range c.Ladder() {
			c.SetRate(next(), r, 0)
		}
		c.PowerOff(next())
		c.PowerOn(next(), Rate2_5G, 0)
		c.ResetAccounting(next())
	})
	if allocs != 0 {
		t.Errorf("retune, power cycle and reset allocate %v per round, want 0", allocs)
	}
	if a := testing.AllocsPerRun(100, func() { occSink = c.Occupancy(next()) }); a > 1 {
		t.Errorf("Occupancy allocates %v, want only its row", a)
	}
}

func TestChannelPowerCycle(t *testing.T) {
	c := MustChannel("p", DefaultLadder())
	c.PowerOff(sim.Microsecond)
	if _, ok := c.AvailableAt(sim.Microsecond); ok {
		t.Fatal("off channel reported available")
	}
	if c.State(sim.Microsecond) != Off {
		t.Fatal("state not off")
	}
	// Double off is a no-op.
	c.PowerOff(2 * sim.Microsecond)
	c.PowerOn(3*sim.Microsecond, Rate10G, sim.Microsecond)
	if c.Rate() != Rate10G {
		t.Fatalf("rate after PowerOn = %v", c.Rate())
	}
	if c.State(3*sim.Microsecond) != Reconfiguring {
		t.Fatal("PowerOn should pay reactivation")
	}
	// PowerOn on an on channel is a no-op.
	c.PowerOn(5*sim.Microsecond, Rate40G, 0)
	if c.Rate() != Rate10G {
		t.Fatal("PowerOn on active channel changed rate")
	}
	occ := c.Occupancy(10 * sim.Microsecond)
	if occ.Off != 2*sim.Microsecond {
		t.Errorf("off time = %v, want 2us", occ.Off)
	}
}

func TestChannelMeanUtilization(t *testing.T) {
	c := MustChannel("m", DefaultLadder())
	// 50000 bytes in 10us at 40G max = 100% => send 5000 bytes = 10%.
	c.StartTransmit(0, 5000)
	got := c.MeanUtilization(10 * sim.Microsecond)
	if got < 0.099 || got > 0.101 {
		t.Fatalf("MeanUtilization = %v, want 0.10", got)
	}
	if c.MeanUtilization(0) != 0 {
		t.Error("zero time utilization should be 0")
	}
}

func TestChannelSetRateNoopAndPanic(t *testing.T) {
	c := MustChannel("n", DefaultLadder())
	c.SetRate(0, Rate40G, sim.Microsecond) // same rate, active: no-op
	if c.State(0) != Active {
		t.Fatal("no-op SetRate entered reconfiguration")
	}
	defer func() {
		if recover() == nil {
			t.Error("off-ladder rate did not panic")
		}
	}()
	c.SetRate(0, Rate(1234), 0)
}

func TestChannelTransmitBeforeAvailablePanics(t *testing.T) {
	c := MustChannel("x", DefaultLadder())
	c.StartTransmit(0, 1000)
	defer func() {
		if recover() == nil {
			t.Error("overlapping transmit did not panic")
		}
	}()
	c.StartTransmit(0, 1000)
}

// Property: occupancy always sums exactly to elapsed time, across random
// sequences of rate changes and power cycles.
func TestChannelOccupancyConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := MustChannel("prop", DefaultLadder())
		now := sim.Time(0)
		for _, op := range ops {
			now += sim.Time(op%97+1) * sim.Nanosecond
			switch op % 5 {
			case 0:
				c.SetRate(now, DefaultLadder()[op%5], sim.Time(op%3)*sim.Nanosecond)
			case 1:
				c.PowerOff(now)
			case 2:
				c.PowerOn(now, Rate10G, sim.Nanosecond)
			case 3:
				if at, ok := c.AvailableAt(now); ok {
					now = at
					c.StartTransmit(now, int(op)+1)
				}
			case 4:
				c.SetRate(now, DefaultLadder()[(op/5)%5], 0)
			}
		}
		end := now + sim.Microsecond
		occ := c.Occupancy(end)
		return occ.Total == end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChannelResetAccounting(t *testing.T) {
	c := MustChannel("r", DefaultLadder())
	c.StartTransmit(0, 10000)
	c.SetRate(10*sim.Microsecond, Rate10G, sim.Microsecond)
	c.ResetAccounting(20 * sim.Microsecond)
	if c.AccountedSince() != 20*sim.Microsecond {
		t.Fatalf("AccountedSince = %v", c.AccountedSince())
	}
	if c.TotalBytes() != 0 || c.TotalPackets() != 0 {
		t.Fatal("counters not cleared")
	}
	occ := c.Occupancy(30 * sim.Microsecond)
	if occ.Total != 10*sim.Microsecond {
		t.Fatalf("post-reset occupancy total = %v, want 10us", occ.Total)
	}
	if at := occ.AtRate[DefaultLadder().Index(Rate10G)]; at != 10*sim.Microsecond {
		t.Fatalf("post-reset time at 10G = %v", at)
	}
	// MeanUtilization measures only the post-reset window: 10G for 10us,
	// send 12500 bytes = 100us*... 12500B*8 = 100000 bits over
	// 40G*10us = 400000 bit capacity -> 0.25.
	avail, _ := c.AvailableAt(30 * sim.Microsecond)
	c.StartTransmit(avail, 12500)
	got := c.MeanUtilization(c.AccountedSince() + 10*sim.Microsecond)
	if got < 0.24 || got > 0.26 {
		t.Fatalf("MeanUtilization = %v, want 0.25", got)
	}
}
