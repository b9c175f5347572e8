// Package link models plesiochronous high-speed channels: serialized
// multi-lane links whose data rate (lane count x per-lane rate) can be
// reconfigured at runtime, at the cost of a reactivation period during
// which the channel carries no data (§3.1 of the paper).
//
// A Channel is one unidirectional half of a physical link. It tracks its
// current rate, its reconfiguration state machine, and a time-weighted
// account of how long it has spent at every rate — the raw data behind
// the paper's Figures 7 and 8.
package link

import (
	"fmt"

	"epnet/internal/sim"
)

// Rate is a link data rate in bits per second.
type Rate int64

// Standard InfiniBand-style rates (Table 2 of the paper). The evaluation
// uses the five-step ladder 2.5 -> 5 -> 10 -> 20 -> 40 Gb/s.
const (
	Gbps Rate = 1_000_000_000

	Rate2_5G Rate = 2_500_000_000  // 1x SDR
	Rate5G   Rate = 5_000_000_000  // 1x DDR
	Rate10G  Rate = 10_000_000_000 // 1x QDR / 4x SDR
	Rate20G  Rate = 20_000_000_000 // 4x DDR
	Rate40G  Rate = 40_000_000_000 // 4x QDR
)

// String formats a rate in Gb/s.
func (r Rate) String() string {
	g := float64(r) / float64(Gbps)
	return fmt.Sprintf("%gGb/s", g)
}

// Gbps returns the rate as a floating point number of Gb/s.
func (r Rate) GbpsF() float64 { return float64(r) / float64(Gbps) }

// TransmitTime returns the serialization time of n bytes at rate r.
func (r Rate) TransmitTime(n int) sim.Time {
	if r <= 0 {
		panic(fmt.Sprintf("link: transmit at non-positive rate %d", r))
	}
	return transmitTime(n, r.kbitTime())
}

// kbitTime returns the serialization time of 1,000 bits at rate r, in
// ps: 1e12 ps/s over r/1000 kbit/s.
func (r Rate) kbitTime() sim.Time { return sim.Time(1_000_000_000_000 / int64(r/1000)) }

// transmitTime scales kbitTime to n bytes: n*8 * 1e12 / r, reordered
// as n*8 * kbitTime / 1000 to avoid overflow; n up to ~1e9 is safe in
// int64.
func transmitTime(n int, kbitTime sim.Time) sim.Time {
	return sim.Time(int64(n) * 8 * int64(kbitTime) / 1000)
}

// RateLadder is the ordered set of rates a channel can operate at.
type RateLadder []Rate

// DefaultLadder is the evaluation ladder of §4.1: 40 Gb/s maximum,
// detunable to 20, 10, 5 and 2.5 Gb/s.
func DefaultLadder() RateLadder {
	return RateLadder{Rate2_5G, Rate5G, Rate10G, Rate20G, Rate40G}
}

// Validate checks that the ladder is non-empty, strictly increasing and
// all-positive.
func (l RateLadder) Validate() error {
	if len(l) == 0 {
		return fmt.Errorf("link: empty rate ladder")
	}
	for i, r := range l {
		if r <= 0 {
			return fmt.Errorf("link: non-positive rate %d in ladder", r)
		}
		if i > 0 && l[i-1] >= r {
			return fmt.Errorf("link: ladder not strictly increasing at index %d", i)
		}
	}
	return nil
}

// Min and Max return the slowest and fastest rates of the ladder.
func (l RateLadder) Min() Rate { return l[0] }
func (l RateLadder) Max() Rate { return l[len(l)-1] }

// Index returns the position of r in the ladder, or -1.
func (l RateLadder) Index(r Rate) int {
	for i, v := range l {
		if v == r {
			return i
		}
	}
	return -1
}

// Down returns the next rate below r (or r itself at the minimum).
func (l RateLadder) Down(r Rate) Rate {
	i := l.Index(r)
	if i < 0 {
		panic(fmt.Sprintf("link: rate %v not on ladder", r))
	}
	if i == 0 {
		return r
	}
	return l[i-1]
}

// Up returns the next rate above r (or r itself at the maximum).
func (l RateLadder) Up(r Rate) Rate {
	i := l.Index(r)
	if i < 0 {
		panic(fmt.Sprintf("link: rate %v not on ladder", r))
	}
	if i == len(l)-1 {
		return r
	}
	return l[i+1]
}

// State is the operational state of a channel.
type State uint8

const (
	// Active: the channel is carrying (or ready to carry) data.
	Active State = iota
	// Reconfiguring: the channel is re-locking CDR / retraining lanes
	// after a rate change and cannot carry data.
	Reconfiguring
	// Off: the channel is powered down (dynamic topologies, §5.1).
	Off
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Reconfiguring:
		return "reconfiguring"
	case Off:
		return "off"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Mode describes how a rate is realized as lanes x per-lane signaling,
// mirroring InfiniBand's 1x/4x SDR/DDR/QDR modes (Table 2). The
// reactivation penalty differs: a pure signaling-rate change only
// re-locks the receive CDR (~50-100 ns) while changing the number of
// active lanes takes microseconds (§3.1).
type Mode struct {
	Lanes    int
	LaneRate Rate
}

// Total returns the aggregate data rate of the mode.
func (m Mode) Total() Rate { return Rate(int64(m.Lanes) * int64(m.LaneRate)) }

// InfiniBandModes returns the modes of Table 2 that realize the default
// ladder: 1x SDR/DDR/QDR and 4x SDR/DDR/QDR.
func InfiniBandModes() []Mode {
	return []Mode{
		{1, Rate2_5G}, // 1x SDR
		{1, Rate5G},   // 1x DDR
		{1, Rate10G},  // 1x QDR
		{4, Rate2_5G}, // 4x SDR
		{4, Rate5G},   // 4x DDR
		{4, Rate10G},  // 4x QDR
	}
}

// ModeFor picks the preferred mode realizing rate r: the fewest lanes
// (lower power) among modes whose total matches.
func ModeFor(r Rate, modes []Mode) (Mode, bool) {
	var best Mode
	found := false
	for _, m := range modes {
		if m.Total() != r {
			continue
		}
		if !found || m.Lanes < best.Lanes {
			best = m
			found = true
		}
	}
	return best, found
}

// ReactivationModel computes the reactivation time for a mode change.
type ReactivationModel struct {
	// CDRLock is the penalty when only the signaling rate changes
	// (digital CDR re-lock, ~50-100 ns per §3.1).
	CDRLock sim.Time
	// LaneChange is the penalty when the number of active lanes changes
	// (lane retraining, on the order of microseconds).
	LaneChange sim.Time
}

// DefaultReactivation returns the paper's conservative defaults: a flat
// 1 us is used in the evaluation "no matter what mode the link is
// entering"; the detailed model exposes the 100 ns CDR-only path used
// in the sensitivity discussion.
func DefaultReactivation() ReactivationModel {
	return ReactivationModel{
		CDRLock:    100 * sim.Nanosecond,
		LaneChange: 1 * sim.Microsecond,
	}
}

// Penalty returns the reactivation time for switching between two modes.
func (m ReactivationModel) Penalty(from, to Mode) sim.Time {
	if from == to {
		return 0
	}
	if from.Lanes == to.Lanes {
		return m.CDRLock
	}
	return m.LaneChange
}

// Occupancy is a time-weighted account of channel state: how long the
// channel spent at each rate (while Active or Reconfiguring toward that
// rate) and how long it was Off. AtRate[i] is the time at Ladder[i], so
// walking AtRate visits the rates in ascending order. AtRate may be nil
// when no time was spent at any rate.
type Occupancy struct {
	Ladder RateLadder
	AtRate []sim.Time
	Off    sim.Time
	Total  sim.Time
}

// Add folds p into o, which then aggregates channel-time across
// channels: the data behind the paper's Figure 7. Every occupancy added
// must share one ladder.
func (o *Occupancy) Add(p Occupancy) {
	if o.Ladder == nil {
		o.Ladder = p.Ladder
		o.AtRate = make([]sim.Time, len(p.Ladder))
	}
	for i, t := range p.AtRate {
		o.AtRate[i] += t
	}
	o.Off += p.Off
	o.Total += p.Total
}

// OffFraction returns the share of total time spent powered off.
func (o Occupancy) OffFraction() float64 {
	if o.Total == 0 {
		return 0
	}
	return float64(o.Off) / float64(o.Total)
}

// Channel is one unidirectional half of a physical link. It is a passive
// model object: the fabric drives it (transmission occupancy) and the
// energy-proportional controller reconfigures it. All methods take the
// current simulation time explicitly so the channel composes with any
// scheduler.
//
// The fields a transmission reads and writes (AvailableAt,
// TransmitTime, StartTransmit) come first, in the leading 72 bytes, so
// a container that holds the channel by value can place them in the
// same cache lines as its own per-packet state. A Channel must not be
// copied once in use: go vet's copylocks check flags a copy.
type Channel struct {
	noCopy noCopy

	state State
	// kbitTime is rate.kbitTime(), refreshed with every write of rate,
	// so a send costs no 64-bit division.
	kbitTime sim.Time
	// reconfigUntil is when the current reactivation completes.
	reconfigUntil sim.Time
	// busyUntil is when the in-flight transmission completes.
	busyUntil sim.Time

	// Busy-time accounting. Utilization is measured as the fraction of
	// epoch time the channel spent serializing bits, which pro-rates
	// transmissions that straddle epoch boundaries (a 2 KB packet at
	// 2.5 Gb/s takes 6.5 us — longer than a short epoch).
	busyBase         sim.Time // completed transmissions' total busy time
	curStart, curEnd sim.Time // the in-flight (or last) transmission

	totalBytes   int64
	totalPackets int64

	rate Rate

	// Identity, for reports.
	Name string

	ladder RateLadder

	// cap, when non-zero, pins the channel at or below this rate: a
	// degraded lane keeps the SerDes from training its full mode
	// (fault injection). SetRate and PowerOn clamp against it.
	cap Rate

	// Accounting.
	lastChange     sim.Time
	accountedSince sim.Time
	atRate         []sim.Time // indexed by ladder rung
	offTime        sim.Time

	// Epoch accounting: the busy time and the byte count at the last
	// ResetEpoch, and when it ran.
	epochBusyMark  sim.Time
	epochBytesMark int64
	epochResetAt   sim.Time
}

// noCopy is a zero-size field whose pointer methods make go vet's
// copylocks check report a copied Channel.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewChannel creates an Active channel at the ladder's maximum rate.
func NewChannel(name string, ladder RateLadder) (*Channel, error) {
	if err := ladder.Validate(); err != nil {
		return nil, err
	}
	c := &Channel{Name: name}
	c.Init(ladder)
	return c, nil
}

// Init initializes c in place as an Active channel at the ladder's
// maximum rate — the value-type counterpart of NewChannel for callers
// that keep channels in dense backing arrays (one allocation for the
// whole fabric instead of one per channel). The ladder must already be
// validated; a fabric validates its shared ladder once. Any prior state
// of c except Name is discarded; the time-at-rate row is allocated
// lazily by the first accounting slice, so an untouched channel costs
// exactly its struct size.
func (c *Channel) Init(ladder RateLadder) {
	*c = Channel{
		Name:   c.Name,
		ladder: ladder,
		state:  Active,
	}
	c.setRate(ladder.Max())
}

// setRate writes the rate and its transmit factor together.
func (c *Channel) setRate(r Rate) { c.rate, c.kbitTime = r, r.kbitTime() }

// MustChannel is NewChannel that panics on error.
func MustChannel(name string, ladder RateLadder) *Channel {
	c, err := NewChannel(name, ladder)
	if err != nil {
		panic(err)
	}
	return c
}

// Ladder returns the channel's rate ladder.
func (c *Channel) Ladder() RateLadder { return c.ladder }

// Rate returns the current configured rate. During reconfiguration this
// is the rate being configured.
func (c *Channel) Rate() Rate { return c.rate }

// State returns the current operational state at time now, folding in
// any reactivation that has completed.
func (c *Channel) State(now sim.Time) State {
	if c.state == Reconfiguring && now >= c.reconfigUntil {
		return Active
	}
	return c.state
}

// account closes the time slice since lastChange against the current
// rate/state.
func (c *Channel) account(now sim.Time) {
	dt := now - c.lastChange
	if dt < 0 {
		panic(fmt.Sprintf("link %s: time went backwards (%v -> %v)", c.Name, c.lastChange, now))
	}
	if dt == 0 {
		c.lastChange = now
		return
	}
	if c.state == Off {
		c.offTime += dt
	} else {
		// Reconfiguration time is charged at the target rate, a
		// conservative choice: the SerDes is powered while re-locking.
		// The row is lazy: channels that never close an accounting slice
		// (idle links in a fabric of hundreds of thousands) never pay
		// for it.
		if c.atRate == nil {
			c.atRate = make([]sim.Time, len(c.ladder))
		}
		c.atRate[c.ladder.Index(c.rate)] += dt
	}
	c.lastChange = now
}

// SetRate reconfigures the channel to rate r, entering Reconfiguring for
// the given reactivation time. It is a no-op when the rate is unchanged
// and the channel is active. Setting a rate on an Off channel powers it
// back on (also paying the reactivation time).
func (c *Channel) SetRate(now sim.Time, r Rate, reactivation sim.Time) {
	if c.ladder.Index(r) < 0 {
		panic(fmt.Sprintf("link %s: rate %v not on ladder", c.Name, r))
	}
	r = c.ClampRate(r)
	if c.state != Off && c.rate == r && c.State(now) == Active {
		return
	}
	c.account(now)
	c.setRate(r)
	c.state = Reconfiguring
	c.reconfigUntil = now + reactivation
	if reactivation == 0 {
		c.state = Active
	}
	// An in-flight transmission is abandoned by reconfiguration only in
	// the sense that the channel cannot start a new one; the fabric
	// serializes SetRate after transmission completion, and we defend
	// against overlap by extending availability.
	if c.busyUntil < c.reconfigUntil {
		c.busyUntil = c.reconfigUntil
	}
}

// PowerOff powers the channel down (dynamic topologies, §5.1).
func (c *Channel) PowerOff(now sim.Time) {
	if c.state == Off {
		return
	}
	c.account(now)
	c.state = Off
}

// PowerOn powers the channel back up at rate r, paying reactivation.
func (c *Channel) PowerOn(now sim.Time, r Rate, reactivation sim.Time) {
	if c.state != Off {
		return
	}
	c.account(now)
	c.state = Active
	c.setRate(c.ClampRate(r))
	if reactivation > 0 {
		c.state = Reconfiguring
		c.reconfigUntil = now + reactivation
		if c.busyUntil < c.reconfigUntil {
			c.busyUntil = c.reconfigUntil
		}
	}
}

// SetRateCap limits the channel to rates at or below cap — a degraded
// lane pinning the SerDes below its full mode. cap must be on the
// ladder; cap 0 removes the limit. An Active channel running above a
// new cap is immediately retuned down to it, paying reactivation; an
// Off channel just remembers the cap for its next PowerOn. Raising or
// clearing the cap never retunes by itself — the rate controller (or
// RestoreRate) decides when to climb back.
func (c *Channel) SetRateCap(now sim.Time, cap Rate, reactivation sim.Time) {
	if cap != 0 && c.ladder.Index(cap) < 0 {
		panic(fmt.Sprintf("link %s: rate cap %v not on ladder", c.Name, cap))
	}
	c.cap = cap
	if cap != 0 && c.state != Off && c.rate > cap {
		c.SetRate(now, cap, reactivation)
	}
}

// RateCap returns the current rate cap (0 = uncapped).
func (c *Channel) RateCap() Rate { return c.cap }

// ClampRate returns r limited to the channel's rate cap: the largest
// ladder rate <= cap when r exceeds it, else r unchanged.
func (c *Channel) ClampRate(r Rate) Rate {
	if c.cap == 0 || r <= c.cap {
		return r
	}
	best := c.ladder.Min()
	for _, v := range c.ladder {
		if v <= c.cap && v > best {
			best = v
		}
	}
	return best
}

// AvailableAt returns the earliest time >= now at which the channel can
// begin a new transmission: after any reactivation and any in-flight
// packet. Off channels are never available; the second result is false.
func (c *Channel) AvailableAt(now sim.Time) (sim.Time, bool) {
	if c.state == Off {
		return 0, false
	}
	t := now
	if c.state == Reconfiguring && c.reconfigUntil > t {
		t = c.reconfigUntil
	}
	if c.busyUntil > t {
		t = c.busyUntil
	}
	return t, true
}

// ReconfigUntil returns the deadline of an in-progress reactivation, or
// zero when the channel is not reconfiguring at now. It lets callers
// split a wait reported by AvailableAt into its retune portion
// (now..reconfigUntil) and its serialization-busy remainder.
func (c *Channel) ReconfigUntil(now sim.Time) sim.Time {
	if c.state == Reconfiguring && c.reconfigUntil > now {
		return c.reconfigUntil
	}
	return 0
}

// TransmitTime returns the serialization time of n bytes at the
// channel's current rate: Rate().TransmitTime(n) without the division.
func (c *Channel) TransmitTime(n int) sim.Time { return transmitTime(n, c.kbitTime) }

// StartTransmit begins transmitting n bytes at time start (which must be
// >= the channel's available time) and returns the completion time.
func (c *Channel) StartTransmit(start sim.Time, n int) sim.Time {
	avail, ok := c.AvailableAt(start)
	if !ok {
		panic(fmt.Sprintf("link %s: transmit on powered-off channel", c.Name))
	}
	if start < avail {
		panic(fmt.Sprintf("link %s: transmit at %v before available %v", c.Name, start, avail))
	}
	if c.state == Reconfiguring {
		// Reactivation has completed (start >= reconfigUntil).
		c.state = Active
	}
	done := start + c.TransmitTime(n)
	c.busyUntil = done
	c.busyBase += c.curEnd - c.curStart
	c.curStart, c.curEnd = start, done
	c.totalBytes += int64(n)
	c.totalPackets++
	return done
}

// busyUpTo returns the cumulative transmission (busy) time through t.
func (c *Channel) busyUpTo(t sim.Time) sim.Time {
	b := c.busyBase
	if end := min(c.curEnd, t); end > c.curStart {
		b += end - c.curStart
	}
	return b
}

// BusyTime returns the cumulative transmission (busy) time through
// now, monotonically increasing over the channel's whole life — it is
// deliberately NOT reset by ResetAccounting, so interval deltas taken
// across the warmup boundary (the utilization heatmap's cells) stay
// well defined.
func (c *Channel) BusyTime(now sim.Time) sim.Time { return c.busyUpTo(now) }

func min(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

// EpochUtilization returns the channel utilization over the epoch that
// ran from the last ResetEpoch to now: the fraction of that window the
// channel spent serializing bits. Transmissions straddling the epoch
// boundary contribute only their overlap, so utilization is always in
// [0, 1]. This is exactly the signal the paper's heuristic consumes: "if
// we have data to send, and credits to send it, then the utilization
// will go up" (§3.3).
func (c *Channel) EpochUtilization(now sim.Time) float64 {
	window := now - c.epochResetAt
	if window <= 0 {
		return 0
	}
	busy := c.busyUpTo(now) - c.epochBusyMark
	return float64(busy) / float64(window)
}

// EpochBytes returns the bytes whose transmission started in the
// current epoch.
func (c *Channel) EpochBytes() int64 { return c.totalBytes - c.epochBytesMark }

// ResetEpoch starts a new utilization measurement epoch at time now.
func (c *Channel) ResetEpoch(now sim.Time) {
	c.epochBytesMark = c.totalBytes
	c.epochBusyMark = c.busyUpTo(now)
	c.epochResetAt = now
}

// TotalBytes returns the bytes ever transmitted on the channel.
func (c *Channel) TotalBytes() int64 { return c.totalBytes }

// TotalPackets returns the packets ever transmitted on the channel.
func (c *Channel) TotalPackets() int64 { return c.totalPackets }

// ResetAccounting zeroes the occupancy and lifetime counters at time
// now, so subsequent Occupancy/MeanUtilization calls measure only the
// post-reset (steady-state) window. The channel's rate and state are
// preserved.
func (c *Channel) ResetAccounting(now sim.Time) {
	c.account(now)
	clear(c.atRate)
	c.offTime = 0
	c.totalBytes = 0
	c.totalPackets = 0
	c.epochBytesMark = 0
	c.epochBusyMark = c.busyUpTo(now)
	c.epochResetAt = now
	c.accountedSince = now
}

// AccountedSince returns the time accounting last started (zero or the
// last ResetAccounting call).
func (c *Channel) AccountedSince() sim.Time { return c.accountedSince }

// Occupancy finalizes accounting at time now and returns the
// time-at-rate distribution.
func (c *Channel) Occupancy(now sim.Time) Occupancy {
	c.account(now)
	total := c.offTime
	for _, t := range c.atRate {
		total += t
	}
	return Occupancy{Ladder: c.ladder, AtRate: append([]sim.Time(nil), c.atRate...),
		Off: c.offTime, Total: total}
}

// MeanUtilization returns bytes since accounting began over the
// corresponding capacity at the maximum rate — the "average utilization"
// the paper compares against ideal energy proportionality.
func (c *Channel) MeanUtilization(now sim.Time) float64 {
	window := now - c.accountedSince
	if window <= 0 {
		return 0
	}
	bits := float64(c.totalBytes) * 8
	return bits / (float64(c.ladder.Max()) * window.Seconds())
}
