// Package fabric turns a static topology into a running network of
// simulated switches, hosts and plesiochronous channels.
//
// The model follows §4.1 of the paper: switches are input- and
// output-buffered with credit-based, cut-through flow control, and route
// adaptively on each hop based solely on output queue depth. One
// deliberate simplification (documented in DESIGN.md): switch-internal
// output queues are unbounded while input buffers are finite and
// credit-governed, which removes routing-deadlock hazards without
// virtual channels while preserving the congestion signal the adaptive
// routing and energy-proportional heuristics consume.
package fabric

import (
	"fmt"
	"math"
	"slices"

	"epnet/internal/link"
	"epnet/internal/parallel"
	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// Config holds the fabric's physical parameters.
type Config struct {
	// Ladder is the set of rates every channel supports.
	Ladder link.RateLadder
	// MaxPacket is the segmentation size for messages, bytes.
	MaxPacket int
	// InputBufBytes is the per-input-port buffer (credit pool) size.
	InputBufBytes int
	// RoutingDelay is the per-hop routing/arbitration latency.
	RoutingDelay sim.Time
	// WireDelay is the propagation delay of every channel.
	WireDelay sim.Time
	// CreditDelay is the latency of returning a credit upstream.
	CreditDelay sim.Time
	// Seed drives adaptive-routing tie-breaking.
	Seed int64

	// Shards splits the fabric across this many parallel event engines
	// advancing in conservative lockstep windows (see shard.go). 0 or 1
	// is the serial engine. Results are byte-identical across shard
	// counts for the same seed; Shards is capped at the switch count.
	Shards int
}

// DefaultConfig returns parameters representative of the paper's
// 40 Gb/s switch fabric.
func DefaultConfig() Config {
	return Config{
		Ladder:        link.DefaultLadder(),
		MaxPacket:     2048,
		InputBufBytes: 64 * 1024,
		RoutingDelay:  100 * sim.Nanosecond,
		WireDelay:     50 * sim.Nanosecond,
		CreditDelay:   50 * sim.Nanosecond,
		Seed:          1,
	}
}

// validate fills defaults and rejects nonsense.
func (c *Config) validate() error {
	if c.Ladder == nil {
		c.Ladder = link.DefaultLadder()
	}
	if err := c.Ladder.Validate(); err != nil {
		return err
	}
	if c.MaxPacket <= 0 {
		return fmt.Errorf("fabric: MaxPacket must be positive, got %d", c.MaxPacket)
	}
	if c.MaxPacket > math.MaxInt32 {
		return fmt.Errorf("fabric: MaxPacket %d does not fit a packet's 32-bit size", c.MaxPacket)
	}
	if c.InputBufBytes < c.MaxPacket {
		return fmt.Errorf("fabric: input buffer (%d) smaller than a packet (%d)",
			c.InputBufBytes, c.MaxPacket)
	}
	if c.RoutingDelay < 0 || c.WireDelay < 0 || c.CreditDelay < 0 {
		return fmt.Errorf("fabric: negative delay")
	}
	if c.Shards < 0 {
		return fmt.Errorf("fabric: negative Shards %d", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	return nil
}

// Chan is one directed channel of the fabric: a link.Channel plus the
// sender-side credit pool mirroring the downstream input buffer.
//
// Credits return without events. An arrival that frees input-buffer
// bytes appends a creditReturn to the channel's returning FIFO, keyed in
// the slot a credit-return event would have taken in the sender's
// engine. Entries at or before that engine's cut (sim.Engine.Cut) are
// due, and settle adds them to the pool when a reader needs them. Only
// a sender that blocks costs an event: one wake, in the slot of the
// first credit still returning.
//
// Chan is a flyweight: every Chan of a network, with the link.Channel
// it holds by value, is a value entry in one dense backing array
// (Network.chanArr), so a fabric's channel population costs one
// allocation. The record is 256 bytes, four whole cache lines. It leads
// with what the per-packet path touches: the credit FIFO, the shard
// wiring and the flags a send and an arrival read, then the link, whose
// own send-path fields come first, so a send reads the record's first
// two cache lines. The lane an arrival keys its credit return with sits
// in the last line, beside the destination the arrival reads there
// anyway. What a channel needs only sometimes lives outside it, indexed
// by idx: cold state (fault epochs, drop counters) in the parallel
// chanCold array, the tx_pkts counter in Network.mTx, and the network
// itself is reached through the shard runtime.
type Chan struct {
	// Sender-side credit state. credits is the pool, less the returning
	// credits not yet settled into it. Those form a FIFO linked through
	// the sender's shard slab (shardRT.credits) from retHead to retTail,
	// as slot+1, 0 when empty.
	credits          int64
	retHead, retTail int32

	// Shard wiring. Events a channel's traffic generates are keyed by
	// the scheduling entity's lane (src for arrivals/deliveries, dst for
	// the credit return) and land on the receiving entity's engine —
	// directly when sameShard, via the staging buffers otherwise.
	srcRT, dstRT *shardRT
	srcLane      *sim.Lane

	idx       int32 // position in Network.chans; trace thread id
	waiting   bool  // the sender is blocked awaiting credits
	wakeArmed bool  // a credit wake is queued in retHead's slot
	sameShard bool  // see the shard wiring above
	toSwitch  bool  // Dst is a switch, which routes the packet on

	L link.Channel

	dstLane  *sim.Lane // see the shard wiring above
	Src, Dst topo.Endpoint
}

// chanCold is the cold half of a channel's state, split out of Chan so
// the packet path only pulls credit/lane/link state into cache. It is
// touched on fault injection, drop accounting and reporting — never on
// the fault-free hot path (deliverAcross reads failEpoch only when
// faults are enabled).
type chanCold struct {
	// drops counts packets lost on this channel to injected faults.
	drops int64

	// failed marks a hard failure (distinct from a planned
	// dynamic-topology PowerOff); failEpoch increments on every failure
	// so already-scheduled arrival events can recognize packets that
	// were in flight when the channel died (see Packet.chEpoch).
	failed    bool
	failEpoch uint32
}

// creditReturn is a credit on its way back upstream: size bytes the
// sender may use from (at, key) on. The key is drawn from the receiving
// entity's lane at arrival, so the entry holds exactly the slot a
// credit-return event would take in the sender's engine. Entries live
// in the sender's shard slab; next links a channel's FIFO, or the
// slab's free list, as slot+1 (0 ends the list).
type creditReturn struct {
	at   sim.Time
	key  uint64
	size int64
	next int32
}

// settle adds to the pool every returning credit the sender's engine
// has passed: the entries at or before its cut, which credit events in
// their slots would already have returned. Like all credit state it is
// sender-side: it runs on the sender's shard, or on the control plane
// while every shard is quiescent.
func (c *Chan) settle() {
	rt := c.srcRT
	at, key := rt.eng.Cut()
	for c.retHead != 0 {
		slot := c.retHead
		r := &rt.credits[slot-1]
		if r.at > at || r.at == at && r.key > key {
			return
		}
		c.credits += r.size
		c.retHead = r.next
		r.next, rt.creditFree = rt.creditFree, slot
	}
	c.retTail = 0
}

// returnCredit queues size credits that reach the sender at (at, key).
// It runs on the sender's side: during the arrival when both ends share
// an engine, at the window barrier otherwise. A blocked sender with no
// wake queued gets one in this entry's slot.
func (c *Chan) returnCredit(at sim.Time, key uint64, size int64) {
	c.settle()
	rt := c.srcRT
	slot := rt.creditFree
	if slot != 0 {
		rt.creditFree = rt.credits[slot-1].next
		rt.credits[slot-1] = creditReturn{at: at, key: key, size: size}
	} else {
		if len(rt.credits) == cap(rt.credits) {
			// Double, as the engine's arrays do: append's growth would
			// leave about four slabs' worth of garbage.
			rt.credits = slices.Grow(rt.credits, len(rt.credits))
		}
		rt.credits = append(rt.credits, creditReturn{at: at, key: key, size: size})
		slot = int32(len(rt.credits))
	}
	if c.retTail != 0 {
		rt.credits[c.retTail-1].next = slot
	} else {
		c.retHead = slot
	}
	c.retTail = slot
	if c.waiting && !c.wakeArmed {
		c.armWake()
	}
}

// armWake queues the blocked sender's wake in the slot of the first
// credit still returning, so the sender resumes at the point of the
// event order where a credit-return event would have woken it.
func (c *Chan) armWake() {
	r := &c.srcRT.credits[c.retHead-1]
	c.wakeArmed = true
	c.srcRT.eng.PushKeyed(r.at, r.key, c.srcRT.net.fnCreditWake, c, 0)
}

// takeCredits consumes n credits if available. It settles due returns
// only when the pool looks short: a pool that covers n without them
// covers it with them. When even the settled pool is short the sender
// blocks: it is marked waiting, and its wake is queued at the first
// credit still returning, or by the next credit to return.
func (c *Chan) takeCredits(n int32) bool {
	if c.credits < int64(n) {
		c.settle()
		if c.credits < int64(n) {
			c.waiting = true
			if !c.wakeArmed && c.retHead != 0 {
				c.armWake()
			}
			return false
		}
	}
	c.credits -= int64(n)
	return true
}

// Credits returns the available credits, every due return settled
// (tests and diagnostics; sender-side, like settle).
func (c *Chan) Credits() int64 {
	c.settle()
	return c.credits
}

// Failed reports whether the channel is hard-failed (fault injection).
func (c *Chan) Failed() bool { return c.srcRT.net.chanCold[c.idx].failed }

// Drops returns packets lost on this channel to injected faults.
func (c *Chan) Drops() int64 { return c.srcRT.net.chanCold[c.idx].drops }

// Network is a simulated network instance bound to an event engine.
type Network struct {
	E   *sim.Engine
	T   topo.Topology
	R   routing.Router
	Cfg Config

	Switches []*Switch
	Hosts    []*Host

	chans []*Chan    // every directed channel
	pairs [][2]*Chan // both directions of each physical link

	// ladder is Cfg.Ladder prepared once and shared by every channel.
	ladder *link.Ladder

	// Dense entity storage (the flyweight layer). Every *Switch, *Host
	// and *Chan handed out by this network points into one of these
	// backing arrays — one allocation per entity kind instead of one per
	// entity. The arrays are sized exactly at construction and never
	// reallocated, so the pointer handles above (and everything the
	// packet hot path holds) stay valid for the network's lifetime.
	swArr    []Switch
	hostArr  []Host
	chanArr  []Chan
	chanCold []chanCold // cold per-channel state, indexed by Chan.idx

	// Shard runtimes (one for a serial network, holding the hot-path
	// accounting either way), the switch->shard assignment, and the
	// window coordinator (nil serially).
	rts     []*shardRT
	swShard []int
	group   *ShardGroup

	// prof, when set via SetProfiler, self-profiles the engine(s): wall
	// time per window, barrier waits, exchange volume. Fed only at
	// window/barrier granularity — nil or not, the per-packet path is
	// identical.
	prof *telemetry.EngineProfiler

	// flow, when set via SetFlowCollector, hash-samples packets at
	// injection and carries a hop log on each sampled packet. Nil — the
	// default — keeps the per-packet path to one pointer test per hook
	// and zero allocations.
	flow *telemetry.FlowCollector

	// OnDeliver, when set, observes every delivered packet. On a sharded
	// network it fires on the shard owning the destination host (see
	// HostShard) — shards run concurrently, so the callback must keep
	// per-shard state.
	OnDeliver func(p *Packet, now sim.Time)

	// OnMessageDone, when set before any injection, observes every
	// completed message (all of its packets delivered). Fires on the
	// destination host's shard, like OnDeliver.
	OnMessageDone func(msgID int64, src, dst int, inject, done sim.Time)

	// Pre-bound ArgEvent handlers for the per-packet events, created
	// once in New so scheduling them never allocates a closure. The
	// wake handlers (arg = the switch, host or channel, n = the port)
	// replace the per-port closures each switch used to carry: same
	// lane, same one key draw per scheduling, so event order is
	// untouched, but the fabric holds five closures instead of
	// radix·switches.
	fnDeliver    sim.ArgEvent
	fnArrive     sim.ArgEvent
	fnSwWake     sim.ArgEvent
	fnHostWake   sim.ArgEvent
	fnCreditWake sim.ArgEvent

	// Injection-side accounting. Injection happens on the control plane
	// only (single-threaded even when sharded), so these stay global;
	// delivery/drop counters live on the shard runtimes.
	nextPktID     int64
	nextMsgID     int64
	injectedPkts  int64
	injectedBytes int64

	// Fault accounting. faultsEnabled gates every fault check on the
	// packet path, so runs without an injector execute the exact same
	// instructions as before the fault subsystem existed (one bool test
	// aside) and choosePort keeps its fail-loudly panics.
	faultsEnabled bool
	deadSwitch    []bool

	// mTx holds each channel's pre-resolved tx_pkts counter handle, by
	// Chan.idx, nil on host channels. It stays nil until RegisterMetrics
	// fills it, so a run without telemetry reads one nil slice on a
	// send.
	mTx []*telemetry.Counter
}

// buildWorkers overrides the construction worker count (0 = one per
// CPU). Construction output is identical at any worker count — every
// entity and channel index is precomputed, so workers write disjoint
// slots of the backing arrays; tests pin this to 1 to prove the
// parallel build matches the serial one byte for byte.
var buildWorkers = 0

// New builds a network over topology t with router r. With
// cfg.Shards > 1, e becomes the control engine: it carries everything
// scheduled through Network.E (workloads, controllers, fault injection,
// sampling) while per-shard engines carry the data plane; drive the run
// with Network.RunUntil (or Sharding) rather than e.Run.
//
// Construction streams directly off the topology's port map
// (topo.VisitSwitchLinks) — no materialized []topo.Link — and runs the
// per-switch counting and wiring loops in parallel. Channel indices are
// the same closed-form layout the serial build produced (host up/down
// pairs at 2h/2h+1, then each switch's owned inter-switch links at its
// prefix-sum offset), so event lane/seq ordering, channel labels, and
// every CSV byte downstream are independent of the worker count.
func New(e *sim.Engine, t topo.Topology, r routing.Router, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Network{
		E:      e,
		T:      t,
		R:      r,
		Cfg:    cfg,
		ladder: link.NewLadder(cfg.Ladder),
	}
	if err := n.buildShards(e, cfg.Shards); err != nil {
		return nil, err
	}
	n.fnDeliver = n.deliverEvent
	n.fnArrive = n.arriveEvent
	n.fnSwWake = func(now sim.Time, arg any, port int64) {
		s := arg.(*Switch)
		s.ports[port].wakePending = false
		s.pumpOut(int(port), now)
	}
	n.fnHostWake = func(now sim.Time, arg any, _ int64) {
		h := arg.(*Host)
		h.wakePending = false
		h.pump(now)
	}
	n.fnCreditWake = func(now sim.Time, arg any, _ int64) {
		c := arg.(*Chan)
		c.wakeArmed = false
		c.waiting = false
		n.wakeSender(c, now)
	}

	numSw, numHosts, radix := t.NumSwitches(), t.NumHosts(), t.Radix()
	workers := buildWorkers

	// Lane IDs are allocated identically regardless of shard count:
	// hosts first, then switches, so event keys — and with them the
	// canonical execution order — do not depend on the partition.
	//
	// Per-port switch state is one port record per port in a dense
	// backing array, carved into per-switch windows with full slice
	// expressions so a switch cannot grow into its neighbor's range; the
	// route chooser's candidate buffers are carved the same way.
	n.swArr = make([]Switch, numSw)
	n.Switches = make([]*Switch, numSw)
	portAll := make([]port, numSw*radix)
	candAll := make([]int, numSw*radix)
	parallel.ForEach(numSw, workers, func(sw int) error {
		rt := n.switchShard(sw)
		lo, hi := sw*radix, (sw+1)*radix
		s := &n.swArr[sw]
		*s = Switch{
			net:     n,
			id:      sw,
			rt:      rt,
			eng:     rt.eng,
			lane:    sim.NewLane(uint64(1 + numHosts + sw)),
			rng:     newRNG(n.Cfg.Seed, sw),
			ports:   portAll[lo:hi:hi],
			candBuf: candAll[lo:lo:hi],
		}
		n.Switches[sw] = s
		return nil
	})
	n.hostArr = make([]Host, numHosts)
	n.Hosts = make([]*Host, numHosts)
	parallel.ForEach(numHosts, workers, func(h int) error {
		sw, _ := t.HostAttachment(h)
		rt := n.switchShard(sw)
		hh := &n.hostArr[h]
		*hh = Host{net: n, id: h, rt: rt, eng: rt.eng, lane: sim.NewLane(uint64(1 + h))}
		n.Hosts[h] = hh
		return nil
	})

	// Channel layout. Host channels come first — up at 2h, down at 2h+1
	// — then each switch's owned inter-switch links (two directed
	// channels per link, forward then reverse, in port order) at an
	// offset fixed by a prefix sum over per-switch owned-link counts.
	// This is exactly the sequence the serial append-loop produced.
	ownedLinks := make([]int, numSw)
	parallel.ForEach(numSw, workers, func(sw int) error {
		cnt := 0
		topo.VisitSwitchLinks(t, sw, func(int, topo.Endpoint, topo.LinkClass) bool {
			cnt++
			return true
		})
		ownedLinks[sw] = cnt
		return nil
	})
	linkBase := make([]int, numSw+1) // owned links before switch sw
	for sw := 0; sw < numSw; sw++ {
		linkBase[sw+1] = linkBase[sw] + ownedLinks[sw]
	}
	interLinks := linkBase[numSw]

	totalChans := 2*numHosts + 2*interLinks
	n.chanArr = make([]Chan, totalChans)
	n.chanCold = make([]chanCold, totalChans)
	n.chans = make([]*Chan, totalChans)
	n.pairs = make([][2]*Chan, numHosts+interLinks)

	parallel.ForEach(numHosts, workers, func(h int) error {
		sw, port := t.HostAttachment(h)
		hostEP := topo.Endpoint{Kind: topo.KindHost, ID: h}
		swEP := topo.Endpoint{Kind: topo.KindSwitch, ID: sw, Port: port}
		up := n.initChan(2*h, hostEP, swEP, int64(cfg.InputBufBytes))
		// Hosts sink at line rate; effectively unlimited credits.
		down := n.initChan(2*h+1, swEP, hostEP, math.MaxInt64/4)
		n.hostArr[h].out = up
		n.swArr[sw].ports[port].out = down
		n.pairs[h] = [2]*Chan{up, down}
		return nil
	})
	parallel.ForEach(numSw, workers, func(sw int) error {
		idx := 2*numHosts + 2*linkBase[sw]
		pairIdx := numHosts + linkBase[sw]
		topo.VisitSwitchLinks(t, sw, func(p int, peer topo.Endpoint, _ topo.LinkClass) bool {
			a := topo.Endpoint{Kind: topo.KindSwitch, ID: sw, Port: p}
			fwd := n.initChan(idx, a, peer, int64(cfg.InputBufBytes))
			rev := n.initChan(idx+1, peer, a, int64(cfg.InputBufBytes))
			// The peer-side write lands in another switch's out window;
			// it is this link's unique slot, so workers never collide.
			n.swArr[sw].ports[p].out = fwd
			n.swArr[peer.ID].ports[peer.Port].out = rev
			n.pairs[pairIdx] = [2]*Chan{fwd, rev}
			idx += 2
			pairIdx++
			return true
		})
		return nil
	})
	n.finishShards()
	return n, nil
}

// initChan initializes channel slot idx of the backing arrays in place
// and returns its handle. Safe to call from concurrent construction
// workers as long as each idx is written exactly once.
func (n *Network) initChan(idx int, src, dst topo.Endpoint, credits int64) *Chan {
	c := &n.chanArr[idx]
	*c = Chan{
		Src:      src,
		Dst:      dst,
		credits:  credits,
		idx:      int32(idx),
		toSwitch: dst.Kind == topo.KindSwitch,
	}
	c.L.InitShared(n.ladder)
	c.srcRT, c.srcLane = n.endpointRT(src)
	c.dstRT, c.dstLane = n.endpointRT(dst)
	c.sameShard = c.srcRT == c.dstRT
	n.chans[idx] = c
	return c
}

// endpointRT resolves an endpoint to its owning shard runtime and lane.
func (n *Network) endpointRT(ep topo.Endpoint) (*shardRT, *sim.Lane) {
	if ep.Kind == topo.KindHost {
		h := n.Hosts[ep.ID]
		return h.rt, &h.lane
	}
	s := n.Switches[ep.ID]
	return s.rt, &s.lane
}

// Channels returns every directed channel.
func (n *Network) Channels() []*Chan { return n.chans }

// Pairs returns the two directions of every physical link.
func (n *Network) Pairs() [][2]*Chan { return n.pairs }

// InterSwitchChannels returns only switch-to-switch channels.
func (n *Network) InterSwitchChannels() []*Chan {
	var out []*Chan
	for _, c := range n.chans {
		if c.Src.Kind == topo.KindSwitch && c.Dst.Kind == topo.KindSwitch {
			out = append(out, c)
		}
	}
	return out
}

// wakeSender resumes the entity blocked on channel c's credits.
func (n *Network) wakeSender(c *Chan, now sim.Time) {
	switch c.Src.Kind {
	case topo.KindHost:
		n.Hosts[c.Src.ID].pump(now)
	case topo.KindSwitch:
		n.Switches[c.Src.ID].pumpOut(c.Src.Port, now)
	}
}

// InjectMessage offers a size-byte message from host src to host dst at
// the current simulation time. The message joins the host's queue whole,
// with its packet IDs reserved; each packet is cut from it when it
// reaches the head of the queue (Host.pump).
func (n *Network) InjectMessage(src, dst, size int) {
	if src < 0 || src >= len(n.Hosts) || dst < 0 || dst >= len(n.Hosts) {
		panic(fmt.Sprintf("fabric: inject %d->%d out of range", src, dst))
	}
	if size <= 0 {
		panic(fmt.Sprintf("fabric: inject non-positive size %d", size))
	}
	now := n.E.Now()
	h := n.Hosts[src]
	n.nextMsgID++
	pkts := n.PacketsPerMessage(size)
	if n.OnMessageDone != nil {
		// Completion is observed at the destination host, so the
		// count lives on its shard.
		n.Hosts[dst].rt.msgRemaining.open(n.nextMsgID, pkts)
	}
	m := message{id: n.nextMsgID, firstPkt: n.nextPktID + 1, dst: dst, size: size, inject: now}
	n.nextPktID += int64(pkts)
	if n.flow != nil {
		n.startTraces(h, &m)
	}
	h.msgs.push(m)
	h.backlogBytes += int64(size)
	n.injectedPkts += int64(pkts)
	n.injectedBytes += int64(size)
	h.pump(now)
}

// startTraces starts the hop logs of a message's sampled packets, which
// wait in the host's trace queue until their packets are cut. Sampling
// hashes the packet ID against the seed: pure function, no RNG draw, so
// the sampled set — and every other random decision in the run — is
// identical at any shard count. Injection is control-plane, so
// StartTrace may take from any shard's free list here.
func (n *Network) startTraces(h *Host, m *message) {
	for off := 0; off < m.size; off += n.Cfg.MaxPacket {
		id := m.firstPkt + int64(off/n.Cfg.MaxPacket)
		if n.flow.Sampled(id) {
			size := min(n.Cfg.MaxPacket, m.size-off)
			h.traces.push(n.flow.StartTrace(h.rt.id, id, m.id, h.id, m.dst, size, m.inject))
		}
	}
}

// allocPacket takes a packet from the shard's free list, or allocates
// one. Per-shard lists (not a sync.Pool) keep recycling deterministic
// and lock-free: a list is touched only by its shard's worker or by the
// quiescent-time control plane. Packets are cut inside windows, so the
// list is the shard's own; freePacket sends every packet back to the
// shard that cut it, which bounds allocations by the in-flight
// high-water mark.
func (rt *shardRT) allocPacket() *Packet {
	k := len(rt.pktFree)
	if k == 0 {
		return new(Packet)
	}
	p := rt.pktFree[k-1]
	rt.pktFree = rt.pktFree[:k-1]
	return p
}

// freePacket recycles a delivered or dropped packet freed on shard rt.
// It joins the free list of its source host's shard: directly when that
// is rt, through rt.pktHome at the next window barrier otherwise.
func (n *Network) freePacket(rt *shardRT, p *Packet) {
	if n.group != nil {
		if home := n.Hosts[p.Src].rt; home != rt {
			rt.pktHome[home.id] = append(rt.pktHome[home.id], p)
			return
		}
	}
	rt.pktFree = append(rt.pktFree, p)
}

// deliverAcross moves pkt over channel c: it was transmitted during
// [start, done]; schedule its arrival on the far side and the credit
// return for this channel.
func (n *Network) deliverAcross(c *Chan, pkt *Packet, start, done sim.Time) {
	headIn := start + n.Cfg.WireDelay
	tailIn := done + n.Cfg.WireDelay
	pkt.TailIn = tailIn
	pkt.ch = c.idx
	// The fault epoch lives in the cold array; without faults enabled it
	// is identically zero, so the fault-free path skips the read.
	pkt.chEpoch = 0
	if n.faultsEnabled {
		pkt.chEpoch = n.chanCold[c.idx].failEpoch
	}
	if n.mTx != nil {
		n.mTx[c.idx].Inc()
	}
	if pkt.trace != nil {
		// Close the hop: under cut-through only the final (host-bound)
		// serialization is on the critical path; an intermediate hop
		// hands the head to the next switch after wire + routing delay.
		pkt.trace.Transmit(c.idx, start, done,
			n.Cfg.WireDelay, n.Cfg.RoutingDelay, !c.toSwitch)
		n.flow.RecordTransmit(c.srcRT.id, start, pkt.ID, c.idx, pkt.Size)
	}
	at, fn := tailIn, n.fnDeliver
	if c.toSwitch {
		at, fn = headIn+n.Cfg.RoutingDelay, n.fnArrive
	}
	// Keyed on the sender's lane either way; a cross-shard hop stages
	// the event (with its key pre-drawn) for the next window barrier.
	if c.sameShard {
		c.dstRT.eng.AtArgLane(at, c.srcLane, fn, pkt, 0)
	} else {
		c.srcRT.stageTo(c.dstRT, at, c.srcLane.NextKey(), fn, pkt, 0)
	}
}

// deliverEvent sinks a packet at its destination host.
func (n *Network) deliverEvent(now sim.Time, arg any, _ int64) {
	p := arg.(*Packet)
	if n.faultsEnabled {
		if cold := &n.chanCold[p.ch]; cold.failed || cold.failEpoch != p.chEpoch {
			n.dropPacket(n.chanArr[p.ch].dstRT, p, now, "in-flight on failed channel")
			return
		}
	}
	n.Hosts[p.Dst].deliver(p, now)
}

// arriveEvent routes a packet that reached a switch input. The packet
// leaves the input buffer for an output queue once routed; the credit
// returns upstream after the credit propagation delay. The channel and
// size are read before arrive, which may immediately send the packet
// onward (overwriting p.ch) or, at the final hop, recycle it.
func (n *Network) arriveEvent(now sim.Time, arg any, _ int64) {
	p := arg.(*Packet)
	ch := &n.chanArr[p.ch]
	// Return the credit even for packets about to be dropped: the
	// upstream pool mirrors the input buffer, which the dead arrival no
	// longer occupies. This keeps every switch-bound pool exactly full
	// once traffic drains, failures or not. The credit is src-side
	// channel state keyed by this (dst) switch's lane: it joins the
	// returning FIFO now when both ends share an engine, and is staged
	// for the window barrier to append otherwise.
	at, key := now+n.Cfg.CreditDelay, ch.dstLane.NextKey()
	if ch.sameShard {
		ch.returnCredit(at, key, int64(p.Size))
	} else {
		ch.dstRT.stageTo(ch.srcRT, at, key, nil, ch, int64(p.Size))
	}
	if n.faultsEnabled {
		if cold := &n.chanCold[ch.idx]; cold.failed || cold.failEpoch != p.chEpoch {
			n.dropPacket(ch.dstRT, p, now, "in-flight on failed channel")
			return
		}
	}
	n.Switches[ch.Dst.ID].arrive(p, now)
}

// EnableFaults switches the network into fault-tolerant mode: packets
// that lose their route (dead channels, crashed switches) are dropped
// and counted instead of panicking. Call once, before injection; runs
// without an injector never pay for the checks.
func (n *Network) EnableFaults() {
	n.faultsEnabled = true
	if n.deadSwitch == nil {
		n.deadSwitch = make([]bool, len(n.Switches))
	}
}

// FailChan hard-fails one directed channel: the link powers off with no
// drain, and any packet in flight across it is dropped on arrival.
// Requires EnableFaults. The caller is responsible for masking the
// sending port in the router, pumping the sending switch and taking the
// flight recorder's fault dump, once per failed link.
func (n *Network) FailChan(c *Chan, now sim.Time) {
	if !n.faultsEnabled {
		panic("fabric: FailChan without EnableFaults")
	}
	cold := &n.chanCold[c.idx]
	if cold.failed {
		return
	}
	cold.failed = true
	cold.failEpoch++
	n.PowerOff(c, now)
}

// RepairChan returns a failed channel to service at rate r, paying
// reactivation (CDR re-lock / lane retraining) before it can carry
// data. The sender is kicked so queued traffic resumes.
func (n *Network) RepairChan(c *Chan, now sim.Time, r link.Rate, reactivation sim.Time) {
	cold := &n.chanCold[c.idx]
	if !cold.failed {
		return
	}
	cold.failed = false
	n.PowerOn(c, now, r, reactivation)
	c.L.ResetEpoch(now)
	n.KickSender(c, now)
}

// PowerOff powers channel c down (a dynamic topology's drained link, or
// a failure) and marks its sending port off. A channel is powered off
// or back on only through PowerOff, PowerOn and SetRate, so route
// choice reads a port's own record instead of its channel.
func (n *Network) PowerOff(c *Chan, now sim.Time) {
	c.L.PowerOff(now)
	n.markOff(c, now)
}

// PowerOn powers an Off channel back up at rate r, paying reactivation
// (link.Channel.PowerOn), and clears its port's off mark.
func (n *Network) PowerOn(c *Chan, now sim.Time, r link.Rate, reactivation sim.Time) {
	c.L.PowerOn(now, r, reactivation)
	n.markOff(c, now)
}

// SetRate retunes channel c (link.Channel.SetRate), which powers an Off
// channel back on, and keeps its port's off mark in step.
func (n *Network) SetRate(c *Chan, now sim.Time, r link.Rate, reactivation sim.Time) {
	c.L.SetRate(now, r, reactivation)
	n.markOff(c, now)
}

// markOff copies c's power state into the port record that sends on it.
// Host uplinks have no port record: a host's pump asks its link.
func (n *Network) markOff(c *Chan, now sim.Time) {
	if c.Src.Kind == topo.KindSwitch {
		n.Switches[c.Src.ID].ports[c.Src.Port].off = c.L.State(now) == link.Off
	}
}

// KickSender re-evaluates the entity feeding channel c (after a repair
// or rate restoration).
func (n *Network) KickSender(c *Chan, now sim.Time) { n.wakeSender(c, now) }

// SetSwitchDead marks a switch crashed or revived. Packets arriving at
// a dead switch — or at any switch, destined to a host attached to a
// dead switch — are dropped. Requires EnableFaults.
func (n *Network) SetSwitchDead(sw int, dead bool) {
	if !n.faultsEnabled {
		panic("fabric: SetSwitchDead without EnableFaults")
	}
	n.deadSwitch[sw] = dead
}

// SwitchDead reports whether a switch is crashed.
func (n *Network) SwitchDead(sw int) bool {
	return n.faultsEnabled && n.deadSwitch[sw]
}

// dropPacket accounts for and recycles a packet lost to a fault, on the
// shard whose event is executing (rt). Every drop happens at a switch
// or on a channel, after the packet's first transmit, so the drop is
// charged to the channel it last crossed (p.ch). The packet's message
// can never complete, so its completion count is zeroed — immediately
// when the destination host shares the shard, at the next window
// barrier otherwise (the count is inert either way: with one packet
// lost, it can never reach zero).
func (n *Network) dropPacket(rt *shardRT, p *Packet, now sim.Time, why string) {
	rt.droppedPkts++
	rt.droppedBytes += int64(p.Size)
	n.chanCold[p.ch].drops++
	if n.OnMessageDone != nil {
		drt := n.Hosts[p.Dst].rt
		if drt == rt {
			drt.msgRemaining.lose(p.MsgID)
		} else {
			rt.msgDead[drt.id] = append(rt.msgDead[drt.id], p.MsgID)
		}
	}
	if p.trace != nil {
		n.flow.FinishDrop(rt.id, p.trace, now, why)
		p.trace = nil
	}
	n.freePacket(rt, p)
}

// Dropped returns total packets and bytes lost to injected faults.
func (n *Network) Dropped() (pkts, bytes int64) {
	var p, b int64
	for _, rt := range n.rts {
		p += rt.droppedPkts
		b += rt.droppedBytes
	}
	return p, b
}

// PacketsPerMessage returns how many packets message size bytes
// segments into under the current configuration.
func (n *Network) PacketsPerMessage(size int) int {
	return (size + n.Cfg.MaxPacket - 1) / n.Cfg.MaxPacket
}

// Injected returns total injected packets and bytes.
func (n *Network) Injected() (pkts, bytes int64) { return n.injectedPkts, n.injectedBytes }

// Delivered returns total delivered packets and bytes.
func (n *Network) Delivered() (pkts, bytes int64) {
	var p, b int64
	for _, rt := range n.rts {
		p += rt.deliveredPkts
		b += rt.deliveredBytes
	}
	return p, b
}

// HostBacklogBytes returns the bytes queued at source hosts — growth
// over time means the network is not keeping up with offered load.
func (n *Network) HostBacklogBytes() int64 {
	var total int64
	for _, h := range n.Hosts {
		total += h.backlogBytes
	}
	return total
}

// InFlightPackets returns injected minus delivered (and dropped)
// packets.
func (n *Network) InFlightPackets() int64 {
	dp, _ := n.Delivered()
	xp, _ := n.Dropped()
	return n.injectedPkts - dp - xp
}

// NumHosts returns the number of hosts (satisfies traffic.Target).
func (n *Network) NumHosts() int { return len(n.Hosts) }

// PeakQueueBytes returns the deepest output queue observed at any
// switch, a direct read on worst-case buffering demand.
func (n *Network) PeakQueueBytes() int64 {
	var peak int64
	for _, s := range n.Switches {
		if s.peakQueue > peak {
			peak = s.peakQueue
		}
	}
	return peak
}

// RoutedPackets sums switch routing decisions (one per packet per hop).
func (n *Network) RoutedPackets() int64 {
	var total int64
	for _, s := range n.Switches {
		total += s.routedPackets
	}
	return total
}
