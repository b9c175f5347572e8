package fabric

import (
	"fmt"

	"epnet/internal/sim"
	"epnet/internal/telemetry"
)

// Switch is an input/output-buffered crossbar switch. Input buffering is
// expressed through the upstream sender's credit pool; output queues are
// held here, and their depth in bytes is the adaptive routing signal.
//
// Switches are value entries in Network.swArr, and ports is a window
// into one dense backing array of port records shared by all switches.
// Network.New fills each Switch in place; there is no constructor.
type Switch struct {
	net *Network
	id  int

	// Shard wiring: the owning runtime, its engine (cached), the lane
	// that keys every event this switch schedules, and a private
	// tie-break RNG so route choices are independent of how other
	// switches' events interleave.
	rt   *shardRT
	eng  *sim.Engine
	lane sim.Lane
	rng  rng64

	ports   []port
	candBuf []int

	// Diagnostics.
	routedPackets int64
	peakQueue     int64 // max output-queue depth seen, bytes
}

// port is one switch port: its output channel and queue, and the state
// of the pump feeding the channel. One hop reads and writes these
// together — route choice reads the queue depth and the flags, enqueue
// and pumpOut the rest — so they share one 64-byte record, a cache line.
type port struct {
	out         *Chan // output channel (nil on unused ports)
	queue       fifo[*Packet]
	queuedBytes int64
	wakeAt      sim.Time
	wakePending bool
	closing     bool // dynamic topology: the port drains, takes no new packets
	off         bool // out is powered off (Network.PowerOff)
}

// ID returns the switch index.
func (s *Switch) ID() int { return s.id }

// QueueBytes returns the output queue depth (bytes) of a port.
func (s *Switch) QueueBytes(port int) int64 { return s.ports[port].queuedBytes }

// QueuedPackets returns the output queue length (packets) of a port.
func (s *Switch) QueuedPackets(port int) int { return s.ports[port].queue.len() }

// SetClosing marks a port as draining (dynamic topologies): the adaptive
// route chooser stops selecting it for new packets.
func (s *Switch) SetClosing(port int, closing bool) { s.ports[port].closing = closing }

// Closing reports whether a port is draining.
func (s *Switch) Closing(port int) bool { return s.ports[port].closing }

// arrive processes a routed packet: choose an output port adaptively and
// enqueue it.
func (s *Switch) arrive(pkt *Packet, now sim.Time) {
	pkt.Hops++
	if pkt.trace != nil {
		pkt.trace.ArriveHop(int32(s.id), now)
	}
	if s.net.faultsEnabled {
		if s.net.deadSwitch[s.id] {
			s.net.dropPacket(s.rt, pkt, now, "arrived at crashed switch")
			return
		}
		if dstSw, _ := s.net.T.HostAttachment(int(pkt.Dst)); s.net.deadSwitch[dstSw] {
			s.net.dropPacket(s.rt, pkt, now, "destination switch crashed")
			return
		}
	}
	port := s.choosePort(pkt, now)
	if port < 0 {
		s.net.dropPacket(s.rt, pkt, now, "no live route")
		return
	}
	s.enqueue(port, pkt, now)
}

// enqueue appends pkt to a port's output queue and pumps the port.
func (s *Switch) enqueue(port int, pkt *Packet, now sim.Time) {
	pt := &s.ports[port]
	pt.queue.push(pkt)
	pt.queuedBytes += int64(pkt.Size)
	if pt.queuedBytes > s.peakQueue {
		s.peakQueue = pt.queuedBytes
	}
	s.routedPackets++
	s.pumpOut(port, now)
}

// PumpPort re-evaluates a port's output queue after an external state
// change (e.g. a link failure or power transition), rerouting queued
// packets if the channel is gone.
func (s *Switch) PumpPort(port int, now sim.Time) { s.pumpOut(port, now) }

// DropAllQueued empties every output queue of a crashed switch,
// counting each packet as dropped, and returns how many were lost.
func (s *Switch) DropAllQueued(now sim.Time) int {
	dropped := 0
	for i := range s.ports {
		pt := &s.ports[i]
		for _, pkt := range pt.queue.drain() {
			s.net.dropPacket(s.rt, pkt, now, "queued in crashed switch")
			dropped++
		}
		pt.queuedBytes = 0
	}
	return dropped
}

// RoutedPackets returns the number of packets this switch has enqueued.
func (s *Switch) RoutedPackets() int64 { return s.routedPackets }

// PeakQueueBytes returns the deepest output queue (bytes) observed.
func (s *Switch) PeakQueueBytes() int64 { return s.peakQueue }

// choosePort picks among the router's minimal candidates the port with
// the smallest output queue (in bytes) — the paper's per-hop adaptive
// routing. Powered-off and draining ports are avoided; ties break
// uniformly at random.
//
// Without fault injection an empty or all-unwired candidate set is a
// routing bug and panics. With faults enabled it is a reachable state
// (every minimal port dead) and returns -1; the caller drops.
func (s *Switch) choosePort(pkt *Packet, now sim.Time) int {
	cands := s.net.R.Candidates(s.id, int(pkt.Dst), s.candBuf[:0])
	if len(cands) == 0 {
		if s.net.faultsEnabled {
			return -1
		}
		panic(fmt.Sprintf("fabric: sw%d has no route to host %d", s.id, pkt.Dst))
	}
	if len(cands) == 1 && !s.net.faultsEnabled {
		return cands[0]
	}
	const closingPenalty = int64(1) << 40
	best := -1
	var bestCost int64
	nBest := 0
	for _, p := range cands {
		pt := &s.ports[p]
		ch := pt.out
		if ch == nil {
			continue
		}
		if s.net.faultsEnabled && s.net.chanCold[ch.idx].failed {
			continue
		}
		cost := pt.queuedBytes
		if pt.closing {
			cost += closingPenalty
		}
		if pt.off {
			cost += 2 * closingPenalty
		}
		switch {
		case best == -1 || cost < bestCost:
			best, bestCost, nBest = p, cost, 1
		case cost == bestCost:
			// Reservoir-sample among ties for unbiased spreading.
			nBest++
			if s.rng.intn(nBest) == 0 {
				best = p
			}
		}
	}
	if best == -1 {
		if s.net.faultsEnabled {
			return -1
		}
		panic(fmt.Sprintf("fabric: sw%d candidates %v all unwired for host %d", s.id, cands, pkt.Dst))
	}
	return best
}

// scheduleWake arranges a pumpOut(port) call at time at, deduplicating
// against an already-scheduled earlier wake.
func (s *Switch) scheduleWake(port int, at sim.Time) {
	pt := &s.ports[port]
	if pt.wakePending && pt.wakeAt <= at {
		return
	}
	pt.wakePending = true
	pt.wakeAt = at
	s.eng.AtArgLane(at, &s.lane, s.net.fnSwWake, s, int64(port))
}

// pumpOut transmits queued packets on a port while the channel and
// credits allow; otherwise it arranges to be woken. It asks the channel
// before it reads the head packet, so an untraced pump that finds the
// link busy touches no packet.
func (s *Switch) pumpOut(port int, now sim.Time) {
	pt := &s.ports[port]
	q := &pt.queue
	for !q.empty() {
		ch := pt.out
		if ch == nil {
			panic(fmt.Sprintf("fabric: sw%d pump on unwired port %d", s.id, port))
		}
		// Flow tracing: attribute the head packet's time since the last
		// visit to whatever blocked it then, and mark why it stalls now.
		// Pure writes to the packet's own log — never a branch in the
		// simulation itself, so determinism is untouched. Only a run with
		// a collector attached can hold a traced packet, so only such a
		// run reads the head before the channel.
		var tr *telemetry.PacketTrace
		if s.net.flow != nil {
			if tr = (*q.peek()).trace; tr != nil {
				tr.Account(now)
			}
		}
		avail, on := ch.L.AvailableAt(now)
		if !on {
			// Channel was powered off with packets queued (a dynamic
			// topology transition raced a packet in). Re-route them.
			s.rerouteQueue(port, now)
			return
		}
		if avail > now {
			if tr != nil {
				tr.WaitAvailable(avail, ch.L.ReconfigUntil(now))
			}
			s.scheduleWake(port, avail)
			return
		}
		pkt := *q.peek()
		// Cut-through causality: retransmission may not finish before
		// the tail has arrived here.
		if t := pkt.TailIn - ch.L.TransmitTime(int(pkt.Size)); t > now {
			if tr != nil {
				tr.Block(telemetry.FlowCut)
			}
			s.scheduleWake(port, t)
			return
		}
		if !ch.takeCredits(pkt.Size) {
			if tr != nil {
				tr.Block(telemetry.FlowCredit)
			}
			return
		}
		q.pop()
		pt.queuedBytes -= int64(pkt.Size)
		done := ch.L.StartTransmit(now, int(pkt.Size))
		s.net.deliverAcross(ch, pkt, now, done)
	}
}

// rerouteQueue drains a dead port's queue back through route selection.
func (s *Switch) rerouteQueue(port int, now sim.Time) {
	pt := &s.ports[port]
	pkts := pt.queue.drain()
	pt.queuedBytes = 0
	for _, pkt := range pkts {
		newPort := s.choosePort(pkt, now)
		if newPort < 0 {
			s.net.dropPacket(s.rt, pkt, now, "no live route")
			continue
		}
		if newPort == port && !(s.net.faultsEnabled && pt.out.Failed()) {
			// No alternative: keep it here and hope the controller
			// powers the link back on; avoid infinite recursion.
			pt.queue.push(pkt)
			pt.queuedBytes += int64(pkt.Size)
			continue
		}
		if newPort == port {
			// The router still offers only the failed port: no live
			// alternative exists.
			s.net.dropPacket(s.rt, pkt, now, "queued behind failed channel")
			continue
		}
		s.enqueue(newPort, pkt, now)
	}
}

// Host is a server NIC: an injection queue feeding the host's uplink
// channel, and the sink side that records deliveries. Hosts are value
// entries in Network.hostArr, filled in place by Network.New.
//
// The queue holds whole messages. pump cuts the next packet from the
// head message only when the previous one has been sent, so a host
// holds at most one packet (head) however much it has queued.
type Host struct {
	net *Network
	id  int

	// Shard wiring: a host lives on the shard of the switch it attaches
	// to, so its uplink and downlink never cross a shard boundary.
	rt   *shardRT
	eng  *sim.Engine
	lane sim.Lane

	out          *Chan
	msgs         fifo[message]
	head         *Packet // cut from msgs' head, not yet sent
	backlogBytes int64

	// traces holds the hop logs started at injection for this host's
	// sampled packets, in packet ID order; each is attached when its
	// packet is cut.
	traces fifo[*telemetry.PacketTrace]

	wakeAt      sim.Time
	wakePending bool
}

// ID returns the host index.
func (h *Host) ID() int { return h.id }

// BacklogBytes returns bytes waiting in the injection queue.
func (h *Host) BacklogBytes() int64 { return h.backlogBytes }

func (h *Host) scheduleWake(at sim.Time) {
	if h.wakePending && h.wakeAt <= at {
		return
	}
	h.wakePending = true
	h.wakeAt = at
	h.eng.AtArgLane(at, &h.lane, h.net.fnHostWake, h, 0)
}

// cut takes the next packet from the head message, with the ID reserved
// for it at injection, and pops the message once it is used up.
func (h *Host) cut() *Packet {
	m := h.msgs.peek()
	size := min(h.net.Cfg.MaxPacket, m.size-m.off)
	p := h.rt.allocPacket()
	*p = Packet{ID: m.firstPkt + int64(m.off/h.net.Cfg.MaxPacket), MsgID: m.id,
		Src: int32(h.id), Dst: int32(m.dst), Size: int32(size), Inject: m.inject, ch: noChan}
	if !h.traces.empty() && (*h.traces.peek()).ID == p.ID {
		p.trace = h.traces.pop()
	}
	m.off += size
	if m.off == m.size {
		h.msgs.pop()
	}
	return p
}

// pump injects queued packets while the uplink and credits allow.
func (h *Host) pump(now sim.Time) {
	for h.head != nil || !h.msgs.empty() {
		if h.head == nil {
			h.head = h.cut()
		}
		pkt := h.head
		tr := pkt.trace
		if tr != nil {
			tr.Account(now)
		}
		avail, on := h.out.L.AvailableAt(now)
		if !on {
			return // host links are never powered off in practice
		}
		if avail > now {
			if tr != nil {
				tr.WaitAvailable(avail, h.out.L.ReconfigUntil(now))
			}
			h.scheduleWake(avail)
			return
		}
		if !h.out.takeCredits(pkt.Size) {
			if tr != nil {
				tr.Block(telemetry.FlowCredit)
			}
			return
		}
		h.head = nil
		h.backlogBytes -= int64(pkt.Size)
		done := h.out.L.StartTransmit(now, int(pkt.Size))
		h.net.deliverAcross(h.out, pkt, now, done)
	}
}

// deliver sinks a packet at its destination.
func (h *Host) deliver(pkt *Packet, now sim.Time) {
	if int(pkt.Dst) != h.id {
		panic(fmt.Sprintf("fabric: host %d received packet for %d", h.id, pkt.Dst))
	}
	h.rt.deliveredPkts++
	h.rt.deliveredBytes += int64(pkt.Size)
	if h.net.OnDeliver != nil {
		h.net.OnDeliver(pkt, now)
	}
	if h.net.OnMessageDone != nil && h.rt.msgRemaining.take(pkt.MsgID) {
		// Every packet of a message carries its injection time.
		h.net.OnMessageDone(pkt.MsgID, int(pkt.Src), int(pkt.Dst), pkt.Inject, now)
	}
	if pkt.trace != nil {
		h.net.flow.FinishDeliver(h.rt.id, pkt.trace, now)
		pkt.trace = nil
	}
	h.net.freePacket(h.rt, pkt)
}

// Uplink returns the host's injection channel (for tests and the energy
// controller, which tunes host links too).
func (h *Host) Uplink() *Chan { return h.out }
