package telemetry

import (
	"math"
	"sort"

	"epnet/internal/sim"
)

// Flow tracing: hash-sampled packets carry a compact per-hop log that
// splits their end-to-end latency into where the time actually went —
// queue wait, credit stalls, retune (reactivation) stalls, busy-channel
// waits, cut-through causality waits, serialization, wire flight, and
// routing/arbitration. The FlowCollector aggregates finished logs into
// per-class decompositions and keeps a bounded set of exemplar (slowest)
// packets plus an anomaly flight recorder: recent traced transmits and
// the hop logs of dropped packets, dumped on faults and drops.
//
// Everything here is designed around the fabric's determinism contract:
//   - sampling is a pure hash of the packet ID and the run seed, so the
//     sampled set is identical at any shard count;
//   - per-hop accounting mutates only the packet's own trace (single
//     writer: whichever shard currently owns the packet);
//   - per-shard accumulators are merged only at quiescent points, by
//     order-independent sums and canonical sorts.

// Hop time components. Queue is the residual wait at the head-of-line
// and behind other packets; Credit is time blocked on downstream buffer
// credits; Retune is time blocked on an in-progress reactivation (CDR
// re-lock / lane retraining); Busy is time blocked behind the channel's
// in-flight tail; Cut is cut-through causality wait (retransmission may
// not finish before the tail arrives); Serialize is the delivery
// serialization at the last hop's rate (intermediate serializations are
// pipelined off the critical path under cut-through); Wire and Route are
// the fixed propagation and arbitration delays.
const (
	FlowQueue = iota
	FlowCredit
	FlowRetune
	FlowBusy
	FlowCut
	FlowSerialize
	FlowWire
	FlowRoute
	FlowComponents
)

// MaxFlowHops bounds the per-packet hop log. Paths longer than this
// (not reachable in the shipped topologies) fold their remaining hops
// into the last record and set Truncated; the component sums stay exact.
const MaxFlowHops = 16

const (
	flowExemplarKeep = 16  // slowest traced packets retained per shard and globally
	flowDumpKeep     = 16  // per-shard drop-dump retention (canonical earliest)
	flowDumpMax      = 8   // fault dumps and drop dumps each cap at this, globally
	flightRingCap    = 256 // recent traced transmits remembered per shard
	flightDumpRecent = 32  // transmits included in one fault dump
)

// FlowHop is one hop of a traced packet's journey: the source host
// (Node < 0, encoded ^host) or a switch (Node >= 0), the channel it
// left on, and the time split while it was there.
type FlowHop struct {
	Node   int32    // switch index, or ^host for the injection hop
	Chan   int32    // channel index transmitted on; -1 before transmit
	Arrive sim.Time // when the packet (head) reached this hop
	Depart sim.Time // when transmission started
	Xmit   sim.Time // actual serialization time at this hop's rate
	Comp   [FlowComponents]sim.Time
}

// PacketTrace is the hop log of one sampled packet. The unexported
// fields carry the incremental accounting state: mark is the last
// instant already attributed, pend the component the time since mark
// belongs to. Component sums over all hops equal Done-Inject exactly.
type PacketTrace struct {
	ID        int64
	MsgID     int64
	Src, Dst  int
	Size      int
	Inject    sim.Time
	Done      sim.Time // delivery (or drop) time; zero while in flight
	Dropped   bool
	DropWhy   string
	Truncated bool
	NHops     int
	Hops      [MaxFlowHops]FlowHop

	mark sim.Time
	pend uint8
}

// Latency returns the packet's end-to-end (or inject-to-drop) latency.
func (t *PacketTrace) Latency() sim.Time { return t.Done - t.Inject }

// TotalComp sums one component across every hop.
func (t *PacketTrace) TotalComp(c int) sim.Time {
	var sum sim.Time
	for i := 0; i < t.NHops; i++ {
		sum += t.Hops[i].Comp[c]
	}
	return sum
}

func (t *PacketTrace) cur() *FlowHop { return &t.Hops[t.NHops-1] }

// ArriveHop opens a new hop record at now. On overflow it folds into
// the last record: attribution coarsens but the sums stay exact.
func (t *PacketTrace) ArriveHop(node int32, now sim.Time) {
	if t.NHops == MaxFlowHops {
		t.Truncated = true
		t.mark, t.pend = now, FlowQueue
		return
	}
	t.Hops[t.NHops] = FlowHop{Node: node, Chan: -1, Arrive: now}
	t.NHops++
	t.mark, t.pend = now, FlowQueue
}

// Account attributes the time since the last accounted instant to the
// pending component and resets the pending reason to queue wait. Called
// at the top of every head-of-line visit.
func (t *PacketTrace) Account(now sim.Time) {
	if now > t.mark {
		t.cur().Comp[t.pend] += now - t.mark
		t.mark, t.pend = now, FlowQueue
	}
}

// Block records why the packet is now stalled; the duration lands at
// the next Account call.
func (t *PacketTrace) Block(component uint8) { t.pend = component }

// WaitAvailable splits a wait-until-available (Account must have run,
// so mark == now) into its retune portion — up to the reactivation
// deadline — and the busy-channel remainder, immediately: both bounds
// are known now, so nothing is left pending.
func (t *PacketTrace) WaitAvailable(avail, reconfigUntil sim.Time) {
	from := t.mark
	if avail <= from {
		return
	}
	var retune sim.Time
	if reconfigUntil > from {
		r := reconfigUntil
		if r > avail {
			r = avail
		}
		retune = r - from
	}
	h := t.cur()
	h.Comp[FlowRetune] += retune
	h.Comp[FlowBusy] += avail - from - retune
	t.mark, t.pend = avail, FlowQueue
}

// Transmit closes the current hop: transmission ran [start, start+xmit]
// on channel ch. For a host-destined hop the delivery happens at tail
// arrival, so serialization and wire flight are on the critical path;
// for a switch-destined hop the next arrival is head-based and only
// wire + routing delay separate this hop from the next ArriveHop.
func (t *PacketTrace) Transmit(ch int32, start, done, wire, route sim.Time, toHost bool) {
	h := t.cur()
	h.Chan = ch
	h.Depart = start
	h.Xmit = done - start
	if toHost {
		h.Comp[FlowSerialize] += done - start
		h.Comp[FlowWire] += wire
		t.mark = done + wire
	} else {
		h.Comp[FlowWire] += wire
		h.Comp[FlowRoute] += route
		t.mark = start + wire + route
	}
	t.pend = FlowQueue
}

// FlightRecord is one entry of the anomaly flight recorder: a traced
// packet's transmission over a channel.
type FlightRecord struct {
	At   sim.Time
	Pkt  int64
	Chan int32
	Size int32
}

// FlowDump is one flight-recorder dump: either a dropped traced
// packet's own hop log (Trace != nil) or the recent traced transmits
// leading up to a fault epoch (Recent != nil).
type FlowDump struct {
	Reason string
	At     sim.Time
	Trace  *PacketTrace
	Recent []FlightRecord
}

// flowClassAcc is one shard's accumulator for one flow class (scenario
// phase, or "steady" for flag runs).
type flowClassAcc struct {
	count  int64 // traced packets delivered
	drops  int64 // traced packets dropped
	bytes  int64 // traced bytes delivered
	hops   int64 // hop records across traced deliveries
	sumLat sim.Time
	maxLat sim.Time
	comp   [FlowComponents]sim.Time

	// chanBytes[ch] is traced delivered bytes that crossed channel ch —
	// the join key for per-class energy attribution.
	chanBytes []int64
}

// flowShard is the single-writer state of one shard: touched only by
// the shard's worker inside a window or by the control plane while all
// workers are quiescent.
type flowShard struct {
	free      []*PacketTrace
	stats     []flowClassAcc
	exemplars []*PacketTrace // canonical slowest-K of this shard
	dumps     []*FlowDump    // canonical earliest drop dumps
	ring      []FlightRecord
	ringPos   int
	ringLen   int
	started   int64 // traces begun on this (injecting) shard
}

type flowClass struct {
	name string
	end  sim.Time // exclusive finish-time bound; the last class is open
}

// FlowCollector owns flow-tracing state for one network. Construct with
// NewFlowCollector, attach via fabric's SetFlowCollector, read with
// Report at a quiescent point.
type FlowCollector struct {
	rate      float64
	all       bool
	threshold uint64
	seed      uint64
	nchans    int
	classes   []flowClass
	shards    []flowShard
	faults    []*FlowDump // fault-epoch dumps, control-plane only
}

// NewFlowCollector builds a collector for a network with the given
// shard and channel counts. sampleRate in (0, 1] is the fraction of
// packets traced; seed makes the sampled set reproducible and — being a
// pure function of packet ID — independent of the shard count.
func NewFlowCollector(shards, nchans int, sampleRate float64, seed int64) *FlowCollector {
	fc := &FlowCollector{
		rate:   sampleRate,
		all:    sampleRate >= 1,
		seed:   uint64(seed+1) * 0x9E3779B97F4A7C15,
		nchans: nchans,
		shards: make([]flowShard, shards),
	}
	if !fc.all {
		fc.threshold = uint64(sampleRate * float64(math.MaxUint64))
	}
	for i := range fc.shards {
		fc.shards[i].ring = make([]FlightRecord, flightRingCap)
	}
	fc.SetClasses([]string{"steady"}, []sim.Time{math.MaxInt64})
	return fc
}

// SetClasses installs the flow classes (scenario phases): packets are
// classified by their finish time against ends, exactly as the phase
// scorecards classify deliveries. Call before the run starts; it resets
// the per-class accumulators.
func (fc *FlowCollector) SetClasses(names []string, ends []sim.Time) {
	fc.classes = fc.classes[:0]
	for i, name := range names {
		fc.classes = append(fc.classes, flowClass{name: name, end: ends[i]})
	}
	for s := range fc.shards {
		sh := &fc.shards[s]
		sh.stats = make([]flowClassAcc, len(fc.classes))
		for c := range sh.stats {
			sh.stats[c].chanBytes = make([]int64, fc.nchans)
		}
	}
}

func (fc *FlowCollector) classify(at sim.Time) int {
	idx := 0
	for idx < len(fc.classes)-1 && at >= fc.classes[idx].end {
		idx++
	}
	return idx
}

// Sampled reports whether the packet with this ID is traced: a
// splitmix64-style hash of the ID mixed with the seed, compared against
// the rate threshold. No RNG state — sampling one packet never
// perturbs any other draw in the simulation.
func (fc *FlowCollector) Sampled(id int64) bool {
	if fc.all {
		return true
	}
	z := uint64(id) + fc.seed
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z < fc.threshold
}

// StartTrace begins a hop log for a sampled packet injected on the
// given shard at now, recycling finished logs through per-shard free
// lists. A log is freed on the shard that delivers or drops its packet,
// so free logs collect on destination shards; when the injecting
// shard's list is empty, StartTrace takes one from another shard's.
// That is safe because injection is control-plane only, with every
// shard quiescent. (The fabric's packet lists need no such stealing: a
// freed packet goes back to the shard that cut it.)
func (fc *FlowCollector) StartTrace(shard int, id, msgID int64, src, dst, size int, now sim.Time) *PacketTrace {
	sh := &fc.shards[shard]
	if len(sh.free) == 0 {
		for i := range fc.shards {
			if len(fc.shards[i].free) > 0 {
				sh = &fc.shards[i]
				break
			}
		}
	}
	var tr *PacketTrace
	if n := len(sh.free); n > 0 {
		tr = sh.free[n-1]
		sh.free = sh.free[:n-1]
		*tr = PacketTrace{}
	} else {
		tr = new(PacketTrace)
	}
	fc.shards[shard].started++
	tr.ID, tr.MsgID = id, msgID
	tr.Src, tr.Dst, tr.Size = src, dst, size
	tr.Inject = now
	tr.ArriveHop(^int32(src), now)
	return tr
}

// RecordTransmit feeds the flight recorder: a traced packet started
// crossing a channel. Called on the transmitting (src) shard.
func (fc *FlowCollector) RecordTransmit(shard int, at sim.Time, pkt int64, ch int32, size int32) {
	sh := &fc.shards[shard]
	sh.ring[sh.ringPos] = FlightRecord{At: at, Pkt: pkt, Chan: ch, Size: size}
	sh.ringPos++
	if sh.ringPos == flightRingCap {
		sh.ringPos = 0
	}
	if sh.ringLen < flightRingCap {
		sh.ringLen++
	}
}

// slower is the canonical exemplar order: longer latency first, then
// smaller packet ID.
func slower(a, b *PacketTrace) bool {
	la, lb := a.Latency(), b.Latency()
	if la != lb {
		return la > lb
	}
	return a.ID < b.ID
}

// earlierDump is the canonical dump order: earlier first, then smaller
// packet ID.
func earlierDump(a, b *FlowDump) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	var ia, ib int64
	if a.Trace != nil {
		ia = a.Trace.ID
	}
	if b.Trace != nil {
		ib = b.Trace.ID
	}
	return ia < ib
}

// FinishDeliver closes a delivered packet's log on the delivering
// shard: per-class sums, per-channel traced bytes, and the bounded
// slowest-exemplar set. The evicted log is recycled.
func (fc *FlowCollector) FinishDeliver(shard int, tr *PacketTrace, now sim.Time) {
	sh := &fc.shards[shard]
	tr.Done = now
	lat := tr.Latency()
	acc := &sh.stats[fc.classify(now)]
	acc.count++
	acc.bytes += int64(tr.Size)
	acc.hops += int64(tr.NHops)
	acc.sumLat += lat
	if lat > acc.maxLat {
		acc.maxLat = lat
	}
	for i := 0; i < tr.NHops; i++ {
		h := &tr.Hops[i]
		for c := range h.Comp {
			acc.comp[c] += h.Comp[c]
		}
		if h.Chan >= 0 {
			acc.chanBytes[h.Chan] += int64(tr.Size)
		}
	}
	// Keep the shard's canonical slowest-K; the global top-K is a
	// subset of the per-shard sets, so the merged result is identical
	// at any shard count.
	if len(sh.exemplars) < flowExemplarKeep {
		sh.exemplars = append(sh.exemplars, tr)
		return
	}
	weakest := 0
	for i := 1; i < len(sh.exemplars); i++ {
		if slower(sh.exemplars[weakest], sh.exemplars[i]) {
			weakest = i
		}
	}
	if slower(tr, sh.exemplars[weakest]) {
		sh.free = append(sh.free, sh.exemplars[weakest])
		sh.exemplars[weakest] = tr
		return
	}
	sh.free = append(sh.free, tr)
}

// FinishDrop closes a dropped packet's log on the dropping shard and
// feeds the flight recorder: the earliest drops (canonically ordered)
// are retained as dumps, hop log included.
func (fc *FlowCollector) FinishDrop(shard int, tr *PacketTrace, now sim.Time, why string) {
	sh := &fc.shards[shard]
	tr.Account(now)
	tr.Done = now
	tr.Dropped = true
	tr.DropWhy = why
	sh.stats[fc.classify(now)].drops++
	d := &FlowDump{Reason: "drop: " + why, At: now, Trace: tr}
	if len(sh.dumps) < flowDumpKeep {
		sh.dumps = append(sh.dumps, d)
		return
	}
	latest := 0
	for i := 1; i < len(sh.dumps); i++ {
		if earlierDump(sh.dumps[latest], sh.dumps[i]) {
			latest = i
		}
	}
	if earlierDump(d, sh.dumps[latest]) {
		sh.free = append(sh.free, sh.dumps[latest].Trace)
		sh.dumps[latest] = d
		return
	}
	sh.free = append(sh.free, tr)
}

// FaultDump snapshots the flight recorder at a fault epoch: the most
// recent traced transmits strictly before now, merged across shards in
// canonical order. Control-plane only (all shards quiescent). Transmits
// at exactly now have not executed yet in either serial or sharded
// mode, so the strict filter sees the same set everywhere.
func (fc *FlowCollector) FaultDump(reason string, now sim.Time) {
	if len(fc.faults) >= flowDumpMax {
		return
	}
	var recs []FlightRecord
	for s := range fc.shards {
		sh := &fc.shards[s]
		for i := 0; i < sh.ringLen; i++ {
			if r := sh.ring[i]; r.At < now {
				recs = append(recs, r)
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].At != recs[j].At {
			return recs[i].At < recs[j].At
		}
		if recs[i].Pkt != recs[j].Pkt {
			return recs[i].Pkt < recs[j].Pkt
		}
		return recs[i].Chan < recs[j].Chan
	})
	if len(recs) > flightDumpRecent {
		recs = append([]FlightRecord(nil), recs[len(recs)-flightDumpRecent:]...)
	}
	fc.faults = append(fc.faults, &FlowDump{Reason: reason, At: now, Recent: recs})
}
