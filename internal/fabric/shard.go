package fabric

import (
	"fmt"
	"math"
	"time"

	"epnet/internal/sim"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// This file implements intra-run parallelism: the fabric's switches (and
// their attached hosts, channels, and per-entity accounting) are
// partitioned into shards, each owning a private sim.Engine, and all
// shards advance in conservative time windows. Events that cross a shard
// boundary are appended to per-pair staging buffers and drained onto the
// destination heap at the next window barrier.
//
// Windows are per shard, bounded by a per-shard-pair lookahead matrix
// rather than one global minimum: la[j][i] is the smallest latency any
// chain of cross-shard scheduling edges from shard j can add before its
// influence reaches shard i (the min-plus transitive closure of the
// direct channel-latency edges, diagonal included — a shard's own
// traffic echoes back as credits). Shard i may therefore run to
//
//	W_i = min( ctrlNext, min over j of N_j + la[j][i] )
//
// where N_j is shard j's earliest pending event: nothing staged toward i
// can land before W_i. Loosely coupled shards run long windows while
// tightly coupled pairs barrier often, and when the whole fabric is
// idle the formula degenerates to an analytic fast-forward — every
// clock jumps past the event-free gap in a single round.
//
// The topology chooses the partition (topo.PartitionOf): dimension cuts
// for flattened butterflies, pod cuts for folded Clos, proportional
// leaf/spine slices for fat trees, contiguous ranges otherwise. Fewer
// cross-shard channels means less staging traffic and a sparser, looser
// lookahead matrix.
//
// Determinism: every data-plane event carries an ordering key drawn from
// its source entity's sim.Lane at scheduling time, in both serial and
// sharded mode. Within one timestamp, every engine executes events in
// ascending key order, so the per-entity event order — and therefore
// every per-entity state transition — is a pure function of the model,
// not of how entities are spread over engines or how wide any window
// was. Staged events carry their precomputed keys across the barrier, so
// drain order is irrelevant. The result: a sharded run is byte-identical
// to the serial run, for every shard count and partition.
//
// Single-writer discipline (what makes windows lock-free):
//   - switch/host state, lanes, and output-channel state (link, credits,
//     waiting flag) are touched only by the owning shard's worker,
//     or by the control plane while all workers are quiescent;
//   - a channel's src-side state belongs to the src entity's shard, its
//     returning-credit FIFO included; a credit return from another
//     shard is therefore staged, and the barrier appends it;
//   - per-shard counters (delivered/dropped/free lists/message tracking)
//     live on shardRT; barriers merge the counters read-only, and hand
//     freed packets and message teardowns to the shards they belong to.
//
// Control-plane safety: control events (workload injection, controller
// epochs, fault injection, samplers) mutate shard-owned state directly,
// so they may only run when every shard clock sits exactly on the
// control engine's clock. Every window end is capped at ctrlNext, and
// new control events are only created by control events, so when the
// minimum shard clock reaches ctrlNext all clocks equal it — the loop
// runs the control plane precisely at those quiescent instants.

// farAway is the effectively-infinite time bound: far beyond any run
// horizon, small enough that farAway + farAway cannot overflow.
const farAway = sim.Time(math.MaxInt64 / 4)

// stagedEvent is one cross-shard event awaiting the window barrier. A
// nil fn marks a credit return rather than an event: arg is the channel
// and n the bytes, and the barrier appends it to the channel's
// returning FIFO.
type stagedEvent struct {
	at  sim.Time
	key uint64
	fn  sim.ArgEvent
	arg any
	n   int64
}

// windowReq is one unit of work for a shard worker: run events in
// [Now, end), or in [Now, end] when inclusive (the run horizon's final
// instant, matching serial RunUntil semantics).
type windowReq struct {
	end       sim.Time
	inclusive bool
}

// shardRT is the runtime state of one shard: its engine, its outgoing
// staging buffers, and every piece of network-level accounting that the
// shard's entities write on the hot path. All fields are single-writer:
// the shard's worker inside a window, the control plane at barriers.
type shardRT struct {
	id  int
	net *Network
	eng *sim.Engine

	// stage[d] holds events bound for shard d since the last barrier.
	// Slices are recycled through stageFree at barriers, so steady state
	// stages without allocating regardless of shard count.
	stage     [][]stagedEvent
	stageFree [][]stagedEvent

	// Hot-path accounting, merged by Network accessors at barriers.
	deliveredPkts  int64
	deliveredBytes int64
	droppedPkts    int64
	droppedBytes   int64

	// pktFree recycles the packets this shard's hosts cut. pktHome[d]
	// holds packets freed here that shard d's hosts cut, until the next
	// barrier appends them to d's pktFree.
	pktFree []*Packet
	pktHome [][]*Packet

	// credits holds the returning-credit FIFOs of every channel this
	// shard sends on, linked through one slab that grows to the most
	// credits ever returning at once; creditFree heads its free slots
	// (slot+1, 0 when none). See Chan.settle.
	credits    []creditReturn
	creditFree int32

	// Message-completion tracking for messages whose destination host
	// lives on this shard. msgDead[d] defers the teardown of messages
	// tracked on shard d when a drop happens here (a dropped message
	// can never complete, so its count only has to stop pinning the
	// window); applied at the next barrier.
	msgRemaining msgWindow
	msgDead      [][]int64

	win  windowReq // the window assigned this round
	work chan windowReq

	// Self-profiling (SetProfiler). The worker records its own window's
	// cost into these single-writer fields; the coordinator folds them
	// into the profiler after the barrier. profiled is set only while
	// the group is quiescent.
	profiled  bool
	winWallNs int64
	winEvents uint64
	winUsedPs int64
}

func (rt *shardRT) stageTo(dst *shardRT, at sim.Time, key uint64, fn sim.ArgEvent, arg any, n int64) {
	s := rt.stage[dst.id]
	if s == nil {
		// First event toward dst since the last barrier: reuse a drained
		// buffer. The free list is shared across destinations, so skewed
		// traffic grows one capacity, not one per destination.
		if k := len(rt.stageFree); k > 0 {
			s = rt.stageFree[k-1]
			rt.stageFree = rt.stageFree[:k-1]
		}
	}
	rt.stage[dst.id] = append(s, stagedEvent{at: at, key: key, fn: fn, arg: arg, n: n})
}

// runWindow executes one conservative window on the shard's engine.
// When profiled it additionally records the window's wall time, events
// executed, and the simulated advance actually used (last executed
// event minus window start) — per window, never per event, so the
// packet hot path is untouched.
func (rt *shardRT) runWindow(w windowReq) {
	if !rt.profiled {
		rt.exec(w)
		return
	}
	begin := rt.eng.Now()
	p0 := rt.eng.Processed()
	start := time.Now()
	rt.exec(w)
	rt.winWallNs = time.Since(start).Nanoseconds()
	rt.winEvents = rt.eng.Processed() - p0
	rt.winUsedPs = 0
	if used := int64(rt.eng.LastEventAt() - begin); used > 0 {
		rt.winUsedPs = used
	}
}

func (rt *shardRT) exec(w windowReq) {
	if w.inclusive {
		rt.eng.RunUntil(w.end)
	} else {
		rt.eng.RunBefore(w.end)
	}
}

// rng64 is a tiny splitmix64 generator, one per switch, for adaptive
// routing tie-breaks. Per-switch state (rather than one shared stream)
// makes each switch's draw sequence independent of how other switches'
// events interleave — a requirement for serial/sharded equivalence.
type rng64 struct{ s uint64 }

func newRNG(seed int64, id int) rng64 {
	return rng64{s: uint64(seed)*0x9E3779B97F4A7C15 + uint64(id+1)*0xBF58476D1CE4E5B9}
}

func (r *rng64) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// intn returns a value in [0, n). The modulo bias is irrelevant here —
// n is a handful of candidate ports — and determinism is what matters.
func (r *rng64) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// ShardGroup coordinates the shard workers of a network built with
// Config.Shards > 1. The control engine (Network.E) holds everything
// that is not per-entity data plane — workload generators, the energy
// controller, fault injection, telemetry sampling — and runs only at
// window barriers, when every shard is quiescent and parked on the same
// clock value. Obtain it from Network.Sharding.
type ShardGroup struct {
	net  *Network
	ctrl *sim.Engine
	rts  []*shardRT

	// la is the closed lookahead matrix: la[j][i] bounds how soon shard
	// j's pending work can influence shard i (farAway when it cannot).
	la [][]sim.Time

	// Cut quality of the partition: directed inter-switch channels that
	// cross a shard boundary, out of the total.
	crossChans int
	interChans int

	next    []sim.Time // per-round scratch: each shard's earliest event
	busy    []*shardRT
	done    chan struct{}
	started bool
	closed  bool

	// Self-profiling (Network.SetProfiler): nil when off. winStart is
	// per-round scratch holding each busy shard's clock at window grant.
	prof     *telemetry.EngineProfiler
	winStart []sim.Time
}

// NumShards returns the number of shards in the group.
func (g *ShardGroup) NumShards() int { return len(g.rts) }

// Lookahead returns the tightest cross-shard window bound: the minimum
// off-diagonal entry of the lookahead matrix. A shard pair at this bound
// barriers most often; loosely coupled pairs run wider windows.
func (g *ShardGroup) Lookahead() sim.Time {
	min := farAway
	for j, row := range g.la {
		for i, v := range row {
			if i != j && v < min {
				min = v
			}
		}
	}
	return min
}

// LookaheadMatrix returns a copy of the closed per-shard-pair lookahead
// matrix: entry [j][i] is the minimum latency over chains of cross-shard
// scheduling edges from shard j to shard i (diagonal: the shortest
// round trip back to j). Unreachable pairs are effectively infinite.
func (g *ShardGroup) LookaheadMatrix() [][]sim.Time {
	out := make([][]sim.Time, len(g.la))
	for i, row := range g.la {
		out[i] = append([]sim.Time(nil), row...)
	}
	return out
}

// CutQuality returns the partition's cut: how many directed inter-switch
// channels cross a shard boundary, out of the total. Lower is better —
// cross channels cost staging and tighten the lookahead matrix.
func (g *ShardGroup) CutQuality() (cross, total int) {
	return g.crossChans, g.interChans
}

// LookaheadRange returns the smallest and largest finite off-diagonal
// entries of the lookahead matrix: the tightest and loosest coupling of
// any shard pair. (0, 0) when no pair is finitely coupled.
func (g *ShardGroup) LookaheadRange() (lo, hi sim.Time) {
	lo = farAway
	for j, row := range g.la {
		for i, v := range row {
			if i == j || v >= farAway {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if lo >= farAway {
		lo = 0
	}
	return lo, hi
}

// start spawns the shard workers on first use.
func (g *ShardGroup) start() {
	if g.started {
		return
	}
	g.started = true
	for _, rt := range g.rts {
		rt.work = make(chan windowReq, 1)
		go func(rt *shardRT) {
			for w := range rt.work {
				rt.runWindow(w)
				g.done <- struct{}{}
			}
		}(rt)
	}
}

// Close stops the shard workers. Idempotent — extra calls, and a call
// before any worker started, are no-ops. The group is unusable
// afterwards. Networks built with Shards=1 have no group to close.
func (g *ShardGroup) Close() {
	if g.closed {
		return
	}
	g.closed = true
	if !g.started {
		return
	}
	for _, rt := range g.rts {
		close(rt.work)
	}
}

// RunUntil advances the whole sharded simulation to the given time,
// with the semantics of sim.Engine.RunUntil: every event with timestamp
// <= until executes, and all clocks park on until.
func (g *ShardGroup) RunUntil(until sim.Time) {
	g.start()
	if g.prof != nil {
		g.prof.RunStarted()
		defer g.prof.RunStopped()
	}
	for {
		// The floor is the earliest shard clock: the instant the whole
		// simulation has provably completed. Every window end is capped
		// at the control engine's next event, so when the floor reaches
		// it every shard clock equals it exactly — the quiescent moment
		// control events require. Running the control plane to the floor
		// therefore fires them at precisely those instants (and control
		// uses lane 0, so at any one timestamp control precedes data).
		floor := g.rts[0].eng.Now()
		for _, rt := range g.rts[1:] {
			if t := rt.eng.Now(); t < floor {
				floor = t
			}
		}
		g.runCtrl(floor)
		g.drainStages()

		// Earliest pending work anywhere.
		next := farAway
		if at, ok := g.ctrl.NextAt(); ok {
			next = at
		}
		for _, rt := range g.rts {
			if at, ok := rt.eng.NextAt(); ok && at < next {
				next = at
			}
		}
		if next > until {
			// Nothing left inside the horizon: park every clock on it.
			// An empty RunUntil rather than AdvanceTo leaves each cut at
			// (until, MaxUint64), a serial run's, so credits returning
			// at until count as returned.
			for _, rt := range g.rts {
				rt.eng.RunUntil(until)
			}
			g.runCtrl(until)
			return
		}
		g.round(until)
	}
}

// runCtrl advances the control engine, timing the slice when profiling.
// Control events run sampler ticks and therefore possibly a profile
// snapshot, so the slice is accrued after the events execute — a mid-run
// snapshot sees every completed slice plus the live wall span.
func (g *ShardGroup) runCtrl(t sim.Time) {
	if g.prof == nil {
		g.ctrl.RunUntil(t)
		return
	}
	t0 := time.Now()
	p0 := g.ctrl.Processed()
	g.ctrl.RunUntil(t)
	g.prof.AddCtrl(time.Since(t0).Nanoseconds(), g.ctrl.Processed()-p0)
}

// round runs one set of per-shard conservative windows. Shard i's
// horizon is W_i = min(ctrlNext, min over j of N_j + la[j][i]): any
// event another shard stages toward i from here on lands at or after
// W_i, because it derives from some pending event (at >= N_j) through
// scheduling edges totalling at least la[j][i]. The diagonal term keeps
// a shard from outrunning its own echo (its packet's credit return).
// W_i never rewinds: each N_j is at least shard j's previous horizon,
// and la obeys the triangle inequality, so the bound only grows.
//
// When a shard's uncapped horizon clears the run horizon, nothing can
// arrive at or before until anymore and the window runs inclusively to
// until, matching serial RunUntil semantics. Shards with no work below
// their horizon jump straight to it; the rest run in parallel.
func (g *ShardGroup) round(until sim.Time) {
	ctrlNext := farAway
	if at, ok := g.ctrl.NextAt(); ok {
		ctrlNext = at
	}
	for i, rt := range g.rts {
		g.next[i] = farAway
		if at, ok := rt.eng.NextAt(); ok {
			g.next[i] = at
		}
	}
	prof := g.prof
	if prof != nil {
		prof.BeginRound()
	}
	busy := g.busy[:0]
	for i, rt := range g.rts {
		w := ctrlNext
		for j := range g.rts {
			if g.next[j] >= farAway {
				continue
			}
			if d := g.next[j] + g.la[j][i]; d < w {
				w = d
			}
		}
		req := windowReq{end: w}
		if w > until {
			req = windowReq{end: until, inclusive: true}
		}
		rt.win = req
		if at := g.next[i]; at < req.end || (req.inclusive && at == req.end && at < farAway) {
			if prof != nil {
				g.winStart[i] = rt.eng.Now()
			}
			busy = append(busy, rt)
		} else {
			if prof != nil {
				prof.ShardFastForward(i, int64(req.end-rt.eng.Now()))
			}
			rt.eng.AdvanceTo(req.end)
		}
	}
	g.busy = busy
	if len(busy) == 1 {
		// A single busy shard runs inline: no handoff, no wakeup.
		busy[0].runWindow(busy[0].win)
	} else {
		for _, rt := range busy {
			rt.work <- rt.win
		}
		for range busy {
			<-g.done
		}
	}
	if prof != nil {
		// Workers are parked again: fold their window numbers in and
		// settle the round's laggard / barrier-wait attribution.
		for _, rt := range busy {
			granted := int64(rt.win.end - g.winStart[rt.id])
			prof.ShardBusy(rt.id, granted, rt.winUsedPs, rt.winWallNs, rt.winEvents)
		}
		prof.EndRound()
	}
	g.drainStages()
}

// drainStages moves staged cross-shard events onto their destination
// heaps, applies deferred message-teardown deletions, and returns freed
// packets to the shards that cut them. Called only at barriers, with
// every worker quiescent. Push order does not matter: each event
// carries the ordering key drawn from its source lane.
//
// Drained slices are swapped into a per-shard free list rather than
// truncated in place, so a destination whose buffer happened to grow
// large keeps feeding capacity back to whichever destination needs it
// next — staging stays allocation-free in steady state at any shard
// count.
func (g *ShardGroup) drainStages() {
	prof := g.prof
	var t0 time.Time
	if prof != nil {
		t0 = time.Now()
	}
	for _, src := range g.rts {
		for d, evs := range src.stage {
			if len(evs) == 0 {
				continue
			}
			if prof != nil {
				// Count the exchange before the buffer is cleared: every
				// staged event, and the packet payload bytes among them
				// (credit returns carry no payload).
				var bytes int64
				for i := range evs {
					if pkt, ok := evs[i].arg.(*Packet); ok {
						bytes += int64(pkt.Size)
					}
				}
				prof.Exchange(src.id, d, int64(len(evs)), bytes)
			}
			eng := g.rts[d].eng
			for i := range evs {
				ev := &evs[i]
				if ev.fn == nil {
					ev.arg.(*Chan).returnCredit(ev.at, ev.key, ev.n)
					continue
				}
				eng.PushKeyed(ev.at, ev.key, ev.fn, ev.arg, ev.n)
			}
			clear(evs) // release the args for GC
			src.stageFree = append(src.stageFree, evs[:0])
			src.stage[d] = nil
		}
		for d, ids := range src.msgDead {
			if len(ids) == 0 {
				continue
			}
			dst := g.rts[d]
			for _, id := range ids {
				dst.msgRemaining.lose(id)
			}
			src.msgDead[d] = ids[:0]
		}
		for d, pkts := range src.pktHome {
			if len(pkts) == 0 {
				continue
			}
			home := g.rts[d]
			home.pktFree = append(home.pktFree, pkts...)
			src.pktHome[d] = pkts[:0]
		}
	}
	if prof != nil {
		// Each engine keeps its own queue-depth high-water mark, staged
		// arrivals included.
		for _, rt := range g.rts {
			prof.NotePending(rt.id, rt.eng.PeakPending())
		}
		prof.AddDrain(time.Since(t0).Nanoseconds())
	}
}

// buildShards partitions the network and creates the per-shard runtimes.
// The topology picks the split (topo.PartitionOf): structure-aware cuts
// for the regular topologies, balanced contiguous ranges otherwise.
// Hosts follow the switch they attach to, so host<->switch channels
// never cross a shard boundary and only switch<->switch channels need
// staging. The lookahead matrix is computed after wiring, in
// finishShards.
func (n *Network) buildShards(e *sim.Engine, nsh int) error {
	numSw := n.T.NumSwitches()
	if nsh > numSw {
		nsh = numSw
	}
	if nsh > 1 {
		if n.Cfg.WireDelay+n.Cfg.RoutingDelay <= 0 || n.Cfg.CreditDelay <= 0 {
			return fmt.Errorf("fabric: Shards=%d needs positive cross-shard latency "+
				"(WireDelay+RoutingDelay=%v, CreditDelay=%v)",
				nsh, n.Cfg.WireDelay+n.Cfg.RoutingDelay, n.Cfg.CreditDelay)
		}
	}
	n.swShard = topo.PartitionOf(n.T, nsh)
	n.rts = make([]*shardRT, nsh)
	for i := range n.rts {
		rt := &shardRT{id: i, net: n, eng: e, msgRemaining: msgWindow{shards: nsh}}
		if nsh > 1 {
			rt.eng = sim.New()
			rt.stage = make([][]stagedEvent, nsh)
			rt.msgDead = make([][]int64, nsh)
			rt.pktHome = make([][]*Packet, nsh)
		}
		n.rts[i] = rt
	}
	if nsh > 1 {
		n.group = &ShardGroup{
			net:  n,
			ctrl: e,
			rts:  n.rts,
			next: make([]sim.Time, nsh),
			busy: make([]*shardRT, 0, nsh),
			done: make(chan struct{}, nsh),
		}
	}
	return nil
}

// finishShards runs after the channels are wired: it derives the
// lookahead matrix and the partition's cut quality from the actual
// cross-shard channels.
func (n *Network) finishShards() {
	g := n.group
	if g == nil {
		return
	}
	nsh := len(g.rts)
	la := make([][]sim.Time, nsh)
	for i := range la {
		la[i] = make([]sim.Time, nsh)
		for j := range la[i] {
			la[i][j] = farAway
		}
	}
	// Direct edges. A cross-shard channel contributes two scheduling
	// edges: the packet arrival src->dst (staged at transmit start, lands
	// WireDelay+RoutingDelay later; cross-shard destinations are always
	// switches — hosts share their switch's shard) and the credit return
	// dst->src (staged at arrival, due CreditDelay later).
	hop := n.Cfg.WireDelay + n.Cfg.RoutingDelay
	for _, c := range n.chans {
		if c.Src.Kind == topo.KindSwitch && c.Dst.Kind == topo.KindSwitch {
			g.interChans++
		}
		if c.sameShard {
			continue
		}
		g.crossChans++
		s, d := c.srcRT.id, c.dstRT.id
		if hop < la[s][d] {
			la[s][d] = hop
		}
		if n.Cfg.CreditDelay < la[d][s] {
			la[d][s] = n.Cfg.CreditDelay
		}
	}
	// Min-plus closure (Floyd–Warshall): influence propagates
	// transitively — shard a can reach shard c through b over successive
	// windows — so the safe bound for a pair is its cheapest chain. The
	// diagonal starts unreachable and closes to the cheapest round trip,
	// e.g. a packet out and its credit home. The closure also gives the
	// triangle inequality that makes per-shard windows monotone.
	for k := 0; k < nsh; k++ {
		lak := la[k]
		for i := 0; i < nsh; i++ {
			ik := la[i][k]
			if ik >= farAway {
				continue
			}
			lai := la[i]
			for j := 0; j < nsh; j++ {
				if d := ik + lak[j]; d < lai[j] {
					lai[j] = d
				}
			}
		}
	}
	g.la = la
}

// switchShard maps a switch index to its owning shard.
func (n *Network) switchShard(sw int) *shardRT {
	return n.rts[n.swShard[sw]]
}

// SwitchShard returns the shard that owns switch sw.
func (n *Network) SwitchShard(sw int) int { return n.swShard[sw] }

// Sharding returns the shard coordinator, or nil for a serial network.
// Callers driving a sharded network directly (rather than through the
// epnet Run API) must use ShardGroup.RunUntil instead of Engine.Run and
// call Close when done.
func (n *Network) Sharding() *ShardGroup { return n.group }

// NumShards returns the number of shards the fabric is partitioned into
// (1 for a serial network).
func (n *Network) NumShards() int { return len(n.rts) }

// HostShard returns the shard that owns host h — the shard on which
// OnDeliver and OnMessageDone fire for packets and messages destined to
// h. Callbacks on a sharded network must keep per-shard state indexed by
// this (the epnet runner does), because shards run concurrently.
func (n *Network) HostShard(h int) int { return n.Hosts[h].rt.id }

// SetProfiler attaches (or with nil, detaches) an engine self-profiler.
// Call it while the network is quiescent — before the first RunUntil,
// or between runs — never mid-run. The profiler observes the engine
// from outside the deterministic path: all hooks run at window
// granularity or at barriers, nothing registers with the telemetry
// registry, so results and sampled CSVs are byte-identical with
// profiling on or off.
func (n *Network) SetProfiler(p *telemetry.EngineProfiler) {
	n.prof = p
	g := n.group
	if g == nil {
		return
	}
	g.prof = p
	for _, rt := range g.rts {
		rt.profiled = p != nil
	}
	if p != nil {
		if g.winStart == nil {
			g.winStart = make([]sim.Time, len(g.rts))
		}
		cross, total := g.CutQuality()
		lo, hi := g.LookaheadRange()
		p.SetPartition(cross, total, int64(lo), int64(hi))
	}
}

// SetFlowCollector attaches (or with nil, detaches) a flow-trace
// collector: from then on injected packets are hash-sampled and carry
// hop logs (see telemetry.FlowCollector). Call while the network is
// quiescent — before the first RunUntil, or between runs — never
// mid-run. It is the network's one packet tracer, and it works at any
// shard count: every hook writes only packet-owned or shard-owned
// single-writer state, and the collector merges at quiescent points, so
// traced Results, and the Chrome trace rendered from them, stay
// byte-identical across shard counts.
func (n *Network) SetFlowCollector(fc *telemetry.FlowCollector) {
	n.flow = fc
}

// FlowCollector returns the attached flow-trace collector, or nil.
func (n *Network) FlowCollector() *telemetry.FlowCollector { return n.flow }

// RunUntil advances the simulation to the given time: the shard group's
// windowed loop when sharded, the engine directly when serial.
func (n *Network) RunUntil(until sim.Time) {
	if n.group != nil {
		n.group.RunUntil(until)
		return
	}
	if p := n.prof; p != nil {
		// Serial profiled run: one engine, no rounds — the whole slice
		// is shard 0 busy time (control and data share the engine).
		t0 := time.Now()
		p0 := n.E.Processed()
		p.RunStarted()
		n.E.RunUntil(until)
		p.RunStopped()
		p.AddSerial(time.Since(t0).Nanoseconds(), n.E.Processed()-p0)
		p.NotePending(0, n.E.PeakPending())
		return
	}
	n.E.RunUntil(until)
}

// Close releases the shard workers (no-op for serial networks).
func (n *Network) Close() {
	if n.group != nil {
		n.group.Close()
	}
}

// EventsProcessed returns events executed across every engine of the
// network (control plus shards). For a serial network this is exactly
// Engine.Processed.
func (n *Network) EventsProcessed() uint64 {
	if n.group == nil {
		return n.E.Processed()
	}
	total := n.E.Processed()
	for _, rt := range n.rts {
		total += rt.eng.Processed()
	}
	return total
}

// PendingEvents returns queued events across every engine of the network.
func (n *Network) PendingEvents() int {
	if n.group == nil {
		return n.E.Pending()
	}
	total := n.E.Pending()
	for _, rt := range n.rts {
		total += rt.eng.Pending()
	}
	return total
}
