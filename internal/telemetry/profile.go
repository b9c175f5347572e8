package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"

	"epnet/internal/sim"
)

// This file turns the telemetry layer inward: EngineProfiler observes
// the simulation engine itself — wall-clock time per shard window,
// barrier waits, granted-vs-used window width, cross-shard exchange
// volume — instead of the simulated network. It exists to answer one
// question for every future performance PR: when the multi-core scaling
// curve disappoints, *which* cost is to blame (laggard shards, barrier
// frequency, narrow windows, exchange volume, control-plane time)?
//
// Design constraints, in order:
//
//  1. The deterministic simulation must not notice the profiler. Every
//     hook runs at window barriers or around whole windows — never per
//     packet or per event — and the profiler registers nothing with the
//     metric registry, so Result, sampled CSVs, and attribution stay
//     byte-identical with profiling on or off.
//  2. Zero allocations while the simulation runs. All per-shard and
//     per-pair aggregates are pre-sized at construction; the per-round
//     feed writes into them in place. Snapshot (barrier/end-of-run
//     only) is the one allocating call.
//  3. Single-goroutine writes. The shard coordinator owns every mutating
//     call; shard workers never touch the profiler (their per-window
//     numbers ride on shard-owned fields and are folded in after the
//     barrier). Snapshot may only be called from the same goroutine —
//     in practice the control plane at quiescent instants, or after the
//     run returns.
type EngineProfiler struct {
	nshards int

	// Whole-run aggregates.
	rounds     int64
	wallNs     int64 // wall time inside Run* calls (live part via runStart)
	critNs     int64 // sum over rounds of the slowest busy window
	drainNs    int64 // staged-exchange drain time at barriers
	ctrlNs     int64 // control-plane slices between rounds
	ctrlEvents uint64

	// Per-shard aggregates, indexed by shard ID.
	busyNs     []int64 // wall time executing own windows
	waitNs     []int64 // busy rounds: laggard's wall minus own
	idleNs     []int64 // rounds fast-forwarded with no work
	events     []uint64
	busyRounds []int64
	ffRounds   []int64
	laggard    []int64 // rounds this shard was the slowest busy window
	grantedPs  []int64 // simulated window width granted (busy rounds)
	usedPs     []int64 // simulated advance up to the last executed event
	ffPs       []int64 // simulated advance taken analytically
	peakPend   []int64 // event-queue depth high-water mark at barriers

	// Cross-shard exchange, flattened [src*nshards+dst].
	exchEvents []int64
	exchBytes  []int64

	// Partition quality, from the shard group at attach time.
	cutCross int
	cutTotal int
	laMinPs  int64
	laMaxPs  int64

	// Per-round scratch: wall ns of each busy shard's window, -1 = idle.
	rdur []int64

	// Live-run marker so mid-run snapshots (the /profile endpoint) see
	// wall time accrued by the Run* call still in flight.
	running  bool
	runStart time.Time
}

// NewEngineProfiler returns a profiler for a simulation with nshards
// data-plane shards (1 for a serial engine). All per-shard storage is
// allocated here; the per-round feed never allocates.
func NewEngineProfiler(nshards int) *EngineProfiler {
	if nshards < 1 {
		nshards = 1
	}
	return &EngineProfiler{
		nshards:    nshards,
		busyNs:     make([]int64, nshards),
		waitNs:     make([]int64, nshards),
		idleNs:     make([]int64, nshards),
		events:     make([]uint64, nshards),
		busyRounds: make([]int64, nshards),
		ffRounds:   make([]int64, nshards),
		laggard:    make([]int64, nshards),
		grantedPs:  make([]int64, nshards),
		usedPs:     make([]int64, nshards),
		ffPs:       make([]int64, nshards),
		peakPend:   make([]int64, nshards),
		exchEvents: make([]int64, nshards*nshards),
		exchBytes:  make([]int64, nshards*nshards),
		rdur:       make([]int64, nshards),
	}
}

// SetPartition records the partition's cut quality (directed
// inter-switch channels crossing a shard boundary, out of the total)
// and the finite off-diagonal range of the lookahead matrix, both in
// picoseconds.
func (p *EngineProfiler) SetPartition(cross, total int, laMinPs, laMaxPs int64) {
	p.cutCross, p.cutTotal = cross, total
	p.laMinPs, p.laMaxPs = laMinPs, laMaxPs
}

// RunStarted marks the beginning of a coordinator Run* call so mid-run
// snapshots count its elapsed wall time; RunStopped folds it in.
func (p *EngineProfiler) RunStarted() {
	p.running = true
	p.runStart = time.Now()
}

// RunStopped ends the span opened by RunStarted.
func (p *EngineProfiler) RunStopped() {
	if p.running {
		p.wallNs += time.Since(p.runStart).Nanoseconds()
		p.running = false
	}
}

// AddCtrl accrues one control-plane slice: wall time and events
// executed by the control engine between rounds.
func (p *EngineProfiler) AddCtrl(ns int64, events uint64) {
	p.ctrlNs += ns
	p.ctrlEvents += events
}

// AddDrain accrues one barrier's staged-exchange drain time.
func (p *EngineProfiler) AddDrain(ns int64) { p.drainNs += ns }

// AddSerial accrues one serial-engine run slice: with a single engine
// there are no rounds or barriers, so the whole slice is busy time and
// critical path on shard 0 (control and data plane share the engine
// and are indistinguishable here). Wall time is accrued separately by
// the surrounding RunStarted/RunStopped span.
func (p *EngineProfiler) AddSerial(ns int64, events uint64) {
	p.busyNs[0] += ns
	p.critNs += ns
	p.events[0] += events
}

// BeginRound resets the per-round scratch. One BeginRound /
// ShardBusy|ShardFastForward* / EndRound cycle per coordinator round.
func (p *EngineProfiler) BeginRound() {
	for i := range p.rdur {
		p.rdur[i] = -1
	}
}

// ShardBusy records one executed window: the simulated width granted
// and used (picoseconds), the wall time the window took, and the
// events it executed.
func (p *EngineProfiler) ShardBusy(shard int, grantedPs, usedPs, wallNs int64, events uint64) {
	p.rdur[shard] = wallNs
	p.busyNs[shard] += wallNs
	p.busyRounds[shard]++
	p.grantedPs[shard] += grantedPs
	p.usedPs[shard] += usedPs
	p.events[shard] += events
}

// ShardFastForward records a round in which the shard had no work below
// its horizon and jumped its clock analytically.
func (p *EngineProfiler) ShardFastForward(shard int, advancePs int64) {
	p.ffRounds[shard]++
	p.ffPs[shard] += advancePs
}

// EndRound closes one round: it identifies the laggard (the slowest
// busy window — the shard that set the barrier), charges every other
// busy shard the difference as barrier wait, charges fast-forwarded
// shards the whole round as idle, and extends the critical path.
func (p *EngineProfiler) EndRound() {
	p.rounds++
	max, arg := int64(-1), -1
	for i, d := range p.rdur {
		if d > max {
			max, arg = d, i
		}
	}
	if arg < 0 || max < 0 {
		return // no busy shard this round (pure fast-forward)
	}
	p.laggard[arg]++
	p.critNs += max
	for i, d := range p.rdur {
		if d < 0 {
			p.idleNs[i] += max
		} else {
			p.waitNs[i] += max - d
		}
	}
}

// Exchange accrues staged cross-shard traffic drained at a barrier:
// the events and credit returns src staged toward dst, and the packet
// payload bytes among them.
func (p *EngineProfiler) Exchange(src, dst int, events, bytes int64) {
	p.exchEvents[src*p.nshards+dst] += events
	p.exchBytes[src*p.nshards+dst] += bytes
}

// NotePending raises a shard's event-queue depth high-water mark to
// pending, the engine's own mark (sim.Engine.PeakPending). The fabric
// notes it at barriers and after a serial run.
func (p *EngineProfiler) NotePending(shard, pending int) {
	if int64(pending) > p.peakPend[shard] {
		p.peakPend[shard] = int64(pending)
	}
}

// ShardProfile is one shard's aggregate of the engine self-profile.
// Wall-clock fields are real time the run spent; "Sim" fields are
// simulated time (window widths and advances).
type ShardProfile struct {
	Shard int `json:"shard"`

	// BusyWall is wall time executing this shard's windows; BarrierWait
	// is time spent parked at round barriers waiting for the laggard;
	// IdleWall is time covered by rounds in which the shard had no work
	// and fast-forwarded.
	BusyWall    time.Duration `json:"busy_wall_ns"`
	BarrierWait time.Duration `json:"barrier_wait_ns"`
	IdleWall    time.Duration `json:"idle_wall_ns"`

	// Events executed by this shard's engine.
	Events uint64 `json:"events"`

	// BusyRounds ran a window; FastForwardRounds jumped the clock
	// analytically; LaggardRounds are busy rounds in which this shard
	// had the slowest window and therefore set the barrier —
	// LaggardShare is that count over all laggard-bearing rounds.
	BusyRounds        int64   `json:"busy_rounds"`
	FastForwardRounds int64   `json:"fast_forward_rounds"`
	LaggardRounds     int64   `json:"laggard_rounds"`
	LaggardShare      float64 `json:"laggard_share"`

	// GrantedSim is the simulated window width the coordinator granted;
	// UsedSim the advance up to the last event actually executed.
	// WindowEfficiency = UsedSim / GrantedSim. FastForwardSim is the
	// advance taken analytically (no events).
	GrantedSim       time.Duration `json:"granted_sim_ns"`
	UsedSim          time.Duration `json:"used_sim_ns"`
	FastForwardSim   time.Duration `json:"fast_forward_sim_ns"`
	WindowEfficiency float64       `json:"window_efficiency"`

	// PeakPending is the most events the shard's engine ever held
	// pending at once.
	PeakPending int64 `json:"peak_pending"`

	// StagedOutEvents / StagedOutBytes total the cross-shard traffic
	// this shard staged toward all others (row sum of the exchange
	// matrices).
	StagedOutEvents int64 `json:"staged_out_events"`
	StagedOutBytes  int64 `json:"staged_out_bytes"`
}

// EngineProfile is the engine's self-profile over a run: where the wall
// time went (per-shard busy / barrier-wait / idle, control plane,
// exchange drains), how wide the conservative windows were versus how
// much of them was used, and which shards set the barriers. It contains
// wall-clock measurements and is therefore not deterministic.
type EngineProfile struct {
	Shards []ShardProfile `json:"shards"`

	// Rounds is the number of coordinator rounds (0 for a serial run).
	Rounds int64 `json:"rounds"`

	// Wall is wall time inside the coordinator's run calls.
	// CriticalPath sums, over rounds, the slowest busy window — the
	// engine-side lower bound on wall time. BarrierOverhead is the
	// fraction of Wall not covered by CriticalPath: coordination cost
	// (handoffs, drains, control plane) rather than laggard work.
	Wall            time.Duration `json:"wall_ns"`
	CriticalPath    time.Duration `json:"critical_path_ns"`
	BarrierOverhead float64       `json:"barrier_overhead"`

	// DrainWall is wall time draining staged cross-shard events at
	// barriers; CtrlWall and CtrlEvents cover the control engine
	// (injection, controller epochs, faults, telemetry sampling).
	DrainWall  time.Duration `json:"drain_wall_ns"`
	CtrlWall   time.Duration `json:"ctrl_wall_ns"`
	CtrlEvents uint64        `json:"ctrl_events"`

	// WindowEfficiency is the aggregate used/granted window fraction.
	WindowEfficiency float64 `json:"window_efficiency"`

	// ExchangeEvents[src][dst] / ExchangeBytes[src][dst]: the shard x
	// shard traffic matrix of staged events and credit returns drained
	// from src to dst, and the packet payload bytes among them (credit
	// returns carry none).
	ExchangeEvents [][]int64 `json:"exchange_events,omitempty"`
	ExchangeBytes  [][]int64 `json:"exchange_bytes,omitempty"`

	// Partition quality: directed inter-switch channels crossing a
	// shard boundary out of the total, and the finite range of the
	// per-pair lookahead matrix.
	CutChannels   int           `json:"cut_channels"`
	TotalChannels int           `json:"total_channels"`
	LookaheadMin  time.Duration `json:"lookahead_min_ns"`
	LookaheadMax  time.Duration `json:"lookahead_max_ns"`
}

// TotalEvents returns data-plane events executed across all shards.
func (p *EngineProfile) TotalEvents() uint64 {
	var n uint64
	for i := range p.Shards {
		n += p.Shards[i].Events
	}
	return n
}

// ExchangeTotals returns the total staged cross-shard events and
// payload bytes.
func (p *EngineProfile) ExchangeTotals() (events, bytes int64) {
	for i := range p.Shards {
		events += p.Shards[i].StagedOutEvents
		bytes += p.Shards[i].StagedOutBytes
	}
	return events, bytes
}

// ratio returns num/den, or 0 when den is not positive.
func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// simDuration converts simulated picoseconds to a time.Duration
// (truncating to nanoseconds).
func simDuration(ps int64) time.Duration { return time.Duration(ps / int64(sim.Nanosecond)) }

// Snapshot returns a copy of the current aggregates. It allocates and
// must only be called from the goroutine feeding the profiler — the
// control plane at a quiescent barrier, or the caller after the run.
func (p *EngineProfiler) Snapshot() *EngineProfile {
	wallNs := p.wallNs
	if p.running {
		wallNs += time.Since(p.runStart).Nanoseconds()
	}
	out := &EngineProfile{
		Shards:         make([]ShardProfile, p.nshards),
		Rounds:         p.rounds,
		Wall:           time.Duration(wallNs),
		CriticalPath:   time.Duration(p.critNs),
		DrainWall:      time.Duration(p.drainNs),
		CtrlWall:       time.Duration(p.ctrlNs),
		CtrlEvents:     p.ctrlEvents,
		ExchangeEvents: make([][]int64, p.nshards),
		ExchangeBytes:  make([][]int64, p.nshards),
		CutChannels:    p.cutCross,
		TotalChannels:  p.cutTotal,
		LookaheadMin:   simDuration(p.laMinPs),
		LookaheadMax:   simDuration(p.laMaxPs),
	}
	// Barrier overhead: the fraction of wall time not covered by the
	// critical path, clamped at 0 (crit can exceed wall at ns
	// granularity). Zero for serial runs by construction.
	if wallNs > 0 {
		out.BarrierOverhead = max(0, 1-float64(p.critNs)/float64(wallNs))
	}
	var granted, used, laggards int64
	for i := 0; i < p.nshards; i++ {
		granted += p.grantedPs[i]
		used += p.usedPs[i]
		laggards += p.laggard[i]
	}
	out.WindowEfficiency = ratio(used, granted)
	for i := 0; i < p.nshards; i++ {
		sp := ShardProfile{
			Shard:             i,
			BusyWall:          time.Duration(p.busyNs[i]),
			BarrierWait:       time.Duration(p.waitNs[i]),
			IdleWall:          time.Duration(p.idleNs[i]),
			Events:            p.events[i],
			BusyRounds:        p.busyRounds[i],
			FastForwardRounds: p.ffRounds[i],
			LaggardRounds:     p.laggard[i],
			LaggardShare:      ratio(p.laggard[i], laggards),
			GrantedSim:        simDuration(p.grantedPs[i]),
			UsedSim:           simDuration(p.usedPs[i]),
			FastForwardSim:    simDuration(p.ffPs[i]),
			WindowEfficiency:  ratio(p.usedPs[i], p.grantedPs[i]),
			PeakPending:       p.peakPend[i],
		}
		out.ExchangeEvents[i] = append([]int64(nil), p.exchEvents[i*p.nshards:(i+1)*p.nshards]...)
		out.ExchangeBytes[i] = append([]int64(nil), p.exchBytes[i*p.nshards:(i+1)*p.nshards]...)
		for j := range out.ExchangeEvents[i] {
			sp.StagedOutEvents += out.ExchangeEvents[i][j]
			sp.StagedOutBytes += out.ExchangeBytes[i][j]
		}
		out.Shards[i] = sp
	}
	return out
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// WriteReport writes the human-readable critical-path report: the
// whole-run summary, the per-shard table, and the ranked laggard table
// answering "which shard set the barrier, how often, and at what
// cost". This is what `epsim -profile` prints.
func (p *EngineProfile) WriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	nsh := len(p.Shards)
	fmt.Fprintf(bw, "engine profile: %d shard(s), %d round(s), wall %v\n",
		nsh, p.Rounds, p.Wall.Round(time.Microsecond))
	fmt.Fprintf(bw, "  critical path %v (barrier overhead %s of wall)\n",
		p.CriticalPath.Round(time.Microsecond), pct(p.BarrierOverhead))
	fmt.Fprintf(bw, "  control plane %v (%d events), exchange drain %v\n",
		p.CtrlWall.Round(time.Microsecond), p.CtrlEvents,
		p.DrainWall.Round(time.Microsecond))
	if p.TotalChannels > 0 {
		fmt.Fprintf(bw, "  partition: %d/%d inter-switch channels cross shards (%s), lookahead %v..%v\n",
			p.CutChannels, p.TotalChannels,
			pct(float64(p.CutChannels)/float64(p.TotalChannels)),
			p.LookaheadMin, p.LookaheadMax)
	}
	if nsh > 1 {
		fmt.Fprintf(bw, "  window efficiency %s (used/granted simulated width)\n",
			pct(p.WindowEfficiency))
		ev, by := p.ExchangeTotals()
		fmt.Fprintf(bw, "  cross-shard exchange: %d events, %d payload bytes\n", ev, by)
	}

	fmt.Fprintf(bw, "%-6s %12s %12s %12s %12s %8s %8s %8s %7s %9s\n",
		"shard", "busy", "wait", "idle", "events",
		"rounds", "ff", "laggard", "weff", "peak-q")
	for i := range p.Shards {
		s := &p.Shards[i]
		fmt.Fprintf(bw, "%-6d %12v %12v %12v %12d %8d %8d %8d %7s %9d\n",
			s.Shard,
			s.BusyWall.Round(time.Microsecond),
			s.BarrierWait.Round(time.Microsecond),
			s.IdleWall.Round(time.Microsecond),
			s.Events, s.BusyRounds, s.FastForwardRounds, s.LaggardRounds,
			pct(s.WindowEfficiency), s.PeakPending)
	}

	// Ranked laggard table: who set the barrier, and what everyone else
	// paid waiting for them.
	order := make([]int, nsh)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &p.Shards[order[a]], &p.Shards[order[b]]
		if sa.LaggardRounds != sb.LaggardRounds {
			return sa.LaggardRounds > sb.LaggardRounds
		}
		return order[a] < order[b]
	})
	printed := false
	for _, i := range order {
		s := &p.Shards[i]
		if s.LaggardRounds == 0 {
			continue
		}
		if !printed {
			fmt.Fprintln(bw, "critical path (ranked):")
			printed = true
		}
		fmt.Fprintf(bw, "  shard %d set the barrier %s of rounds (%d), busy %v, staged out %d events\n",
			s.Shard, pct(s.LaggardShare), s.LaggardRounds,
			s.BusyWall.Round(time.Microsecond), s.StagedOutEvents)
	}
	return bw.Flush()
}

// WriteCSV writes the profile as CSV: '#'-prefixed whole-run summary
// lines, then one row per shard.
func (p *EngineProfile) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# rounds=%d wall_ns=%d critical_path_ns=%d barrier_overhead=%.6f\n",
		p.Rounds, int64(p.Wall), int64(p.CriticalPath), p.BarrierOverhead)
	fmt.Fprintf(bw, "# drain_wall_ns=%d ctrl_wall_ns=%d ctrl_events=%d window_efficiency=%.6f\n",
		int64(p.DrainWall), int64(p.CtrlWall), p.CtrlEvents, p.WindowEfficiency)
	fmt.Fprintf(bw, "# cut_channels=%d total_channels=%d lookahead_min_ns=%d lookahead_max_ns=%d\n",
		p.CutChannels, p.TotalChannels, int64(p.LookaheadMin), int64(p.LookaheadMax))
	fmt.Fprintln(bw, "shard,busy_wall_ns,barrier_wait_ns,idle_wall_ns,events,"+
		"busy_rounds,fast_forward_rounds,laggard_rounds,laggard_share,"+
		"granted_sim_ns,used_sim_ns,fast_forward_sim_ns,window_efficiency,"+
		"peak_pending,staged_out_events,staged_out_bytes")
	for i := range p.Shards {
		s := &p.Shards[i]
		fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%d,%d,%d,%.6f,%d,%d,%d\n",
			s.Shard, int64(s.BusyWall), int64(s.BarrierWait), int64(s.IdleWall),
			s.Events, s.BusyRounds, s.FastForwardRounds, s.LaggardRounds,
			s.LaggardShare, int64(s.GrantedSim), int64(s.UsedSim),
			int64(s.FastForwardSim), s.WindowEfficiency,
			s.PeakPending, s.StagedOutEvents, s.StagedOutBytes)
	}
	return bw.Flush()
}
