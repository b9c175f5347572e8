package fabric

import (
	"math/rand"
	"testing"

	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// TestProfiledRunMatchesUnprofiled is the profiler's core guarantee:
// attaching an EngineProfiler must not perturb the simulation. Every
// fingerprint — counters, per-host delivery times, per-channel traffic —
// must match the unprofiled run exactly, at every shard count, with and
// without mid-run faults.
func TestProfiledRunMatchesUnprofiled(t *testing.T) {
	for _, faults := range []bool{false, true} {
		tag := "clean+profile"
		if faults {
			tag = "faults+profile"
		}
		for _, shards := range []int{1, 2, 4} {
			want := runSharded(t, shards, faults, nil)
			got := runSharded(t, shards, faults, telemetry.NewEngineProfiler(shards))
			diffFingerprints(t, tag, want, got)
		}
	}
}

// TestShardedProfileSanity checks the profile of a real sharded run is
// internally consistent: every data-plane and control event is
// attributed to exactly one shard or the control engine, window grants
// bound window use, the exchange matrix saw the cross-shard traffic,
// and the partition fields carry the cut quality and lookahead range.
func TestShardedProfileSanity(t *testing.T) {
	const shards = 4
	prof := telemetry.NewEngineProfiler(shards)
	fp := runSharded(t, shards, false, prof)
	s := prof.Snapshot()

	if s.Rounds == 0 {
		t.Fatal("profile recorded no rounds")
	}
	if s.Wall <= 0 || s.CriticalPath <= 0 {
		t.Errorf("wall %v / critical path %v, want both > 0", s.Wall, s.CriticalPath)
	}
	if ov := s.BarrierOverhead; ov < 0 || ov > 1 {
		t.Errorf("BarrierOverhead = %v, want within [0, 1]", ov)
	}
	if s.TotalEvents() == 0 {
		t.Fatal("profile attributed no data-plane events")
	}
	if got := s.TotalEvents() + s.CtrlEvents; got != fp.events {
		t.Errorf("attributed events = %d (data) + %d (ctrl) = %d, want %d processed",
			s.TotalEvents(), s.CtrlEvents, got, fp.events)
	}
	var laggards, peak int64
	for _, sh := range s.Shards {
		if sh.UsedSim > sh.GrantedSim {
			t.Errorf("shard %d used %v of a %v grant", sh.Shard, sh.UsedSim, sh.GrantedSim)
		}
		if sh.BusyRounds+sh.FastForwardRounds > s.Rounds {
			t.Errorf("shard %d: %d busy + %d fast-forward rounds out of %d total",
				sh.Shard, sh.BusyRounds, sh.FastForwardRounds, s.Rounds)
		}
		if eff := sh.WindowEfficiency; eff < 0 || eff > 1 {
			t.Errorf("shard %d: WindowEfficiency = %v, want within [0, 1]", sh.Shard, eff)
		}
		laggards += sh.LaggardRounds
		if sh.PeakPending > peak {
			peak = sh.PeakPending
		}
	}
	if laggards == 0 || laggards > s.Rounds {
		t.Errorf("%d laggard rounds out of %d, want within [1, rounds]", laggards, s.Rounds)
	}
	if peak == 0 {
		t.Error("no shard recorded a nonzero event-queue high-water mark")
	}

	ev, bytes := s.ExchangeTotals()
	if ev == 0 || bytes == 0 {
		t.Errorf("exchange totals = (%d events, %d bytes), want both > 0 on an 8-switch clique", ev, bytes)
	}
	for i := range s.ExchangeEvents {
		if s.ExchangeEvents[i][i] != 0 {
			t.Errorf("shard %d staged events to itself", i)
		}
	}

	if s.CutChannels == 0 || s.TotalChannels == 0 || s.CutChannels > s.TotalChannels {
		t.Errorf("cut quality = %d/%d, want a nonzero cut within the total", s.CutChannels, s.TotalChannels)
	}
	if s.LookaheadMin <= 0 || s.LookaheadMax < s.LookaheadMin {
		t.Errorf("lookahead range = [%v, %v], want 0 < min <= max", s.LookaheadMin, s.LookaheadMax)
	}
}

// TestSerialProfileSanity checks the degenerate single-engine profile:
// the whole run lands on shard 0 as busy time, there are no rounds or
// barriers, and barrier overhead reads ~0 rather than garbage.
func TestSerialProfileSanity(t *testing.T) {
	prof := telemetry.NewEngineProfiler(1)
	fp := runSharded(t, 1, false, prof)
	s := prof.Snapshot()
	if s.Rounds != 0 {
		t.Errorf("serial profile recorded %d rounds, want 0", s.Rounds)
	}
	if s.Shards[0].BusyWall <= 0 || s.Wall <= 0 {
		t.Errorf("busy %v / wall %v, want both > 0", s.Shards[0].BusyWall, s.Wall)
	}
	if s.TotalEvents() != fp.events {
		t.Errorf("attributed %d events, want %d processed", s.TotalEvents(), fp.events)
	}
	if ev, _ := s.ExchangeTotals(); ev != 0 {
		t.Errorf("serial run staged %d cross-shard events", ev)
	}
	// The traffic drains long before the run ends, so a depth read at
	// the end would be 0; the engine's own mark is the true peak.
	if s.Shards[0].PeakPending == 0 {
		t.Error("serial profile recorded no event-queue high-water mark")
	}
}

// TestZeroAllocPacketPathWithProfile proves the profiling acceptance
// criterion the same way TestZeroAllocPacketPathWithMetrics does for
// metrics: with a profiler attached, the steady-state packet path adds
// zero allocations per packet. The profiler's run-slice bookkeeping is
// plain field writes, so the differential must be zero.
func TestZeroAllocPacketPathWithProfile(t *testing.T) {
	const batch = 256
	build := func(withProfile bool) func() {
		e := sim.New()
		f := topo.MustFBFLY(8, 2, 8)
		n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if withProfile {
			n.SetProfiler(telemetry.NewEngineProfiler(n.NumShards()))
		}
		rng := rand.New(rand.NewSource(1))
		var horizon sim.Time
		inject := func() {
			for j := 0; j < batch; j++ {
				src, dst := rng.Intn(64), rng.Intn(64)
				if dst == src {
					dst = (dst + 1) % 64
				}
				n.InjectMessage(src, dst, 2048)
			}
			horizon += sim.Millisecond
			n.RunUntil(horizon)
		}
		// Reach steady state first so free lists and queues are warm.
		inject()
		inject()
		return inject
	}
	plain := testing.AllocsPerRun(20, build(false))
	profiled := testing.AllocsPerRun(20, build(true))
	if profiled > plain {
		t.Errorf("profiling adds allocations: %v allocs/batch with profile vs %v without (batch = %d packets)",
			profiled, plain, batch)
	}
}

// TestNetworkCloseIdempotent is the regression test for the double-Close
// bug: closing a sharded network (or its group) twice must not panic on
// already-closed worker channels.
func TestNetworkCloseIdempotent(t *testing.T) {
	f := topo.MustFBFLY(8, 2, 8)
	cfg := DefaultConfig()
	cfg.Shards = 2
	n, err := New(sim.New(), f, routing.NewFBFLY(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.InjectMessage(0, 40, 2048)
	n.RunUntil(100 * sim.Microsecond) // start the workers
	n.Close()
	n.Close()            // second close must be a no-op
	n.Sharding().Close() // and directly on the group too
}

// TestShardGroupCloseBeforeStart is the second half of the Close
// regression: closing a sharded network whose workers never started
// must not close worker channels that were never created.
func TestShardGroupCloseBeforeStart(t *testing.T) {
	f := topo.MustFBFLY(8, 2, 8)
	cfg := DefaultConfig()
	cfg.Shards = 2
	n, err := New(sim.New(), f, routing.NewFBFLY(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Close() // no RunUntil: the workers never started
	n.Close()
}
