package telemetry

import (
	"reflect"
	"testing"

	"epnet/internal/sim"
)

// TestFlowSampledShardIndependent pins the sampling contract: Sampled
// is a pure function of packet ID and seed — no RNG state, no shard
// dependence — so every shard count traces the identical flow set.
func TestFlowSampledShardIndependent(t *testing.T) {
	a := NewFlowCollector(1, 4, 0.25, 42)
	b := NewFlowCollector(8, 4, 0.25, 42)
	other := NewFlowCollector(1, 4, 0.25, 43)
	sampled, moved := 0, 0
	for id := int64(0); id < 4096; id++ {
		if a.Sampled(id) != b.Sampled(id) {
			t.Fatalf("pkt %d: sampling depends on the shard count", id)
		}
		if a.Sampled(id) {
			sampled++
		}
		if a.Sampled(id) != other.Sampled(id) {
			moved++
		}
	}
	// Hash sampling at rate 0.25 over 4096 IDs: loose bounds, the exact
	// set is pinned by the determinism matrix.
	if sampled < 820 || sampled > 1230 {
		t.Errorf("sampled %d of 4096 at rate 0.25", sampled)
	}
	if moved == 0 {
		t.Error("changing the seed did not move the sampled set")
	}
	full := NewFlowCollector(1, 4, 1, 7)
	for id := int64(0); id < 64; id++ {
		if !full.Sampled(id) {
			t.Fatalf("rate 1 skipped pkt %d", id)
		}
	}
}

// tus is a picosecond time at n microseconds.
func tus(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

// TestPacketTraceAccounting drives one trace through a two-hop journey
// by hand: every stall lands in its component and the components sum
// exactly to the end-to-end latency.
func TestPacketTraceAccounting(t *testing.T) {
	fc := NewFlowCollector(1, 4, 1, 1)
	tr := fc.StartTrace(0, 7, 1, 0, 9, 2048, tus(10))
	tr.Account(tus(12)) // 2us queued at the host
	tr.Block(FlowCredit)
	tr.Account(tus(15))                // 3us credit stall
	tr.WaitAvailable(tus(21), tus(19)) // 4us retuning, then 2us channel busy
	// Head to a switch: wire and routing separate this hop from the next.
	tr.Transmit(0, tus(21), tus(23), tus(1), tus(1), false)
	tr.ArriveHop(2, tus(23))
	tr.Account(tus(24)) // 1us queued at switch 2
	tr.Block(FlowCut)
	tr.Account(tus(25)) // 1us waiting on cut-through
	// To the destination host: serialization and wire are critical-path.
	tr.Transmit(1, tus(25), tus(27), tus(1), 0, true)
	fc.FinishDeliver(0, tr, tus(28))

	want := map[int]sim.Time{
		FlowQueue:     tus(3),
		FlowCredit:    tus(3),
		FlowRetune:    tus(4),
		FlowBusy:      tus(2),
		FlowCut:       tus(1),
		FlowSerialize: tus(2),
		FlowWire:      tus(2),
		FlowRoute:     tus(1),
	}
	var sum sim.Time
	for c, w := range want {
		if got := tr.TotalComp(c); got != w {
			t.Errorf("%s = %v, want %v", flowComponentNames[c], got, w)
		}
		sum += tr.TotalComp(c)
	}
	if lat := tr.Latency(); sum != lat || lat != tus(18) {
		t.Errorf("components sum to %v, latency %v, want 18us", sum, lat)
	}

	// The energy join charges the traced bytes on channels 0 and 1 half
	// and all of those channels' energy: 1 J + 3 J.
	rep := fc.Report(nil, []float64{2, 3, 5, 7}, []int64{4096, 2048, 2048, 2048})
	cs := rep.Classes[0]
	if cs.Count != 1 || cs.Bytes != 2048 || cs.MeanHops != 2 || cs.MeanLatencyPs != int64(tus(18)) {
		t.Errorf("class stats = %+v", cs)
	}
	if want := 4e12 / (2048 * 8); cs.EnergyPJPerBit != want {
		t.Errorf("energy = %v pJ/bit, want %v: per-channel traced bytes misjoined", cs.EnergyPJPerBit, want)
	}
	if len(rep.Exemplars) != 1 || rep.Exemplars[0].ID != 7 {
		t.Errorf("exemplars = %+v", rep.Exemplars)
	}
}

// finishTrivial pushes one packet through a minimal journey on the
// given shard, with latency scaled by the ID so exemplar ranking has
// distinct keys.
func finishTrivial(fc *FlowCollector, shard int, id int64) {
	tr := fc.StartTrace(shard, id, id, 0, 1, 256, tus(id))
	tr.Account(tus(id + 1 + id%5))
	tr.Transmit(0, tus(id+1+id%5), tus(id+2+id%5), 0, 0, true)
	fc.FinishDeliver(shard, tr, tus(id+2+id%5))
}

// TestFlowSnapshotShardCountInvariant pins the merge: the same traced
// packets finished on one shard or spread across four produce deeply
// equal reports — class sums, the energy join over per-channel traced
// bytes, canonical exemplar set, dump order.
func TestFlowSnapshotShardCountInvariant(t *testing.T) {
	serial := NewFlowCollector(1, 2, 1, 1)
	sharded := NewFlowCollector(4, 2, 1, 1)
	for id := int64(0); id < 64; id++ {
		finishTrivial(serial, 0, id)
		finishTrivial(sharded, int(id%4), id)
	}
	report := func(fc *FlowCollector) *FlowTraceReport {
		return fc.Report([]string{"c0", "c1"}, []float64{0.5, 0.25}, []int64{1 << 20, 1 << 21})
	}
	a, b := report(serial), report(sharded)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reports diverge across shard counts:\nserial:  %+v\nsharded: %+v", a, b)
	}
	if len(a.Exemplars) != flowExemplarKeep {
		t.Errorf("exemplars = %d, want the slowest %d", len(a.Exemplars), flowExemplarKeep)
	}
	for i := 1; i < len(a.Exemplars); i++ {
		p, q := a.Exemplars[i-1], a.Exemplars[i]
		if q.LatencyPs > p.LatencyPs || q.LatencyPs == p.LatencyPs && q.ID < p.ID {
			t.Errorf("exemplar %d out of canonical order", i)
		}
	}
}

// TestFaultDumpStrictlyBefore pins the flight recorder's fault filter:
// a dump at the fault instant includes only transmits strictly before
// it — transmits at exactly the epoch have not executed in either the
// serial or the sharded engine.
func TestFaultDumpStrictlyBefore(t *testing.T) {
	fc := NewFlowCollector(2, 2, 1, 1)
	fc.RecordTransmit(0, tus(1), 10, 0, 256)
	fc.RecordTransmit(1, tus(2), 11, 1, 256)
	fc.RecordTransmit(0, tus(3), 12, 0, 256) // at the epoch: excluded
	fc.FaultDump("fault: channel c0 failed", tus(3))
	rep := fc.Report(nil, nil, nil)
	if len(rep.Dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(rep.Dumps))
	}
	d := rep.Dumps[0]
	if d.Reason != "fault: channel c0 failed" || d.AtPs != int64(tus(3)) {
		t.Errorf("dump = %+v", d)
	}
	if len(d.Recent) != 2 {
		t.Fatalf("recent transmits = %d, want the 2 strictly before the fault", len(d.Recent))
	}
	for _, r := range d.Recent {
		if r.AtPs >= int64(tus(3)) {
			t.Errorf("transmit at %v ps leaked into a dump at %v", r.AtPs, tus(3))
		}
	}
}
