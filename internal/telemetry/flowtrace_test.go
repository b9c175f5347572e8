package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
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

// TestWriteChrome pins the Chrome rendering of a report: a JSON array
// with one track per exemplar and dropped packet, async packet spans
// that pair up, hop spans laid end to end that sum to each packet's
// latency, each hop's components as child spans that fill it, and one
// fault instant per dump.
func TestWriteChrome(t *testing.T) {
	fc := NewFlowCollector(1, 2, 1, 1)
	for id := int64(1); id <= 3; id++ {
		finishTrivial(fc, 0, id)
	}
	// Two hops: 3us retuning and 1us busy at the host, then dropped
	// after 3us queued at switch 2.
	tr := fc.StartTrace(0, 9, 9, 0, 1, 2048, tus(10))
	tr.WaitAvailable(tus(14), tus(13))
	tr.Transmit(0, tus(14), tus(16), tus(1), tus(1), false)
	tr.ArriveHop(2, tus(16))
	fc.FinishDrop(0, tr, tus(19), "switch-dead")
	fc.FaultDump("fault: channel c0 failed", tus(18))
	rep := fc.Report([]string{"c0", "c1"}, nil, nil)

	var buf bytes.Buffer
	if err := rep.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name, Cat, Ph string
		ID            int64
		Ts, Dur       float64
		Pid, Tid      int
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not a JSON event array: %v\n%s", err, buf.String())
	}
	ps := func(us float64) int64 { return int64(math.Round(us * 1e6)) }
	type track struct {
		begin, end, hops, comps int64
		nb, ne                  int
		hopStart, hopEnd        int64
	}
	tracks := map[int]*track{}
	get := func(tid int) *track {
		if tracks[tid] == nil {
			tracks[tid] = &track{}
		}
		return tracks[tid]
	}
	var instants, retune int
	for _, ev := range events {
		switch {
		case ev.Ph == "i" && ev.Pid == chromeFaults:
			instants++
		case ev.Ph == "b":
			tk := get(ev.Tid)
			tk.begin = ps(ev.Ts)
			tk.nb++
		case ev.Ph == "e":
			tk := get(ev.Tid)
			tk.end = ps(ev.Ts)
			tk.ne++
		case ev.Ph == "X" && ev.Cat == "hop":
			tk := get(ev.Tid)
			tk.hops += ps(ev.Dur)
			tk.hopStart, tk.hopEnd = ps(ev.Ts), ps(ev.Ts)+ps(ev.Dur)
		case ev.Ph == "X":
			tk := get(ev.Tid)
			tk.comps += ps(ev.Dur)
			if ps(ev.Ts) < tk.hopStart || ps(ev.Ts)+ps(ev.Dur) > tk.hopEnd {
				t.Errorf("track %d: %s span outside its hop", ev.Tid, ev.Name)
			}
			if ev.Name == "retune" {
				retune++
			}
		}
	}
	if want := len(rep.Exemplars) + 1; len(tracks) != want {
		t.Errorf("%d packet tracks, want %d exemplars and 1 dropped packet", len(tracks), want)
	}
	for tid, tk := range tracks {
		if tk.nb != 1 || tk.ne != 1 {
			t.Errorf("track %d: %d begins and %d ends, want one pair", tid, tk.nb, tk.ne)
		}
		if lat := tk.end - tk.begin; tk.hops != lat || tk.comps != lat {
			t.Errorf("track %d: hops sum to %d ps and components to %d ps, latency %d ps",
				tid, tk.hops, tk.comps, lat)
		}
	}
	if instants != len(rep.Dumps) || instants != 2 {
		t.Errorf("%d fault instants, want one per dump (%d)", instants, len(rep.Dumps))
	}
	if retune != 1 {
		t.Errorf("%d retune spans, want the dropped packet's one", retune)
	}
}

// TestWriteChromeEmpty checks that a report with no packets and no
// dumps still renders a valid JSON array holding only the process-name
// metadata.
func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&FlowTraceReport{}).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct{ Name, Ph string }
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty report is not a JSON event array: %v\n%s", err, buf.String())
	}
	for _, ev := range events {
		if ev.Ph != "M" {
			t.Errorf("empty report has a %q event %q, want metadata only", ev.Ph, ev.Name)
		}
	}
}
