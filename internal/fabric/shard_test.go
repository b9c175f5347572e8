package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// shardFingerprint is everything a sharded run must reproduce exactly:
// global counters, per-host delivery sequences, and per-channel traffic.
type shardFingerprint struct {
	injectedPkts   int64
	deliveredPkts  int64
	deliveredBytes int64
	droppedPkts    int64
	routed         int64
	peakQueue      int64
	events         uint64
	lastDeliver    []sim.Time // per destination host
	hostPkts       []int64    // per destination host
	chanBytes      []int64    // per channel, in wiring order
	chanDrops      []int64
	deliveries     [][]int64 // per destination host: packet ID, time, ...
	msgDone        [][]int64 // per destination host: message ID, completion time, ...
}

// runSharded drives one FBFLY run at the given shard count and returns
// its fingerprint. faults exercises the fail/repair path mid-run; prof,
// when non-nil, is attached before the run (the fingerprint must not
// notice).
func runSharded(t *testing.T, shards int, faults bool, prof *telemetry.EngineProfiler) shardFingerprint {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.Shards = shards
	fp, _ := runFabric(t, cfg, uniformTraffic, faults, prof)
	return fp
}

// runFabric is runSharded with the whole fabric configuration and the
// traffic given: the same 8-ary 2-flat and fault schedule. It also
// returns the drained network, which the test's cleanup closes.
func runFabric(t *testing.T, cfg Config, traffic func(*sim.Engine, *Network), faults bool, prof *telemetry.EngineProfiler) (shardFingerprint, *Network) {
	t.Helper()
	e := sim.New()
	f := topo.MustFBFLY(8, 2, 8)
	n, err := New(e, f, routing.NewFBFLY(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if prof != nil {
		n.SetProfiler(prof)
	}

	numHosts := n.NumHosts()
	fp := shardFingerprint{
		lastDeliver: make([]sim.Time, numHosts),
		hostPkts:    make([]int64, numHosts),
		deliveries:  make([][]int64, numHosts),
		msgDone:     make([][]int64, numHosts),
	}
	// Each host is delivered to on exactly one shard, so per-dst slots
	// are single-writer even when shards run concurrently.
	n.OnDeliver = func(p *Packet, now sim.Time) {
		fp.lastDeliver[p.Dst] = now
		fp.hostPkts[p.Dst]++
		fp.deliveries[p.Dst] = append(fp.deliveries[p.Dst], p.ID, int64(now))
	}
	n.OnMessageDone = func(id int64, _, dst int, _, done sim.Time) {
		fp.msgDone[dst] = append(fp.msgDone[dst], id, int64(done))
	}

	traffic(e, n)
	if faults {
		n.EnableFaults()
		isc := n.InterSwitchChannels()
		for i, c := range []int{3, 17, 40} {
			c := isc[c%len(isc)]
			failAt := sim.Time(10+20*i) * sim.Microsecond
			e.At(failAt, func(now sim.Time) {
				n.FailChan(c, now)
				n.Switches[c.Src.ID].PumpPort(c.Src.Port, now)
			})
			e.At(failAt+30*sim.Microsecond, func(now sim.Time) {
				n.RepairChan(c, now, n.Cfg.Ladder.Max(), 2*sim.Microsecond)
			})
		}
	}

	n.RunUntil(600 * sim.Microsecond)

	fp.injectedPkts, _ = n.Injected()
	fp.deliveredPkts, fp.deliveredBytes = n.Delivered()
	fp.droppedPkts, _ = n.Dropped()
	fp.routed = n.RoutedPackets()
	fp.peakQueue = n.PeakQueueBytes()
	fp.events = n.EventsProcessed()
	for _, c := range n.Channels() {
		fp.chanBytes = append(fp.chanBytes, c.L.TotalBytes())
		fp.chanDrops = append(fp.chanDrops, c.Drops())
	}
	if fp.deliveredPkts+fp.droppedPkts != fp.injectedPkts {
		t.Fatalf("shards=%d: %d delivered + %d dropped != %d injected",
			cfg.Shards, fp.deliveredPkts, fp.droppedPkts, fp.injectedPkts)
	}
	return fp, n
}

// uniformTraffic offers 400 messages of 1–10,000 bytes between random
// hosts over the first 80 µs.
func uniformTraffic(e *sim.Engine, n *Network) {
	hosts := n.NumHosts()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 400; i++ {
		at := sim.Time(rng.Intn(80)) * sim.Microsecond
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		size := 1 + rng.Intn(10000)
		e.At(at, func(sim.Time) { n.InjectMessage(src, dst, size) })
	}
}

// longLivedTraffic offers eight 256 KiB messages at the start and 4,000
// of 1–2,048 bytes between random hosts over the first 100 µs, so the
// long messages stay in flight while thousands of short ones complete.
func longLivedTraffic(e *sim.Engine, n *Network) {
	hosts := n.NumHosts()
	for i := range 8 {
		src, dst := i, hosts-1-9*i
		e.At(0, func(sim.Time) { n.InjectMessage(src, dst, 256<<10) })
	}
	rng := rand.New(rand.NewSource(7))
	for range 4000 {
		at := sim.Time(rng.Intn(100_000)) * sim.Nanosecond
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if src == dst {
			dst = (dst + 1) % hosts
		}
		size := 1 + rng.Intn(2048)
		e.At(at, func(sim.Time) { n.InjectMessage(src, dst, size) })
	}
}

// digest is a SHA-256 over every delivery as (packet ID, delivery time),
// host by host in delivery order: a fingerprint of every packet's
// timing that does not depend on how shards interleave.
func (fp shardFingerprint) digest() string { return digestLogs(fp.deliveries) }

// msgDigest is digest over every completed message as (message ID,
// completion time): which messages OnMessageDone reports, and when.
func (fp shardFingerprint) msgDigest() string { return digestLogs(fp.msgDone) }

// digestLogs is a SHA-256 over per-host logs of int64s, host by host.
func digestLogs(logs [][]int64) string {
	h := sha256.New()
	var buf [8]byte
	for _, log := range logs {
		for _, v := range log {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func diffFingerprints(t *testing.T, tag string, want, got shardFingerprint) {
	t.Helper()
	if want.injectedPkts != got.injectedPkts ||
		want.deliveredPkts != got.deliveredPkts ||
		want.deliveredBytes != got.deliveredBytes ||
		want.droppedPkts != got.droppedPkts ||
		want.routed != got.routed ||
		want.peakQueue != got.peakQueue ||
		want.events != got.events {
		t.Errorf("%s: counters diverge: serial %+v vs %+v", tag,
			struct{ i, d, b, x, r, p int64 }{want.injectedPkts, want.deliveredPkts, want.deliveredBytes, want.droppedPkts, want.routed, want.peakQueue},
			struct{ i, d, b, x, r, p int64 }{got.injectedPkts, got.deliveredPkts, got.deliveredBytes, got.droppedPkts, got.routed, got.peakQueue})
	}
	for h := range want.lastDeliver {
		if want.lastDeliver[h] != got.lastDeliver[h] || want.hostPkts[h] != got.hostPkts[h] {
			t.Fatalf("%s: host %d diverges: serial (%v, %d pkts) vs (%v, %d pkts)",
				tag, h, want.lastDeliver[h], want.hostPkts[h],
				got.lastDeliver[h], got.hostPkts[h])
		}
	}
	for i := range want.chanBytes {
		if want.chanBytes[i] != got.chanBytes[i] || want.chanDrops[i] != got.chanDrops[i] {
			t.Fatalf("%s: channel %d diverges: serial (%d B, %d drops) vs (%d B, %d drops)",
				tag, i, want.chanBytes[i], want.chanDrops[i],
				got.chanBytes[i], got.chanDrops[i])
		}
	}
}

// TestShardedMatchesSerial is the fabric-level half of the determinism
// guarantee: for the same seed, every shard count must reproduce the
// serial run's counters, per-host delivery times, and per-channel
// traffic exactly — with and without fault injection mid-run.
func TestShardedMatchesSerial(t *testing.T) {
	for _, faults := range []bool{false, true} {
		tag := "clean"
		if faults {
			tag = "faults"
		}
		serial := runSharded(t, 1, faults, nil)
		if serial.deliveredPkts == 0 {
			t.Fatalf("%s: serial run delivered nothing", tag)
		}
		for _, shards := range []int{2, 4, 8} {
			got := runSharded(t, shards, faults, nil)
			diffFingerprints(t, tag, serial, got)
		}
	}
}

// TestMessageDoneDigest pins which messages OnMessageDone reports, and
// when, at 1, 2 and 4 shards, with and without faults. A message that
// lost a packet to a fault must never be reported, even when the drop
// happens on another shard than its destination's. The long-lived
// traffic moves the long messages' counts out of the completion window;
// its digests were recorded with a map of counts per shard in place of
// the window.
func TestMessageDoneDigest(t *testing.T) {
	workloads := []struct {
		name                   string
		traffic                func(*sim.Engine, *Network)
		clean, faulted         string
		doneClean, doneFaulted int
		spills                 bool // counts must leave the window
	}{
		{"uniform", uniformTraffic,
			"f5b0c31a10270e078114f0abde6311773606f8ef0f822def15325f0e4eb70247",
			"9fb0d53140975b1e993c0f2ca735c552dd995fe499e1b70791fbe87698ce891e",
			400, 394, false},
		{"long-lived", longLivedTraffic,
			"1190abe07a42d3897c6c825dfb2179d7184e23b97bc264f0d117c485bec49d4f",
			"838c9ff93d781d073710341f5f6a509308f9c951876a05efaa574f4ba960a734",
			4008, 3950, true},
	}
	for _, w := range workloads {
		for _, faults := range []bool{false, true} {
			want, wantDone := w.clean, w.doneClean
			if faults {
				want, wantDone = w.faulted, w.doneFaulted
			}
			for _, shards := range []int{1, 2, 4} {
				cfg := DefaultConfig()
				cfg.Seed = 42
				cfg.Shards = shards
				fp, n := runFabric(t, cfg, w.traffic, faults, nil)
				done := 0
				for _, log := range fp.msgDone {
					done += len(log) / 2
				}
				if got := fp.msgDigest(); done != wantDone || got != want {
					t.Errorf("%s shards=%d faults=%v: %d messages done, digest %s; want %d, %s",
						w.name, shards, faults, done, got, wantDone, want)
				}
				spilled := false
				for _, rt := range n.rts {
					spilled = spilled || rt.msgRemaining.far != nil
				}
				if w.spills && !spilled {
					t.Errorf("%s shards=%d faults=%v: no count left the window; the test is vacuous",
						w.name, shards, faults)
				}
			}
		}
	}
}

// TestShardLookaheadValidation verifies that zero cross-shard latency is
// rejected (it would make the conservative window empty).
func TestShardLookaheadValidation(t *testing.T) {
	e := sim.New()
	f := topo.MustFBFLY(4, 2, 2)
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.CreditDelay = 0
	if _, err := New(e, f, routing.NewFBFLY(f), cfg); err == nil {
		t.Fatal("Shards=2 with CreditDelay=0 did not error")
	}
	cfg = DefaultConfig()
	cfg.Shards = -1
	if _, err := New(e, f, routing.NewFBFLY(f), cfg); err == nil {
		t.Fatal("negative Shards did not error")
	}
}

// TestShardLookaheadMatrix pins the closed lookahead matrix on a
// two-shard butterfly: every shard pair carries channels both ways, so
// the off-diagonal bound is the cheapest direct edge — the credit
// return — and the diagonal closes to the cheapest round trip (credit
// out, credit home). The cut quality reflects the full bipartite
// channel count between the contiguous halves of the single-dimension
// clique.
func TestShardLookaheadMatrix(t *testing.T) {
	e := sim.New()
	f := topo.MustFBFLY(16, 2, 8)
	cfg := DefaultConfig() // WireDelay 50ns, RoutingDelay 100ns, CreditDelay 50ns
	cfg.Shards = 2
	n, err := New(e, f, routing.NewFBFLY(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	g := n.Sharding()

	la := g.LookaheadMatrix()
	credit := cfg.CreditDelay
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := credit // cheaper than the 150ns packet hop
			if i == j {
				want = 2 * credit // shortest echo: credit out, credit back
			}
			if la[i][j] != want {
				t.Errorf("la[%d][%d] = %v, want %v", i, j, la[i][j], want)
			}
		}
	}
	if got := g.Lookahead(); got != credit {
		t.Errorf("Lookahead() = %v, want %v", got, credit)
	}

	// 16-switch clique: 16*15 directed channels; an 8|8 split crosses
	// 8*8 pairs in both directions.
	cross, total := g.CutQuality()
	if total != 16*15 || cross != 2*8*8 {
		t.Errorf("CutQuality() = %d/%d, want %d/%d", cross, total, 2*8*8, 16*15)
	}
}

// TestShardPartitionApplied verifies the fabric uses the topology's
// structure-aware partition: on a Clos, every pod lands on one shard.
func TestShardPartitionApplied(t *testing.T) {
	e := sim.New()
	c := topo.MustClos3(4)
	cfg := DefaultConfig()
	cfg.Shards = 4
	n, err := New(e, c, routing.NewClos3(c), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for sw := 0; sw < c.NumSwitches(); sw++ {
		if c.IsCore(sw) {
			continue
		}
		pod := c.PodOf(sw)
		if got, want := n.SwitchShard(sw), n.SwitchShard(c.EdgeSwitch(pod, 0)); got != want {
			t.Fatalf("sw %d (pod %d) on shard %d, pod anchor on %d", sw, pod, got, want)
		}
	}
}

// TestShardCountClamped verifies Shards caps at the switch count.
func TestShardCountClamped(t *testing.T) {
	e := sim.New()
	f := topo.MustFBFLY(2, 2, 1) // 2 switches
	cfg := DefaultConfig()
	cfg.Shards = 8
	n, err := New(e, f, routing.NewFBFLY(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", n.NumShards())
	}
}

// TestShardPacketsReturnHome sends every round from one shard's hosts
// to the other's: packets are cut on shard 0 and freed on shard 1, and
// the barrier must send them home, or shard 0 would allocate every
// packet afresh and shard 1's free list would grow by a round each time.
func TestShardPacketsReturnHome(t *testing.T) {
	const rounds, size = 50, 32 << 10
	e := sim.New()
	f := topo.MustFBFLY(16, 2, 8)
	cfg := DefaultConfig()
	cfg.Shards = 2
	n, err := New(e, f, routing.NewFBFLY(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var src, dst []int
	for h := 0; h < n.NumHosts(); h++ {
		if n.HostShard(h) == 0 {
			src = append(src, h)
		} else {
			dst = append(dst, h)
		}
	}
	if len(src) != 64 || len(dst) != 64 {
		t.Fatalf("partition put %d hosts on shard 0 and %d on shard 1, want 64 each", len(src), len(dst))
	}
	var horizon sim.Time
	for r := 0; r < rounds; r++ {
		for i, h := range src {
			n.InjectMessage(h, dst[i], size)
		}
		horizon += sim.Millisecond
		n.RunUntil(horizon)
	}
	inj, _ := n.Injected()
	del, _ := n.Delivered()
	if inj != del || inj != int64(rounds*len(src)*n.PacketsPerMessage(size)) {
		t.Fatalf("injected %d, delivered %d packets", inj, del)
	}
	free, round := 0, len(src)*n.PacketsPerMessage(size)
	for _, rt := range n.rts {
		free += len(rt.pktFree)
		for _, home := range rt.pktHome {
			free += len(home)
		}
	}
	if free > round {
		t.Errorf("free lists hold %d packets after %d rounds, want at most one round's %d",
			free, rounds, round)
	}
}
