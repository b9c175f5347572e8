package epnet

import (
	"testing"

	"epnet/internal/fabric"
	"epnet/internal/sim"
	"epnet/internal/stats"
)

// TestDeliveryHookZeroAlloc proves the merged OnDeliver hook, with every
// recorder on (run latency, per-phase latency, net.latency_us buckets),
// allocates nothing per delivery once its latency buckets are warm, and
// that it records exactly the post-warmup deliveries.
func TestDeliveryHookZeroAlloc(t *testing.T) {
	cfg := fastCfg()
	cfg.Shards = 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.net.Close()

	warmup := 5 * sim.Microsecond
	d := newDeliveries(r.net, warmup)
	d.byPhase(&runPlan{phases: []execPhase{{end: 20 * sim.Microsecond}, {end: 40 * sim.Microsecond}}})
	d.withHistogram()

	hosts := r.t.NumHosts()
	pkts := make([]fabric.Packet, 64)
	for i := range pkts {
		pkts[i] = fabric.Packet{ID: int64(i), Dst: int32(i % hosts), Inject: sim.Time(i) * sim.Microsecond / 2}
	}
	deliver := func() {
		for i := range pkts {
			d.deliver(&pkts[i], pkts[i].Inject+sim.Time(1+i%7)*sim.Microsecond)
		}
	}
	deliver() // warm every latency bucket the loop touches
	if n := testing.AllocsPerRun(100, deliver); n != 0 {
		t.Errorf("delivery hook allocates %v times per %d deliveries, want 0", n, len(pkts))
	}

	var measured int64
	for i := range pkts {
		if pkts[i].Inject >= warmup {
			measured++
		}
	}
	runs := int64(1 + 100 + 1) // warm-up, AllocsPerRun's own warm-up, 100 counted runs
	if got := d.merged(func(s *recorder) *stats.Latency { return s.pkt }).Count(); got != runs*measured {
		t.Errorf("recorded %d deliveries, want %d", got, runs*measured)
	}
	var phased, bucketed int64
	for _, s := range d.shards {
		for _, l := range s.phase {
			phased += l.Count()
		}
		for _, c := range s.buckets {
			bucketed += c
		}
	}
	if phased != runs*measured || bucketed != runs*measured {
		t.Errorf("phase recorders hold %d and histogram %d deliveries, want %d each",
			phased, bucketed, runs*measured)
	}
}
