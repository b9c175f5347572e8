package fabric

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// BenchmarkNetworkThroughput measures raw simulated-packet throughput
// on an 8-ary 2-flat under uniform random single-packet messages. One
// benchmark op is a steady-state unit — inject a batch of messages and
// fully drain the network — so injection, routing, transmission and
// delivery are all inside the timed region in a fixed proportion.
// With MaxPacket 2048 each message is exactly one packet, so allocs/op
// divided by the batch size is allocations per packet.
func BenchmarkNetworkThroughput(b *testing.B) {
	const batch = 1024
	e := sim.New()
	f := topo.MustFBFLY(8, 2, 8)
	n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	inject := func() {
		for j := 0; j < batch; j++ {
			src := rng.Intn(64)
			dst := rng.Intn(64)
			if dst == src {
				dst = (dst + 1) % 64
			}
			n.InjectMessage(src, dst, 2048)
		}
		e.Run()
	}
	inject() // reach steady state (warm free lists and queues) untimed
	b.SetBytes(batch * 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject()
	}
	b.StopTimer()
	inj, _ := n.Injected()
	del, _ := n.Delivered()
	if inj != del {
		b.Fatalf("lost packets: %d != %d", inj, del)
	}
	b.ReportMetric(float64(del-batch)/b.Elapsed().Seconds(), "pkts/sec")
}

// BenchmarkNetworkThroughputFlowTrace is the differential half of the
// flow-tracing cost contract: the same steady-state unit as
// BenchmarkNetworkThroughput with a flow collector attached, at the
// default sample rate and with every packet traced. Comparing allocs/op
// against the base benchmark (benchjson -compare) isolates what tracing
// adds; the base benchmark itself pins the disabled path at zero
// allocations per packet.
func BenchmarkNetworkThroughputFlowTrace(b *testing.B) {
	for _, bc := range []struct {
		name string
		rate float64
	}{{"sampled", 1.0 / 64}, {"all", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			const batch = 1024
			e := sim.New()
			f := topo.MustFBFLY(8, 2, 8)
			n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			flow := telemetry.NewFlowCollector(n.NumShards(), len(n.Channels()), bc.rate, 1)
			flow.SetClasses([]string{"steady"}, []sim.Time{sim.Time(1) << 62})
			n.SetFlowCollector(flow)
			rng := rand.New(rand.NewSource(1))
			inject := func() {
				for j := 0; j < batch; j++ {
					src := rng.Intn(64)
					dst := rng.Intn(64)
					if dst == src {
						dst = (dst + 1) % 64
					}
					n.InjectMessage(src, dst, 2048)
				}
				e.Run()
			}
			inject() // reach steady state untimed
			b.SetBytes(batch * 2048)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inject()
			}
			b.StopTimer()
			inj, _ := n.Injected()
			del, _ := n.Delivered()
			if inj != del {
				b.Fatalf("lost packets: %d != %d", inj, del)
			}
			if flow.Report(nil, nil, nil).Started == 0 {
				b.Fatal("collector traced nothing")
			}
			b.ReportMetric(float64(del-batch)/b.Elapsed().Seconds(), "pkts/sec")
		})
	}
}

// BenchmarkShardedThroughput measures the same steady-state unit as
// BenchmarkNetworkThroughput across shard counts on a larger-radix
// FBFLY. The workload and results are byte-identical at every shard
// count; only wall-clock time may differ. Speedup requires free cores —
// the reported cpus metric records how many this machine offered, so a
// flat scaling curve on a saturated or single-core box reads as the
// environment, not the engine.
func BenchmarkShardedThroughput(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const batch = 4096
			e := sim.New()
			f := topo.MustFBFLY(16, 2, 8) // 16-switch clique, 128 hosts
			cfg := DefaultConfig()
			cfg.Shards = shards
			n, err := New(e, f, routing.NewFBFLY(f), cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			prof := telemetry.NewEngineProfiler(n.NumShards())
			n.SetProfiler(prof)
			numHosts := n.NumHosts()
			rng := rand.New(rand.NewSource(1))
			var horizon sim.Time
			inject := func() {
				for j := 0; j < batch; j++ {
					src := rng.Intn(numHosts)
					dst := rng.Intn(numHosts)
					if dst == src {
						dst = (dst + 1) % numHosts
					}
					n.InjectMessage(src, dst, 2048)
				}
				// A fixed-width horizon fully drains the batch (checked
				// below); the per-shard windows fast-forward the idle
				// tail to the horizon in one jump.
				horizon += sim.Millisecond
				n.RunUntil(horizon)
			}
			inject() // reach steady state untimed
			b.SetBytes(batch * 2048)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inject()
			}
			b.StopTimer()
			inj, _ := n.Injected()
			del, _ := n.Delivered()
			if inj != del {
				b.Fatalf("lost packets: %d != %d", inj, del)
			}
			b.ReportMetric(float64(del-batch)/b.Elapsed().Seconds(), "pkts/sec")
			b.ReportMetric(float64(runtime.NumCPU()), "cpus")
			// Self-profile metrics: barrier overhead and window
			// efficiency feed benchjson's profile section, pointing
			// at the stall source when the scaling curve is flat.
			snap := prof.Snapshot()
			b.ReportMetric(snap.BarrierOverhead*100, "barrier%")
			b.ReportMetric(snap.WindowEfficiency*100, "weff%")
		})
	}
}

// BenchmarkChoosePort measures the adaptive route choice on a
// multi-path topology.
func BenchmarkChoosePort(b *testing.B) {
	e := sim.New()
	f := topo.MustFBFLY(8, 3, 8) // 2 dims: multiple candidates
	n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sw := n.Switches[0]
	pkt := &Packet{Dst: f.NumHosts() - 1, Size: 2048}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.choosePort(pkt, 0)
	}
}

// BenchmarkBuildNetwork measures fabric instantiation — topology is
// pre-built, so the timed region is entity storage, channel wiring and
// router construction — at the paper's simulation scale (15-ary 3-flat,
// 3,375 hosts), the paper's Table 1 scale (8-ary 5-flat, 32,768 hosts)
// and a three-tier Clos above 10⁵ hosts. B/host (heap bytes allocated
// per host during construction) and ns/host feed benchjson's
// build-memory section, tracking the entity memory model over time.
func BenchmarkBuildNetwork(b *testing.B) {
	bench := func(b *testing.B, t topo.Topology, mkRouter func() routing.Router) {
		hosts := float64(t.NumHosts())
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := New(sim.New(), t, mkRouter(), DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			runtime.KeepAlive(n)
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N)/hosts, "B/host")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/hosts, "ns/host")
	}
	b.Run("fbfly-3k", func(b *testing.B) {
		f := topo.MustFBFLY(15, 3, 15)
		bench(b, f, func() routing.Router { return routing.NewFBFLY(f) })
	})
	b.Run("fbfly-32k", func(b *testing.B) {
		f := topo.MustFBFLY(8, 5, 8)
		bench(b, f, func() routing.Router { return routing.NewFBFLY(f) })
	})
	b.Run("clos3-100k", func(b *testing.B) {
		c := topo.MustClos3(74)
		bench(b, c, func() routing.Router { return routing.NewClos3(c) })
	})
}
