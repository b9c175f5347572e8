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
// under uniform random messages. One benchmark op is a steady-state
// unit — inject a fixed batch of messages and fully drain the network —
// so injection, routing, transmission and delivery are all inside the
// timed region in a fixed proportion, and allocs/op divided by the
// packets per op is allocations per packet.
//
// msg=2KiB and msg=64KiB run on an 8-ary 2-flat (64 hosts), 1,024
// packets an op: msg=2KiB offers one-packet messages; msg=64KiB offers
// 32 messages of 32 packets, each cut into packets at the head of its
// host's queue. The 64-host fabric's state fits in a 2 MB L2 cache, so
// these cases cannot see memory layout. fbfly-3k is the paper's 15-ary
// 3-flat (3,375 hosts), where one hop's reads miss cache: an op is one
// one-packet message from every host to a uniform random other host,
// the same messages every op, after 64 untimed ops that grow every
// queue ring to its peak, so the timed ops allocate nothing.
func BenchmarkNetworkThroughput(b *testing.B) {
	const batch = 1024 // packets per op on the 64-host fabric
	small := topo.MustFBFLY(8, 2, 8)
	for _, size := range []int{2 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("msg=%dKiB", size>>10), func(b *testing.B) {
			msgs := batch / (size / DefaultConfig().MaxPacket)
			benchThroughput(b, small, size, msgs, 1, func(rng *rand.Rand, _, hosts int) (int, int) {
				src, dst := rng.Intn(hosts), rng.Intn(hosts)
				if dst == src {
					dst = (dst + 1) % hosts
				}
				return src, dst
			})
		})
	}
	b.Run("fbfly-3k", func(b *testing.B) {
		f := topo.MustFBFLY(15, 3, 15)
		var dsts []int
		benchThroughput(b, f, 2<<10, f.NumHosts(), 64, func(rng *rand.Rand, j, hosts int) (int, int) {
			if dsts == nil {
				dsts = make([]int, hosts)
				for src := range dsts {
					if dsts[src] = rng.Intn(hosts - 1); dsts[src] >= src {
						dsts[src]++
					}
				}
			}
			return j, dsts[j]
		})
	})
}

// benchThroughput times ops of msgs size-byte messages on a fresh
// network over f, each op drained, after warm untimed ops; pick gives
// message j of an op its source and destination.
func benchThroughput(b *testing.B, f *topo.FBFLY, size, msgs, warm int, pick func(rng *rand.Rand, j, hosts int) (src, dst int)) {
	e := sim.New()
	n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	hosts := n.NumHosts()
	rng := rand.New(rand.NewSource(1))
	inject := func() {
		for j := 0; j < msgs; j++ {
			src, dst := pick(rng, j, hosts)
			n.InjectMessage(src, dst, size)
		}
		e.Run()
	}
	for range warm {
		inject() // reach steady state (warm free lists and queues) untimed
	}
	b.SetBytes(int64(msgs * size))
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
	untimed := int64(warm * msgs * n.PacketsPerMessage(size))
	b.ReportMetric(float64(del-untimed)/b.Elapsed().Seconds(), "pkts/sec")
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
	pkt := &Packet{Dst: int32(f.NumHosts() - 1), Size: 2048}
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
