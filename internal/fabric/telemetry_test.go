package fabric

import (
	"math/rand"
	"strings"
	"testing"

	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

func TestChanLabel(t *testing.T) {
	e := sim.New()
	f := topo.MustFBFLY(4, 2, 4)
	n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range n.InterSwitchChannels() {
		label := ch.Label()
		if !strings.HasPrefix(label, "s") || !strings.Contains(label, "-s") {
			t.Errorf("inter-switch label %q should name two switch ports", label)
		}
	}
}

// TestRegisterMetricsSeries checks the per-entity families exist with
// the expected identities and that the pre-resolved tx counters count
// every inter-switch hop.
func TestRegisterMetricsSeries(t *testing.T) {
	e := sim.New()
	f := topo.MustFBFLY(4, 2, 4)
	n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	if err := n.RegisterMetrics(reg); err != nil {
		t.Fatal(err)
	}
	families := map[string]int{}
	for _, name := range reg.Names() {
		fam, _, _ := strings.Cut(name, "{")
		families[fam]++
	}
	isc := len(n.InterSwitchChannels())
	for _, fam := range []string{"link.rate_gbps", "link.state", "link.util",
		"link.total_mbytes", "link.tx_pkts", "link.drops"} {
		if families[fam] != isc {
			t.Errorf("family %s has %d series, want %d", fam, families[fam], isc)
		}
	}
	if families["switch.routed_pkts"] != len(n.Switches) {
		t.Errorf("switch.routed_pkts has %d series, want %d",
			families["switch.routed_pkts"], len(n.Switches))
	}

	// Drive traffic across switches and check the per-link tx counters
	// add up to the inter-switch hop total.
	rng := rand.New(rand.NewSource(7))
	hosts := f.NumHosts()
	for j := 0; j < 200; j++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if dst == src {
			dst = (dst + 1) % hosts
		}
		n.InjectMessage(src, dst, 2048)
	}
	e.Run()

	var txSum int64
	for _, ch := range n.InterSwitchChannels() {
		txSum += ch.L.TotalPackets()
	}
	vals := make([]float64, reg.Len())
	reg.ReadInto(vals)
	var metricSum float64
	for i, name := range reg.Names() {
		if strings.HasPrefix(name, "link.tx_pkts{") {
			metricSum += vals[i]
		}
	}
	if int64(metricSum) != txSum {
		t.Errorf("sum(link.tx_pkts) = %v, want %d inter-switch packet transmissions", metricSum, txSum)
	}
	if txSum == 0 {
		t.Error("no inter-switch traffic; test is vacuous")
	}
}

// TestZeroAllocPacketPathWithMetrics proves the acceptance criterion:
// registering the full per-link metric set adds zero allocations per
// packet to the steady-state path (inject, route, transmit, deliver,
// count). The measurement is differential — two identical networks,
// same seed and traffic, one with metrics — because the bare fabric
// keeps a small amortized residue of slice growth that is independent
// of instrumentation.
func TestZeroAllocPacketPathWithMetrics(t *testing.T) {
	const batch = 256
	build := func(withMetrics bool) func() {
		e := sim.New()
		f := topo.MustFBFLY(8, 2, 8)
		n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if withMetrics {
			if err := n.RegisterMetrics(telemetry.NewRegistry()); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(1))
		inject := func() {
			for j := 0; j < batch; j++ {
				src, dst := rng.Intn(64), rng.Intn(64)
				if dst == src {
					dst = (dst + 1) % 64
				}
				n.InjectMessage(src, dst, 2048)
			}
			e.Run()
		}
		// Reach steady state first so free lists and queues are warm.
		inject()
		inject()
		return inject
	}
	plain := testing.AllocsPerRun(20, build(false))
	metered := testing.AllocsPerRun(20, build(true))
	if metered > plain {
		t.Errorf("per-link metrics add allocations: %v allocs/batch with metrics vs %v without (batch = %d packets)",
			metered, plain, batch)
	}
}

// BenchmarkNetworkThroughputMetrics is BenchmarkNetworkThroughput with
// the full per-link metric registry enabled — compare the two to see
// the cost of always-on per-entity instrumentation (allocs/op must
// stay identical; see the zero-allocation test above).
func BenchmarkNetworkThroughputMetrics(b *testing.B) {
	const batch = 1024
	e := sim.New()
	f := topo.MustFBFLY(8, 2, 8)
	n, err := New(e, f, routing.NewFBFLY(f), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	if err := n.RegisterMetrics(reg); err != nil {
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

// paperNet builds the paper's 15-ary 3-flat (3,375 hosts), the fabric
// whose 44,557 network series a paper-scale -metrics-out samples.
func paperNet(b *testing.B) *Network {
	f := topo.MustFBFLY(15, 3, 15)
	n, err := New(sim.New(), f, routing.NewFBFLY(f), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkRegisterMetrics measures registering the paper-scale
// network's series into a fresh registry: label formatting, identity
// strings and collision checks, once per run.
func BenchmarkRegisterMetrics(b *testing.B) {
	n := paperNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.RegisterMetrics(telemetry.NewRegistry()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsTick measures what a sampler tick does on the engine
// thread for the paper-scale network's registry: one ReadInto of every
// series, in ns per series. It must not allocate.
func BenchmarkMetricsTick(b *testing.B) {
	n := paperNet(b)
	reg := telemetry.NewRegistry()
	if err := n.RegisterMetrics(reg); err != nil {
		b.Fatal(err)
	}
	row := make([]float64, reg.Len())
	reg.ReadInto(row)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.ReadInto(row)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(row)), "ns/series")
}
