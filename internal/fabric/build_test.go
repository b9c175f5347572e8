package fabric

import (
	"math"
	"runtime"
	"testing"

	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/topo"
)

// TestBuildLayout pins the channel layout that event order, channel
// labels and every CSV byte downstream depend on, for every topology
// family, serial and sharded: hosts first (up at 2h, down at 2h+1),
// then each owned inter-switch link's forward and reverse channel in
// topo.Links order, each pair at half its forward channel's index, and
// every switch port and host wired to the channel that leaves it.
func TestBuildLayout(t *testing.T) {
	topos := map[string]topo.Topology{
		"fbfly":   topo.MustFBFLY(4, 3, 4),
		"clos3":   topo.MustClos3(6),
		"fattree": topo.MustFatTree(4, 8, 4),
	}
	for name, tp := range topos {
		for _, shards := range []int{1, 4} {
			var r routing.Router
			switch f := tp.(type) {
			case *topo.FBFLY:
				r = routing.NewFBFLY(f)
			case *topo.Clos3:
				r = routing.NewClos3(f)
			case *topo.FatTree:
				r = routing.NewFatTree(f)
			}
			cfg := DefaultConfig()
			cfg.Shards = shards
			n, err := New(sim.New(), tp, r, cfg)
			if err != nil {
				t.Fatalf("%s/shards=%d: %v", name, shards, err)
			}
			idx := 0
			for _, l := range topo.Links(tp) {
				fwd, rev := n.chans[idx], n.chans[idx+1]
				if fwd.Src != l.A || fwd.Dst != l.B || rev.Src != l.B || rev.Dst != l.A {
					t.Fatalf("%s/shards=%d: link %v wired as %v->%v / %v->%v",
						name, shards, l, fwd.Src, fwd.Dst, rev.Src, rev.Dst)
				}
				if int(fwd.idx) != idx || int(rev.idx) != idx+1 {
					t.Fatalf("%s/shards=%d: slots %d/%d hold indices %d/%d",
						name, shards, idx, idx+1, fwd.idx, rev.idx)
				}
				if n.pairs[idx/2] != [2]*Chan{fwd, rev} {
					t.Fatalf("%s/shards=%d: pair %d is not channels %d/%d", name, shards, idx/2, idx, idx+1)
				}
				if l.A.Kind == topo.KindHost &&
					(fwd.credits != int64(cfg.InputBufBytes) || rev.credits != math.MaxInt64/4) {
					t.Fatalf("%s/shards=%d: host link %v credits %d/%d", name, shards, l, fwd.credits, rev.credits)
				}
				idx += 2
			}
			if idx != len(n.chans) || idx != 2*len(n.pairs) {
				t.Fatalf("%s/shards=%d: layout covers %d channels, network has %d (%d pairs)",
					name, shards, idx, len(n.chans), len(n.pairs))
			}
			for sw, s := range n.Switches {
				for p := range s.ports {
					if ch := s.ports[p].out; ch != nil &&
						ch.Src != (topo.Endpoint{Kind: topo.KindSwitch, ID: sw, Port: p}) {
						t.Fatalf("%s/shards=%d: sw%d.p%d sends on %v", name, shards, sw, p, ch.Label())
					}
				}
			}
			for h, hh := range n.Hosts {
				if hh.out.Src != (topo.Endpoint{Kind: topo.KindHost, ID: h}) {
					t.Fatalf("%s/shards=%d: host %d sends on %v", name, shards, h, hh.out.Label())
				}
			}
			n.Close()
		}
	}
}

// TestBuildBytesPerHost bounds what New allocates per host on the
// paper's 15-ary 3-flat (3,375 hosts, 13,050 channels, serial). The
// channel records are most of it, so a Chan that outgrows its four
// cache lines, or a per-channel allocation, breaks the budget.
// BenchmarkBuildNetwork reports the same figure for three fabrics.
func TestBuildBytesPerHost(t *testing.T) {
	f := topo.MustFBFLY(15, 3, 15)
	r := routing.NewFBFLY(f)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, err := New(sim.New(), f, r, DefaultConfig())
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(n)
	perHost := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(f.NumHosts())
	t.Logf("New allocates %.0f B/host", perHost)
	if perHost > 1500 {
		t.Errorf("New allocates %.0f B/host on the 15-ary 3-flat, budget 1500", perHost)
	}
}
