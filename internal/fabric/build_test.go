package fabric

import (
	"math"
	"testing"

	"epnet/internal/routing"
	"epnet/internal/sim"
	"epnet/internal/topo"
)

// buildSignature flattens everything about a network's construction that
// downstream determinism depends on: the channel sequence (index, src,
// dst, credits, shard placement), the pair table, and every switch and
// host port wiring.
type chanSig struct {
	idx       int
	src, dst  topo.Endpoint
	credits   int64
	shard     int
	sameShard bool
}

func buildSignature(t *testing.T, n *Network) ([]chanSig, [][2]int, [][]int, []int) {
	t.Helper()
	chs := make([]chanSig, len(n.Channels()))
	for i, c := range n.Channels() {
		if c == nil {
			t.Fatalf("channel slot %d left nil", i)
		}
		if int(c.idx) != i {
			t.Fatalf("channel slot %d holds index %d", i, c.idx)
		}
		chs[i] = chanSig{
			idx: int(c.idx), src: c.Src, dst: c.Dst, credits: c.credits,
			shard: c.srcRT.id, sameShard: c.sameShard,
		}
	}
	pairs := make([][2]int, len(n.Pairs()))
	for i, pr := range n.Pairs() {
		pairs[i] = [2]int{int(pr[0].idx), int(pr[1].idx)}
	}
	swOut := make([][]int, len(n.Switches))
	for sw, s := range n.Switches {
		ports := make([]int, len(s.ports))
		for p := range s.ports {
			ports[p] = -1
			if ch := s.ports[p].out; ch != nil {
				ports[p] = int(ch.idx)
			}
		}
		swOut[sw] = ports
	}
	hostUp := make([]int, len(n.Hosts))
	for h, hh := range n.Hosts {
		hostUp[h] = int(hh.out.idx)
	}
	return chs, pairs, swOut, hostUp
}

// TestBuildParallelMatchesSerial proves the parallel streamed
// construction is byte-equivalent to a single-worker build and to the
// seed's materialized-slice serial layout: same channel indices in the
// same order, same pair table, same port wiring, for every topology
// family and a sharded configuration.
func TestBuildParallelMatchesSerial(t *testing.T) {
	topos := map[string]topo.Topology{
		"fbfly":   topo.MustFBFLY(4, 3, 4),
		"clos3":   topo.MustClos3(6),
		"fattree": topo.MustFatTree(4, 8, 4),
	}
	for name, tp := range topos {
		for _, shards := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Shards = shards

			build := func(workers int) *Network {
				defer func(old int) { buildWorkers = old }(buildWorkers)
				buildWorkers = workers
				var r routing.Router
				switch f := tp.(type) {
				case *topo.FBFLY:
					r = routing.NewFBFLY(f)
				case *topo.Clos3:
					r = routing.NewClos3(f)
				case *topo.FatTree:
					r = routing.NewFatTree(f)
				}
				n, err := New(sim.New(), tp, r, cfg)
				if err != nil {
					t.Fatalf("%s/shards=%d: %v", name, shards, err)
				}
				return n
			}

			serial := build(1)
			parallelN := build(0)

			sc, sp, sw, sh := buildSignature(t, serial)
			pc, pp, pw, ph := buildSignature(t, parallelN)
			if len(sc) != len(pc) {
				t.Fatalf("%s/shards=%d: channel count %d vs %d", name, shards, len(sc), len(pc))
			}
			for i := range sc {
				if sc[i] != pc[i] {
					t.Fatalf("%s/shards=%d: channel %d differs: %+v vs %+v", name, shards, i, sc[i], pc[i])
				}
			}
			for i := range sp {
				if sp[i] != pp[i] {
					t.Fatalf("%s/shards=%d: pair %d differs: %v vs %v", name, shards, i, sp[i], pp[i])
				}
			}
			for s := range sw {
				for p := range sw[s] {
					if sw[s][p] != pw[s][p] {
						t.Fatalf("%s/shards=%d: sw%d.p%d wired to %d vs %d", name, shards, s, p, sw[s][p], pw[s][p])
					}
				}
			}
			for h := range sh {
				if sh[h] != ph[h] {
					t.Fatalf("%s/shards=%d: host %d uplink %d vs %d", name, shards, h, sh[h], ph[h])
				}
			}

			// Cross-check against the seed's serial append-loop layout,
			// reconstructed from the link stream: hosts first (up 2h,
			// down 2h+1), then each owned inter-switch link's forward and
			// reverse channel in topo.Links order.
			idx := 0
			for _, l := range topo.Links(serial.T) {
				fwd, rev := serial.chans[idx], serial.chans[idx+1]
				if l.A.Kind == topo.KindHost {
					if fwd.Src != l.A || fwd.Dst != l.B || rev.Src != l.B || rev.Dst != l.A {
						t.Fatalf("%s: host link %v wired as %v->%v / %v->%v",
							name, l, fwd.Src, fwd.Dst, rev.Src, rev.Dst)
					}
					if fwd.credits != int64(cfg.InputBufBytes) || rev.credits != math.MaxInt64/4 {
						t.Fatalf("%s: host link %v credits %d/%d", name, l, fwd.credits, rev.credits)
					}
				} else {
					if fwd.Src != l.A || fwd.Dst != l.B || rev.Src != l.B || rev.Dst != l.A {
						t.Fatalf("%s: link %v wired as %v->%v / %v->%v",
							name, l, fwd.Src, fwd.Dst, rev.Src, rev.Dst)
					}
				}
				idx += 2
			}
			if idx != len(serial.chans) {
				t.Fatalf("%s: layout covers %d channels, network has %d", name, idx, len(serial.chans))
			}
		}
	}
}
