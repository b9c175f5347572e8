// Package routing computes candidate output ports for packets at each
// switch. The fabric package picks among candidates adaptively (smallest
// output queue), which is the paper's per-hop adaptive routing "based
// solely on the output queue depth" (§4.1).
package routing

import (
	"fmt"

	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// Router yields the legal minimal next-hop output ports for a packet at
// switch sw destined to host dst. Implementations append to buf and
// return the extended slice so the hot path does not allocate.
type Router interface {
	Candidates(sw, dst int, buf []int) []int
}

// PortMasker is a Router that can exclude failed output ports from its
// candidate sets — the contract the fault injector needs. Ports are
// identified as (switch, port); marking a port dead must make the
// router stop offering it (and, where the topology allows, offer live
// detours instead).
type PortMasker interface {
	Router
	// SetDead marks or clears a failed inter-switch port.
	SetDead(sw, port int, dead bool)
	// Dead reports whether a port is marked failed.
	Dead(sw, port int) bool
}

// DimMode is the operating mode of one flattened-butterfly dimension,
// used by the dynamic topology controller (§5.1): a fully connected
// dimension can be degraded to a ring (torus-like) or a line (mesh-like)
// by powering off links.
type DimMode uint8

const (
	// DimFull uses the complete all-to-all wiring of the dimension.
	DimFull DimMode = iota
	// DimRing keeps only links between adjacent coordinates, with
	// wraparound — the torus configuration.
	DimRing
	// DimLine keeps only links between adjacent coordinates, without
	// wraparound — the mesh configuration.
	DimLine
)

func (m DimMode) String() string {
	switch m {
	case DimFull:
		return "full"
	case DimRing:
		return "ring"
	case DimLine:
		return "line"
	default:
		return fmt.Sprintf("DimMode(%d)", uint8(m))
	}
}

// FBFLY routes minimally on a flattened butterfly: like a rook on a
// chessboard, each hop corrects the coordinate of one dimension in
// which the current switch differs from the destination's switch.
// All mismatched dimensions are candidates (the fabric chooses
// adaptively); within a dimension, the candidate port depends on the
// dimension's mode.
//
// Modes may be mutated between packets by the dynamic topology
// controller. Candidate computation itself is safe for concurrent
// callers as long as each switch index is routed from at most one
// goroutine at a time and mutations (SetDead/SetMode) happen only while
// no routing is in flight — exactly the sharded fabric's single-writer
// discipline, where mutations come from the quiesced control plane at
// window barriers.
type FBFLY struct {
	F     *topo.FBFLY
	Modes []DimMode // len == F.D; nil means all DimFull

	// dead marks failed inter-switch ports (keyed sw*radix+port). A
	// dead direct port makes the router offer non-minimal candidates
	// within the same dimension instead — one misroute hop, after which
	// routing proceeds minimally. This realizes the paper's §1 argument
	// that a high-path-diversity network decouples the failure domain
	// from the bandwidth domain.
	dead map[int]bool

	// coords[sw*D+d] is switch sw's coordinate in dimension d,
	// precomputed once so the per-packet dimension walk does no
	// division. O(switches·dims) — the only per-switch state the
	// router materializes eagerly.
	coords []int32

	// rows caches candidate ports per (switch, dimension, wanted
	// coordinate): rows[sw] — allocated the first time switch sw routes
	// off-switch — holds D·K entries indexed d·K + want. A packet's
	// candidate set is the concatenation over its mismatched dimensions
	// in dimension order, which reproduces, entry for entry, the
	// per-destination-pair walk this cache replaces; but the footprint
	// is O(switches·dims·k) where the pair cache was O(switches²) — the
	// difference between ~5 MB and ~670 MB at the paper's 32k-host
	// 8-ary 5-flat. gen invalidates every entry at once when SetDead or
	// SetMode changes the routing function. Rows are indexed by the
	// calling switch, so concurrent shards touch disjoint entries.
	rows [][]candEntry
	gen  uint64
}

// candEntry is one cached candidate set; gen 0 is never current, so the
// zero value reads as invalid. ports holds the set. A one-port set,
// which every full- or line-mode dimension without a dead port yields,
// is also held inline in one, so reading it touches only the row; one
// is -1 for a set of any other size.
type candEntry struct {
	gen   uint64
	one   int
	ports []int
}

// NewFBFLY returns a minimal adaptive router for f with all dimensions
// in full (flattened butterfly) mode.
func NewFBFLY(f *topo.FBFLY) *FBFLY {
	coords := make([]int32, f.NumSwitches()*f.D)
	buf := make([]int, f.D)
	for sw := 0; sw < f.NumSwitches(); sw++ {
		for d, v := range f.CoordsInto(sw, buf) {
			coords[sw*f.D+d] = int32(v)
		}
	}
	return &FBFLY{F: f, Modes: make([]DimMode, f.D), coords: coords,
		rows: make([][]candEntry, f.NumSwitches()), gen: 1}
}

// SetDead marks or clears a failed inter-switch port.
func (r *FBFLY) SetDead(sw, port int, dead bool) {
	if r.dead == nil {
		r.dead = make(map[int]bool)
	}
	key := sw*r.F.Radix() + port
	if dead {
		r.dead[key] = true
	} else {
		delete(r.dead, key)
	}
	r.gen++
}

// Dead reports whether a port is marked failed.
func (r *FBFLY) Dead(sw, port int) bool {
	if r.dead == nil {
		return false
	}
	return r.dead[sw*r.F.Radix()+port]
}

// RegisterMetrics exposes the router's mutable state — failed ports
// and per-dimension topology modes — to a telemetry registry, so a
// sampled time series shows when failures land and when the dynamic
// topology controller degrades or restores a dimension.
func (r *FBFLY) RegisterMetrics(reg *telemetry.Registry) error {
	if err := reg.GaugeFunc("routing.dead_ports",
		func() float64 { return float64(len(r.dead)) }); err != nil {
		return err
	}
	for d := 0; d < r.F.D; d++ {
		d := d
		if err := reg.GaugeFunc(fmt.Sprintf("routing.dim.%d.mode", d),
			func() float64 { return float64(r.Mode(d)) }); err != nil {
			return err
		}
	}
	return nil
}

// Mode returns dimension d's mode.
func (r *FBFLY) Mode(d int) DimMode {
	if r.Modes == nil {
		return DimFull
	}
	return r.Modes[d]
}

// SetMode sets dimension d's mode.
func (r *FBFLY) SetMode(d int, m DimMode) {
	if r.Modes == nil {
		r.Modes = make([]DimMode, r.F.D)
	}
	r.Modes[d] = m
	r.gen++
}

// Candidates implements Router. The inter-switch set is assembled from
// the per-(switch, dimension, wanted coordinate) cache: within one
// dimension the candidate ports depend only on the switch's own
// coordinate (fixed per switch) and the destination's coordinate in
// that dimension, never on the other dimensions, so the per-dimension
// entries compose into exactly the per-destination set.
func (r *FBFLY) Candidates(sw, dst int, buf []int) []int {
	dstSw, dstPort := r.F.HostAttachment(dst)
	if sw == dstSw {
		return append(buf, dstPort)
	}
	d1, k := r.F.D, r.F.K
	row := r.rows[sw]
	if row == nil {
		row = make([]candEntry, d1*k)
		r.rows[sw] = row
	}
	sc := r.coords[sw*d1 : sw*d1+d1]
	dc := r.coords[dstSw*d1 : dstSw*d1+d1]
	for d := 0; d < d1; d++ {
		want := dc[d]
		if sc[d] == want {
			continue
		}
		e := &row[d*k+int(want)]
		if e.gen != r.gen {
			e.ports = r.computeDim(sw, d, int(sc[d]), int(want), e.ports[:0])
			e.one = -1
			if len(e.ports) == 1 {
				e.one = e.ports[0]
			}
			e.gen = r.gen
		}
		if e.one >= 0 {
			buf = append(buf, e.one)
		} else {
			buf = append(buf, e.ports...)
		}
	}
	return buf
}

// computeDim appends the candidate ports that correct dimension d from
// coordinate own to want at switch sw — the cached unit of Candidates.
func (r *FBFLY) computeDim(sw, d, own, want int, buf []int) []int {
	f := r.F
	switch r.Mode(d) {
	case DimFull:
		direct := f.PortToPeer(sw, d, want)
		if !r.Dead(sw, direct) {
			return append(buf, direct)
		}
		// The direct link failed: misroute through any live peer in
		// this dimension (one extra hop).
		for v := 0; v < f.K; v++ {
			if v == own || v == want {
				continue
			}
			if p := f.PortToPeer(sw, d, v); !r.Dead(sw, p) {
				buf = append(buf, p)
			}
		}
	case DimRing:
		k := f.K
		fwd := (want - own + k) % k
		bwd := (own - want + k) % k
		// With failures present, greedy shortest-way routing can
		// steer into a dead ring link partway around; walk each arc
		// and only offer directions that reach the target coordinate
		// over live links. Fault-free rings skip the walks entirely.
		blockedFwd, blockedBwd := false, false
		if len(r.dead) > 0 {
			blockedFwd = r.arcBlocked(sw, d, own, want, +1)
			blockedBwd = r.arcBlocked(sw, d, own, want, -1)
		}
		if (fwd <= bwd || blockedBwd) && !blockedFwd {
			buf = append(buf, f.PortToPeer(sw, d, (own+1)%k))
		}
		if (bwd <= fwd || blockedFwd) && !blockedBwd {
			buf = append(buf, f.PortToPeer(sw, d, (own-1+k)%k))
		}
	case DimLine:
		if want > own {
			if len(r.dead) == 0 || !r.arcBlocked(sw, d, own, want, +1) {
				buf = append(buf, f.PortToPeer(sw, d, own+1))
			}
		} else {
			if len(r.dead) == 0 || !r.arcBlocked(sw, d, own, want, -1) {
				buf = append(buf, f.PortToPeer(sw, d, own-1))
			}
		}
	}
	return buf
}

// arcBlocked reports whether walking dimension d from coordinate own to
// want, stepping dir (+1 forward, -1 backward) one coordinate at a
// time with wraparound, crosses a dead link. Degraded (ring/line)
// dimensions route over exactly these single-step links, so a blocked
// arc means the direction cannot reach the target coordinate.
func (r *FBFLY) arcBlocked(sw, d, own, want, dir int) bool {
	f := r.F
	k := f.K
	cur, cc := sw, own
	for cc != want {
		nv := ((cc+dir)%k + k) % k
		p := f.PortToPeer(cur, d, nv)
		if r.dead[cur*f.Radix()+p] {
			return true
		}
		peer, ok := f.Peer(cur, p)
		if !ok {
			return true
		}
		cur, cc = peer.ID, nv
	}
	return false
}

// ActiveInDim reports whether the link from sw through port (which must
// belong to dimension d) is part of the active topology under the
// current mode of its dimension. The dynamic topology controller powers
// off exactly the links for which this is false.
func (r *FBFLY) ActiveInDim(sw, port int) bool {
	f := r.F
	d := f.PortDim(port)
	if d < 0 {
		return true // host ports are always active
	}
	switch r.Mode(d) {
	case DimFull:
		return true
	default:
		own := f.Coord(sw, d)
		peer := f.PeerCoord(sw, port)
		k := f.K
		adjacent := peer == (own+1)%k || peer == (own-1+k)%k
		if !adjacent {
			return false
		}
		if r.Mode(d) == DimLine {
			// No wraparound: the k-1 <-> 0 link is off.
			if (own == k-1 && peer == 0) || (own == 0 && peer == k-1) {
				return false
			}
		}
		return true
	}
}

// DOR is deterministic dimension-order routing on a flattened
// butterfly: always correct the lowest mismatched dimension. It serves
// as the non-adaptive baseline and assumes all dimensions are in full
// mode.
type DOR struct {
	F *topo.FBFLY
}

// Candidates implements Router.
func (r *DOR) Candidates(sw, dst int, buf []int) []int {
	f := r.F
	dstSw, dstPort := f.HostAttachment(dst)
	if sw == dstSw {
		return append(buf, dstPort)
	}
	for d := 0; d < f.D; d++ {
		own := f.Coord(sw, d)
		want := f.Coord(dstSw, d)
		if own != want {
			return append(buf, f.PortToPeer(sw, d, want))
		}
	}
	panic("routing: DOR found no mismatched dimension for non-local packet")
}

// deadSet is the failed-port bookkeeping shared by the up/down routers
// (FBFLY keeps its own map because its misroute logic reads it
// directly). Keys are sw*radix+port; a nil map costs one length test
// on the fault-free path.
type deadSet struct {
	dead  map[int]bool
	radix int
}

// SetDead marks or clears a failed inter-switch port.
func (s *deadSet) SetDead(sw, port int, dead bool) {
	if s.dead == nil {
		s.dead = make(map[int]bool)
	}
	key := sw*s.radix + port
	if dead {
		s.dead[key] = true
	} else {
		delete(s.dead, key)
	}
}

// Dead reports whether a port is marked failed.
func (s *deadSet) Dead(sw, port int) bool {
	if len(s.dead) == 0 {
		return false
	}
	return s.dead[sw*s.radix+port]
}

// FatTree routes on a two-level folded Clos: packets at a leaf go
// directly to a local host, or adaptively up to any spine; packets at a
// spine go down the (unique) port to the destination's leaf. Failed
// uplinks are re-picked among the live spines; a failed downlink has no
// alternative (each spine reaches a leaf by one port), so its packets
// are dropped by the fabric.
type FatTree struct {
	T *topo.FatTree
	deadSet
}

// NewFatTree returns a router for t.
func NewFatTree(t *topo.FatTree) *FatTree {
	return &FatTree{T: t, deadSet: deadSet{radix: t.Radix()}}
}

// Candidates implements Router.
func (r *FatTree) Candidates(sw, dst int, buf []int) []int {
	t := r.T
	if t.IsSpine(sw) {
		if p := t.LeafOfHost(dst); !r.Dead(sw, p) {
			buf = append(buf, p)
		}
		return buf
	}
	leaf, port := t.HostAttachment(dst)
	if leaf == sw {
		return append(buf, port)
	}
	for s := 0; s < t.Spines; s++ {
		if p := t.UplinkPort(s); !r.Dead(sw, p) {
			buf = append(buf, p)
		}
	}
	return buf
}

// Clos3 routes up/down on a three-tier folded Clos: packets climb
// adaptively (any aggregation, then any core) until they reach a common
// ancestor of source and destination, then descend deterministically.
// Up/down routing is deadlock-free by construction. Failed uplinks are
// re-picked among the live ones; failed downlinks (deterministic,
// unique) leave no candidate.
type Clos3 struct {
	T *topo.Clos3
	deadSet
}

// NewClos3 returns a router for t.
func NewClos3(t *topo.Clos3) *Clos3 {
	return &Clos3{T: t, deadSet: deadSet{radix: t.Radix()}}
}

// Candidates implements Router.
func (r *Clos3) Candidates(sw, dst int, buf []int) []int {
	t := r.T
	switch {
	case t.IsEdge(sw):
		dstEdge, dstPort := t.HostAttachment(dst)
		if dstEdge == sw {
			return append(buf, dstPort)
		}
		for a := 0; a < t.K/2; a++ {
			if p := t.AggUplinkPort(a); !r.Dead(sw, p) {
				buf = append(buf, p)
			}
		}
		return buf
	case t.IsAgg(sw):
		pod := t.PodOf(sw)
		if t.PodOfHost(dst) == pod {
			// Down to the destination edge.
			e := t.EdgeOfHost(dst) - pod*(t.K/2)
			if !r.Dead(sw, e) {
				buf = append(buf, e)
			}
			return buf
		}
		for i := 0; i < t.K/2; i++ {
			if p := t.CoreUplinkPort(i); !r.Dead(sw, p) {
				buf = append(buf, p)
			}
		}
		return buf
	default: // core: one downlink per pod
		if p := t.PodOfHost(dst); !r.Dead(sw, p) {
			buf = append(buf, p)
		}
		return buf
	}
}

var (
	_ Router     = (*FBFLY)(nil)
	_ Router     = (*DOR)(nil)
	_ Router     = (*FatTree)(nil)
	_ Router     = (*Clos3)(nil)
	_ PortMasker = (*FBFLY)(nil)
	_ PortMasker = (*FatTree)(nil)
	_ PortMasker = (*Clos3)(nil)
)
