// Package topo defines the network topologies used by the energy
// proportional datacenter network study: the flattened butterfly
// (k-ary n-flat) that is the paper's substrate, a two-level folded Clos
// (fat tree) used as a simulatable baseline, and the analytic 3-stage
// folded-Clos part-count model behind the paper's Table 1.
//
// A topology is a static description: switches, hosts, and the wiring
// between switch ports. The fabric package instantiates a topology into
// simulated switches and channels; the routing package computes candidate
// output ports on top of a topology.
package topo

import "fmt"

// Kind discriminates the two endpoint kinds of a channel.
type Kind uint8

const (
	// KindHost is a server/NIC endpoint.
	KindHost Kind = iota
	// KindSwitch is a switch-chip endpoint.
	KindSwitch
)

func (k Kind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindSwitch:
		return "switch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Endpoint identifies one side of a link: a host, or a specific port of a
// specific switch.
type Endpoint struct {
	Kind Kind
	ID   int // host index or switch index
	Port int // switch port; 0 for hosts
}

func (e Endpoint) String() string {
	if e.Kind == KindHost {
		return fmt.Sprintf("host%d", e.ID)
	}
	return fmt.Sprintf("sw%d.p%d", e.ID, e.Port)
}

// LinkClass classifies the physical medium of a link, which determines
// its cost and (in the paper's analytic model) its power profile.
type LinkClass uint8

const (
	// Electrical links are short passive-copper cables (<5 m), used for
	// host attachment and intra-group wiring.
	Electrical LinkClass = iota
	// Optical links use optical transceivers and span longer distances.
	Optical
)

func (c LinkClass) String() string {
	if c == Electrical {
		return "electrical"
	}
	return "optical"
}

// Topology is a static description of a network: its switches, hosts,
// and port-level wiring. Implementations must be immutable after
// construction so they can be shared freely.
type Topology interface {
	// Name returns a short human-readable description, e.g. "8-ary 2-flat".
	Name() string
	// NumSwitches returns the number of switch chips.
	NumSwitches() int
	// NumHosts returns the number of hosts (terminal nodes).
	NumHosts() int
	// Radix returns the number of ports on each switch.
	Radix() int
	// HostAttachment returns the switch and switch port that host h
	// connects to.
	HostAttachment(h int) (sw, port int)
	// Peer returns the endpoint wired to switch sw's given port, and
	// whether the port is connected at all.
	Peer(sw, port int) (Endpoint, bool)
	// LinkClass classifies the link attached to switch sw's given port.
	LinkClass(sw, port int) LinkClass
}

// Link is an undirected physical link between two endpoints (each
// physical link carries two unidirectional channels).
type Link struct {
	A, B  Endpoint
	Class LinkClass
}

// VisitSwitchLinks streams the switch-to-switch links owned by switch
// sw — those whose (sw, port) endpoint is lexicographically smaller
// than the peer's — in ascending port order, so over all switches every
// link is visited exactly once. fn returns false to stop early;
// VisitSwitchLinks reports whether the walk ran to completion. The
// fabric's serial construction walks it switch by switch to lay out
// the inter-switch channels.
func VisitSwitchLinks(t Topology, sw int, fn func(port int, peer Endpoint, class LinkClass) bool) bool {
	radix := t.Radix()
	for p := 0; p < radix; p++ {
		peer, ok := t.Peer(sw, p)
		if !ok || peer.Kind != KindSwitch {
			continue
		}
		// Visit each switch-switch link from its owning side only.
		if peer.ID < sw || (peer.ID == sw && peer.Port < p) {
			continue
		}
		if !fn(p, peer, t.LinkClass(sw, p)) {
			return false
		}
	}
	return true
}

// VisitLinks streams every undirected link of a topology — all host
// attachment links first, then every switch-to-switch link exactly once
// in ascending (switch, port) order — without materializing a slice.
// The visit order is exactly the order Links returns. fn returns false
// to stop early.
func VisitLinks(t Topology, fn func(Link) bool) {
	for h := 0; h < t.NumHosts(); h++ {
		sw, port := t.HostAttachment(h)
		if !fn(Link{
			A:     Endpoint{Kind: KindHost, ID: h},
			B:     Endpoint{Kind: KindSwitch, ID: sw, Port: port},
			Class: t.LinkClass(sw, port),
		}) {
			return
		}
	}
	for sw := 0; sw < t.NumSwitches(); sw++ {
		ok := VisitSwitchLinks(t, sw, func(p int, peer Endpoint, class LinkClass) bool {
			return fn(Link{A: Endpoint{Kind: KindSwitch, ID: sw, Port: p}, B: peer, Class: class})
		})
		if !ok {
			return
		}
	}
}

// Links enumerates every undirected link of a topology: all host
// attachment links plus every switch-to-switch link exactly once.
// Callers that do not need the materialized slice should stream with
// VisitLinks instead — at 10⁵–10⁶ hosts this slice is pure overhead.
func Links(t Topology) []Link {
	out := make([]Link, 0, t.NumHosts())
	VisitLinks(t, func(l Link) bool {
		out = append(out, l)
		return true
	})
	return out
}

// CountLinks returns the number of electrical and optical undirected
// links in the topology.
func CountLinks(t Topology) (electrical, optical int) {
	VisitLinks(t, func(l Link) bool {
		if l.Class == Electrical {
			electrical++
		} else {
			optical++
		}
		return true
	})
	return electrical, optical
}

// Validate cross-checks the wiring of a topology: every connected switch
// port's peer must point back at it, and host attachments must agree with
// Peer. It returns the first inconsistency found. The sweep is
// O(hosts + switches·radix); for topologies in the 10⁵–10⁶-host range
// where a full sweep is too slow for a test budget, ValidateSample
// spot-checks the same invariants on a random subset.
func Validate(t Topology) error {
	for h := 0; h < t.NumHosts(); h++ {
		if err := validateHost(t, h); err != nil {
			return err
		}
	}
	for sw := 0; sw < t.NumSwitches(); sw++ {
		if err := validateSwitch(t, sw); err != nil {
			return err
		}
	}
	return nil
}

// ValidateSample spot-checks the wiring invariants of Validate on a
// deterministic pseudo-random sample: up to samples hosts and samples
// switches drawn from seed (a switch check covers all of its ports).
// When samples covers the whole population the check degenerates to the
// exhaustive sweep, so small topologies are fully validated and large
// ones get property-style coverage at bounded cost.
func ValidateSample(t Topology, samples int, seed int64) error {
	if samples <= 0 {
		return fmt.Errorf("topo: ValidateSample needs a positive sample count, got %d", samples)
	}
	// splitmix64, matching the simulator's other deterministic draws.
	state := uint64(seed)
	next := func(n int) int {
		state += 0x9E3779B97F4A7C15
		z := state
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		return int(z % uint64(n))
	}
	if n := t.NumHosts(); samples >= n {
		for h := 0; h < n; h++ {
			if err := validateHost(t, h); err != nil {
				return err
			}
		}
	} else {
		for i := 0; i < samples; i++ {
			if err := validateHost(t, next(n)); err != nil {
				return err
			}
		}
	}
	if n := t.NumSwitches(); samples >= n {
		for sw := 0; sw < n; sw++ {
			if err := validateSwitch(t, sw); err != nil {
				return err
			}
		}
	} else {
		for i := 0; i < samples; i++ {
			if err := validateSwitch(t, next(n)); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateHost checks one host's attachment against Peer.
func validateHost(t Topology, h int) error {
	sw, port := t.HostAttachment(h)
	if sw < 0 || sw >= t.NumSwitches() {
		return fmt.Errorf("host %d attaches to out-of-range switch %d", h, sw)
	}
	if port < 0 || port >= t.Radix() {
		return fmt.Errorf("host %d attaches to out-of-range port %d", h, port)
	}
	peer, ok := t.Peer(sw, port)
	if !ok {
		return fmt.Errorf("host %d attachment sw%d.p%d reported unconnected", h, sw, port)
	}
	if peer.Kind != KindHost || peer.ID != h {
		return fmt.Errorf("host %d attachment sw%d.p%d wired to %v", h, sw, port, peer)
	}
	return nil
}

// validateSwitch checks every port of one switch: peers must point back.
func validateSwitch(t Topology, sw int) error {
	for p := 0; p < t.Radix(); p++ {
		peer, ok := t.Peer(sw, p)
		if !ok {
			continue
		}
		switch peer.Kind {
		case KindHost:
			psw, pport := t.HostAttachment(peer.ID)
			if psw != sw || pport != p {
				return fmt.Errorf("sw%d.p%d claims host %d, but host attaches at sw%d.p%d",
					sw, p, peer.ID, psw, pport)
			}
		case KindSwitch:
			if peer.ID < 0 || peer.ID >= t.NumSwitches() {
				return fmt.Errorf("sw%d.p%d wired to out-of-range switch %d", sw, p, peer.ID)
			}
			back, ok := t.Peer(peer.ID, peer.Port)
			if !ok {
				return fmt.Errorf("sw%d.p%d wired to unconnected sw%d.p%d", sw, p, peer.ID, peer.Port)
			}
			if back.Kind != KindSwitch || back.ID != sw || back.Port != p {
				return fmt.Errorf("sw%d.p%d -> sw%d.p%d but reverse is %v",
					sw, p, peer.ID, peer.Port, back)
			}
		}
	}
	return nil
}
