package topo

import (
	"fmt"
	"math"
)

// ClosPartCount is the analytic part-count model of the paper's §2.2
// baseline: a 3-stage folded Clos built from fixed-radix switch chips,
// where the second and third stages are assembled into non-blocking
// chassis of 27 chips (18 edge chips exposing 324 external ports plus
// 9 middle chips; chassis backplane links are "free").
//
// The model reproduces Table 1's folded-Clos column exactly for
// N=32768 hosts and 36-port chips.
type ClosPartCount struct {
	Hosts     int // N, number of terminal hosts
	ChipRadix int // ports per switch chip (36 in the paper)

	ChassisPorts  int // external ports per chassis: 9 * radix (324)
	Stage3Chassis int // ceil(N / chassisPorts)
	Stage2Chassis int // ceil(N / (chassisPorts/2))
	ChipsPerBox   int // 27: chips per chassis
	SwitchChips   int // total chips = 27 * (stage2 + stage3)
	PoweredChips  int // chips whose ports are actually used
}

// NewClosPartCount builds the analytic model for n hosts and the given
// chip radix.
func NewClosPartCount(hosts, chipRadix int) (*ClosPartCount, error) {
	if hosts < 1 {
		return nil, fmt.Errorf("clos: hosts must be >= 1, got %d", hosts)
	}
	if chipRadix < 4 {
		return nil, fmt.Errorf("clos: chip radix must be >= 4, got %d", chipRadix)
	}
	// A folded Clos splits each chip's ports evenly between the two
	// sides; with an odd radix one port per chip goes unused.
	chipRadix -= chipRadix % 2
	c := &ClosPartCount{Hosts: hosts, ChipRadix: chipRadix}
	// A chassis uses radix/2 edge chips each exposing radix/2 external
	// ports, plus radix/4 (rounded up) middle chips; the paper's 36-port
	// chip yields the 324-port, 27-chip chassis it describes.
	edge := chipRadix / 2
	c.ChassisPorts = edge * (chipRadix / 2)
	c.ChipsPerBox = edge + (edge+1)/2
	c.Stage3Chassis = ceilDiv(hosts, c.ChassisPorts)
	c.Stage2Chassis = ceilDiv(hosts, c.ChassisPorts/2)
	c.SwitchChips = c.ChipsPerBox * (c.Stage2Chassis + c.Stage3Chassis)
	// The paper powers only the chips whose ports carry traffic: with
	// 32k hosts that is 8,192 of the 8,235 chips ("there are some unused
	// ports which we do not count in the power analysis"). The powered
	// count is the fractional chassis demand before rounding up:
	// chipsPerBox * (N/chassisPorts + N/(chassisPorts/2)).
	exact := float64(c.ChipsPerBox) * 3 * float64(hosts) / float64(c.ChassisPorts)
	c.PoweredChips = int(math.Round(exact))
	if c.PoweredChips > c.SwitchChips {
		c.PoweredChips = c.SwitchChips
	}
	return c, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Name describes the configuration.
func (c *ClosPartCount) Name() string {
	return fmt.Sprintf("3-stage folded Clos (%d hosts, %d-port chips)", c.Hosts, c.ChipRadix)
}

// ElectricalLinks returns the number of short copper links: every host
// attachment plus the intra-cluster half of the first tier boundary
// (N/2 links short enough for copper in the paper's packaging), i.e.
// 1.5 N total — 49,152 for the 32k system of Table 1.
func (c *ClosPartCount) ElectricalLinks() int { return c.Hosts + c.Hosts/2 }

// OpticalLinks returns the number of optical links: the two chassis tier
// boundaries each carry N links for full bisection, of which N/2 of the
// first boundary are copper (counted above), leaving 2 N optical —
// 65,536 for the 32k system of Table 1.
func (c *ClosPartCount) OpticalLinks() int { return 2 * c.Hosts }

// BisectionGbps returns the bisection bandwidth in Gb/s for the given
// per-link rate: the network is non-blocking, so N*rate/2.
func (c *ClosPartCount) BisectionGbps(linkGbps float64) float64 {
	return float64(c.Hosts) * linkGbps / 2
}

// FBFLYPartCount is the analytic part-count view of a flattened
// butterfly, for the Table 1 comparison.
type FBFLYPartCount struct {
	*FBFLY
}

// ElectricalLinks counts host links plus first-dimension links.
func (f FBFLYPartCount) ElectricalLinks() int {
	// Every host link is copper, plus the fully connected first
	// dimension: k^(n-2) groups of k switches, k(k-1)/2 links each.
	groups := f.NumSwitches() / f.K
	return f.NumHosts() + groups*f.K*(f.K-1)/2
}

// OpticalLinks counts links in dimensions >= 1.
func (f FBFLYPartCount) OpticalLinks() int {
	total := f.NumSwitches() * (f.K - 1) * f.D / 2 // all inter-switch links
	groups := f.NumSwitches() / f.K
	return total - groups*f.K*(f.K-1)/2
}

// BisectionGbps returns N*rate/2: the paper sizes the FBFLY for full
// bisection comparable to the non-blocking Clos.
func (f FBFLYPartCount) BisectionGbps(linkGbps float64) float64 {
	return float64(f.NumHosts()) * linkGbps / 2
}

// InterSwitchChannels returns the number of unidirectional switch-to-
// switch channels.
func (f FBFLYPartCount) InterSwitchChannels() int {
	return f.NumSwitches() * (f.K - 1) * f.D
}

// RequiredPorts sanity-checks the paper's p = c + (k-1)(n-1) formula.
func (f FBFLYPartCount) RequiredPorts() int { return f.Radix() }

// OverSubscription returns the concentration-derived over-subscription
// ratio c:k expressed as a float (1.0 means fully provisioned, 1.5 means
// the paper's 3:2 example with c=12, k=8).
func (f FBFLYPartCount) OverSubscription() float64 {
	return float64(f.C) / float64(f.K)
}
