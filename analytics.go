package epnet

import (
	"fmt"

	"epnet/internal/link"
	"epnet/internal/power"
	"epnet/internal/topo"
)

// The analytic results are computed in internal/power; these aliases
// are their public names.
type (
	// TopologyRow is one column of the paper's Table 1: the part counts
	// and power of a 32k-host network at fixed bisection bandwidth.
	TopologyRow = power.TopologyRow
	// Table1Result holds both Table 1 columns and the derived savings
	// quoted in the paper's text.
	Table1Result = power.Table1
	// Figure1Scenario is one bar group of the paper's Figure 1.
	Figure1Scenario = power.Figure1Scenario
	// Figure1Result is the server-vs-network power comparison of
	// Figure 1.
	Figure1Result = power.Figure1
	// ITRSPoint is one year of the Figure 6 roadmap trends.
	ITRSPoint = power.ITRSPoint
	// SerDesPoint is one evaluated lane design point of the §6 channel
	// design exploration.
	SerDesPoint = power.DesignPoint
)

// Table1 reproduces the paper's Table 1: a 32k-host folded Clos vs an
// 8-ary 5-flat flattened butterfly at 655 Tb/s bisection, built from
// 36-port 40 Gb/s switches at 100 W per chip and 10 W per NIC.
func Table1() Table1Result { return power.PaperTable1() }

// CustomTable1 computes the same comparison for an arbitrary FBFLY shape
// and chip radix (hosts are derived from the FBFLY shape).
func CustomTable1(k, n, c, chipRadix int) (Table1Result, error) {
	f, err := topo.NewFBFLY(k, n, c)
	if err != nil {
		return Table1Result{}, err
	}
	return power.ComputeTable1(f.NumHosts(), chipRadix, f,
		power.DefaultPartPower(), power.DefaultCostModel(), link.Rate40G)
}

// Figure1 reproduces the paper's Figure 1: a 32k-server cluster at
// 250 W/server with the Table 1 folded-Clos network, at full
// utilization, at 15% with energy-proportional servers, and at 15% with
// an energy-proportional network too.
func Figure1() Figure1Result { return power.PaperFigure1() }

// ProfilePoint is one operating mode of the Figure 5 switch profile.
type ProfilePoint struct {
	RateGbps      float64
	RelativePower float64 // measured profile, normalized to full rate
	IdealPower    float64 // ideally proportional channel
}

// Figure5 returns the measured InfiniBand-style switch power profile of
// the paper's Figure 5, alongside the ideal proportional curve, plus the
// idle floor and power-off residue of the measured chip.
func Figure5() (points []ProfilePoint, idleFloor, offResidue float64) {
	m := power.InfiniBandOptical()
	ideal := power.NewIdeal(link.Rate40G)
	for _, p := range m.Points() {
		points = append(points, ProfilePoint{
			RateGbps:      p.Rate.GbpsF(),
			RelativePower: p.Relative,
			IdealPower:    ideal.Relative(p.Rate),
		})
	}
	return points, m.IdleFloor(), m.Off()
}

// Figure6 returns the ITRS bandwidth/pin/clock trend series plotted in
// the paper's Figure 6 (see internal/power for the reconstruction
// notes).
func Figure6() []ITRSPoint { return power.ITRSTrends() }

// DataRateMode is one row of the paper's Table 2 (InfiniBand data
// rates).
type DataRateMode struct {
	Name     string
	Lanes    int
	RateGbps float64
}

// Table2 returns the InfiniBand multi-data-rate modes of the paper's
// Table 2.
func Table2() []DataRateMode {
	names := map[link.Rate]string{
		link.Rate2_5G: "SDR",
		link.Rate5G:   "DDR",
		link.Rate10G:  "QDR",
	}
	var out []DataRateMode
	for _, m := range link.InfiniBandModes() {
		out = append(out, DataRateMode{
			Name:     names[m.LaneRate],
			Lanes:    m.Lanes,
			RateGbps: m.Total().GbpsF(),
		})
	}
	return out
}

// CostOfWatts converts continuous power draw into four-year electricity
// dollars under the paper's assumptions ($0.07/kWh, PUE 1.6).
func CostOfWatts(watts float64) float64 {
	return power.DefaultCostModel().Dollars(watts)
}

// SerDesChannel names one of the modeled channel classes.
type SerDesChannel string

const (
	// SerDesShortCopper is the <1 m intra-group passive copper channel.
	SerDesShortCopper SerDesChannel = "short-copper"
	// SerDesLongCopper is the ~5 m passive copper channel.
	SerDesLongCopper SerDesChannel = "long-copper"
	// SerDesOptical is the optical transceiver channel.
	SerDesOptical SerDesChannel = "optical"
)

// SerDesSweep evaluates lane data rates for a channel class and returns
// the design points plus the energy-per-bit-optimal feasible point —
// the paper's §6 challenge to channel designers ("choosing optimal data
// rate and equalization technology"), after Hatamkhani & Yang [10].
func SerDesSweep(ch SerDesChannel) (points []SerDesPoint, best SerDesPoint, err error) {
	var d power.SerDesDesign
	switch ch {
	case SerDesShortCopper:
		d = power.ShortCopperDesign()
	case SerDesLongCopper:
		d = power.LongCopperDesign()
	case SerDesOptical:
		d = power.OpticalDesign()
	default:
		return nil, SerDesPoint{}, fmt.Errorf("epnet: unknown channel class %q", ch)
	}
	points, best = power.SweepLaneRate(d, power.DefaultLaneRates())
	return points, best, nil
}
