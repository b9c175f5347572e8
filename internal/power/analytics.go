package power

import (
	"fmt"

	"epnet/internal/link"
	"epnet/internal/topo"
)

// PartPower is the paper's first-order part power model (§2.2):
// a 36-port switch chip consumes 100 W regardless of which link media it
// drives (144 SerDes at ~0.7 W each), and a host NIC consumes 10 W at
// full utilization.
type PartPower struct {
	SwitchChipWatts float64
	NICWatts        float64
}

// DefaultPartPower returns the paper's assumptions.
func DefaultPartPower() PartPower {
	return PartPower{SwitchChipWatts: 100, NICWatts: 10}
}

// CostModel converts power into operating expenditure.
type CostModel struct {
	DollarsPerKWh float64 // average industrial electricity rate
	PUE           float64 // datacenter power usage effectiveness
	Years         float64 // service life of the network
}

// DefaultCostModel returns the paper's assumptions: $0.07/kWh, PUE 1.6,
// four-year service life.
func DefaultCostModel() CostModel {
	return CostModel{DollarsPerKWh: 0.07, PUE: 1.6, Years: 4}
}

// Dollars returns the electricity cost of drawing watts continuously for
// the model's service life, inflated by PUE.
func (c CostModel) Dollars(watts float64) float64 {
	hours := c.Years * 365 * 24
	return watts / 1000 * hours * c.PUE * c.DollarsPerKWh
}

// TopologyRow is one column of the paper's Table 1.
type TopologyRow struct {
	Name            string
	Hosts           int
	BisectionGbps   float64
	ElectricalLinks int
	OpticalLinks    int
	SwitchChips     int
	PoweredChips    int // chips counted in the power analysis
	TotalWatts      float64
	WattsPerGbps    float64
}

// FBFLYRow computes the flattened-butterfly column of Table 1.
func FBFLYRow(f *topo.FBFLY, parts PartPower, linkRate link.Rate) TopologyRow {
	pc := topo.FBFLYPartCount{FBFLY: f}
	row := TopologyRow{
		Name:            f.Name(),
		Hosts:           f.NumHosts(),
		BisectionGbps:   pc.BisectionGbps(linkRate.GbpsF()),
		ElectricalLinks: pc.ElectricalLinks(),
		OpticalLinks:    pc.OpticalLinks(),
		SwitchChips:     f.NumSwitches(),
		PoweredChips:    f.NumSwitches(),
	}
	row.TotalWatts = float64(row.PoweredChips)*parts.SwitchChipWatts +
		float64(row.Hosts)*parts.NICWatts
	row.WattsPerGbps = row.TotalWatts / row.BisectionGbps
	return row
}

// ClosRow computes the folded-Clos column of Table 1.
func ClosRow(c *topo.ClosPartCount, parts PartPower, linkRate link.Rate) TopologyRow {
	row := TopologyRow{
		Name:            c.Name(),
		Hosts:           c.Hosts,
		BisectionGbps:   c.BisectionGbps(linkRate.GbpsF()),
		ElectricalLinks: c.ElectricalLinks(),
		OpticalLinks:    c.OpticalLinks(),
		SwitchChips:     c.SwitchChips,
		PoweredChips:    c.PoweredChips,
	}
	row.TotalWatts = float64(row.PoweredChips)*parts.SwitchChipWatts +
		float64(row.Hosts)*parts.NICWatts
	row.WattsPerGbps = row.TotalWatts / row.BisectionGbps
	return row
}

// Table1 holds the paper's Table 1 comparison plus the derived savings
// quoted in the text.
type Table1 struct {
	Clos  TopologyRow
	FBFLY TopologyRow
	// SavingsWatts is the Clos-vs-FBFLY power difference (409,600 W in
	// the paper).
	SavingsWatts float64
	// SavingsDollars is the service-life energy saving of choosing the
	// FBFLY ($1.6M in the paper).
	SavingsDollars float64
	// FBFLYBaselineDollars is the four-year energy cost of the always-on
	// FBFLY ($2.89M in the paper) — the savings still on the table.
	FBFLYBaselineDollars float64
}

// ComputeTable1 reproduces Table 1 for the given host count, chip radix,
// FBFLY shape and assumptions.
func ComputeTable1(hosts, chipRadix int, f *topo.FBFLY, parts PartPower,
	cost CostModel, linkRate link.Rate) (Table1, error) {

	if f.NumHosts() != hosts {
		return Table1{}, fmt.Errorf("power: FBFLY has %d hosts, want %d", f.NumHosts(), hosts)
	}
	if f.Radix() > chipRadix {
		return Table1{}, fmt.Errorf("power: FBFLY needs %d ports but chips have %d", f.Radix(), chipRadix)
	}
	clos, err := topo.NewClosPartCount(hosts, chipRadix)
	if err != nil {
		return Table1{}, err
	}
	t := Table1{
		Clos:  ClosRow(clos, parts, linkRate),
		FBFLY: FBFLYRow(f, parts, linkRate),
	}
	t.SavingsWatts = t.Clos.TotalWatts - t.FBFLY.TotalWatts
	t.SavingsDollars = cost.Dollars(t.SavingsWatts)
	t.FBFLYBaselineDollars = cost.Dollars(t.FBFLY.TotalWatts)
	return t, nil
}

// PaperTable1 computes Table 1 with the paper's exact configuration:
// 32k hosts, 36-port 40 Gb/s switches, 8-ary 5-flat.
func PaperTable1() Table1 {
	t, err := ComputeTable1(32768, 36, topo.MustFBFLY(8, 5, 8),
		DefaultPartPower(), DefaultCostModel(), link.Rate40G)
	if err != nil {
		panic(err)
	}
	return t
}

// Figure1Scenario is one bar group of the paper's Figure 1.
type Figure1Scenario struct {
	Name         string
	ServerWatts  float64
	NetworkWatts float64
}

// NetworkFraction returns the network's share of total power.
func (s Figure1Scenario) NetworkFraction() float64 {
	return s.NetworkWatts / (s.ServerWatts + s.NetworkWatts)
}

// Figure1 models the server-vs-network power comparison: a 32k-server
// cluster (250 W/server at peak) in three scenarios: full utilization;
// 15% utilization with energy-proportional servers; and 15% utilization
// with both servers and network energy proportional.
type Figure1 struct {
	Scenarios []Figure1Scenario
	// NetworkSavingsWatts is the saving from an energy-proportional
	// network at the low-utilization point (975,000 W in the paper).
	NetworkSavingsWatts float64
	// NetworkSavingsDollars over the cost model's service life ($3.8M).
	NetworkSavingsDollars float64
}

// ComputeFigure1 builds Figure 1 for the given cluster.
func ComputeFigure1(servers int, serverPeakWatts, networkWatts, utilization float64,
	cost CostModel) Figure1 {

	full := Figure1Scenario{
		Name:         "100% Utilization",
		ServerWatts:  float64(servers) * serverPeakWatts,
		NetworkWatts: networkWatts,
	}
	epServers := Figure1Scenario{
		Name:         fmt.Sprintf("%.0f%% Utilization, Energy Proportional Servers", utilization*100),
		ServerWatts:  full.ServerWatts * utilization,
		NetworkWatts: networkWatts,
	}
	epBoth := Figure1Scenario{
		Name:         fmt.Sprintf("%.0f%% Utilization, Energy Proportional Servers and Network", utilization*100),
		ServerWatts:  full.ServerWatts * utilization,
		NetworkWatts: networkWatts * utilization,
	}
	f := Figure1{Scenarios: []Figure1Scenario{full, epServers, epBoth}}
	f.NetworkSavingsWatts = epServers.NetworkWatts - epBoth.NetworkWatts
	f.NetworkSavingsDollars = cost.Dollars(f.NetworkSavingsWatts)
	return f
}

// PaperFigure1 computes Figure 1 with the paper's parameters: 32k
// servers at 250 W, the Table 1 folded-Clos network, 15% utilization.
func PaperFigure1() Figure1 {
	t := PaperTable1()
	return ComputeFigure1(32768, 250, t.Clos.TotalWatts, 0.15, DefaultCostModel())
}
