package power

import (
	"math"
	"testing"
	"testing/quick"

	"epnet/internal/link"
	"epnet/internal/sim"
	"epnet/internal/topo"
)

// TestFigure5Anchors checks the measured profile against the numbers the
// paper states: the slowest mode consumes 42% of full power ("a switch
// chip today still consumes 42% the power when in the lower performance
// mode") and the chip offers "nearly 60% power savings compared to full
// utilization".
func TestFigure5Anchors(t *testing.T) {
	m := InfiniBandOptical()
	if got := m.Relative(link.Rate2_5G); got != 0.42 {
		t.Errorf("Relative(2.5G) = %v, want 0.42", got)
	}
	if got := m.Relative(link.Rate40G); got != 1.0 {
		t.Errorf("Relative(40G) = %v, want 1.0", got)
	}
	saving := 1 - m.Relative(link.Rate2_5G)
	if saving < 0.55 || saving > 0.65 {
		t.Errorf("max saving = %v, want ~0.6 ('nearly 60%%')", saving)
	}
	// Idle is below the slowest mode, and off saves little more (the
	// basis for not powering links off on today's chips).
	if m.IdleFloor() >= m.Relative(link.Rate2_5G) {
		t.Errorf("idle floor %v not below slowest mode", m.IdleFloor())
	}
	if m.Off() > m.IdleFloor() {
		t.Errorf("off %v above idle %v", m.Off(), m.IdleFloor())
	}
	if m.Off() < 0.2 {
		t.Errorf("off %v too low: Figure 5 shows little saving from power-off", m.Off())
	}
}

func TestMeasuredMonotone(t *testing.T) {
	m := InfiniBandOptical()
	prev := 0.0
	for _, r := range link.DefaultLadder() {
		p := m.Relative(r)
		if p <= prev {
			t.Errorf("Relative(%v) = %v not increasing", r, p)
		}
		prev = p
	}
}

func TestMeasuredValidation(t *testing.T) {
	if _, err := NewMeasured("x", nil, 0, 0); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := NewMeasured("x", []MeasuredPoint{{link.Rate40G, 0.9}}, 0, 0); err == nil {
		t.Error("max point != 1.0 accepted")
	}
	if _, err := NewMeasured("x", []MeasuredPoint{{link.Rate40G, 1.5}}, 0, 0); err == nil {
		t.Error("relative > 1 accepted")
	}
	if _, err := NewMeasured("x", []MeasuredPoint{
		{link.Rate10G, 0.5}, {link.Rate10G, 0.6}, {link.Rate40G, 1},
	}, 0, 0); err == nil {
		t.Error("duplicate rate accepted")
	}
}

// TestIdealProportionality checks Figure 8b's assumption: "a channel
// operating at 2.5 Gb/s uses only ~6.25% the power of a channel
// operating at 40 Gb/s".
func TestIdealProportionality(t *testing.T) {
	p := NewIdeal(link.Rate40G)
	if got := p.Relative(link.Rate2_5G); got != 0.0625 {
		t.Errorf("ideal Relative(2.5G) = %v, want 0.0625", got)
	}
	if got := p.Relative(link.Rate40G); got != 1.0 {
		t.Errorf("ideal Relative(40G) = %v, want 1", got)
	}
	if p.Off() != 0 {
		t.Error("ideal off != 0")
	}
}

func TestOccupancyPower(t *testing.T) {
	us := sim.Microsecond
	occ := link.Occupancy{
		Ladder: link.DefaultLadder(),
		AtRate: []sim.Time{75 * us, 0, 0, 0, 25 * us},
		Total:  100 * us,
	}
	m := InfiniBandOptical()
	got := OccupancyPower(occ, m)
	want := 0.25*1.0 + 0.75*0.42
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("OccupancyPower = %v, want %v", got, want)
	}
	ideal := NewIdeal(link.Rate40G)
	got = OccupancyPower(occ, ideal)
	want = 0.25*1.0 + 0.75*0.0625
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ideal OccupancyPower = %v, want %v", got, want)
	}
	if OccupancyPower(link.Occupancy{}, m) != 0 {
		t.Error("empty occupancy should be 0")
	}
	var sink float64
	if a := testing.AllocsPerRun(100, func() { sink += OccupancyPower(occ, m) }); a != 0 {
		t.Errorf("OccupancyPower allocates %v, want 0", a)
	}
}

// TestTable1Exact checks the full Table 1 against the paper's published
// numbers.
func TestTable1Exact(t *testing.T) {
	tab := PaperTable1()

	// Folded Clos column.
	if tab.Clos.Hosts != 32768 {
		t.Errorf("clos hosts = %d", tab.Clos.Hosts)
	}
	if tab.Clos.BisectionGbps != 655360 {
		t.Errorf("clos bisection = %v, want 655360 Gb/s (655 Tb/s)", tab.Clos.BisectionGbps)
	}
	if tab.Clos.ElectricalLinks != 49152 {
		t.Errorf("clos electrical = %d, want 49152", tab.Clos.ElectricalLinks)
	}
	if tab.Clos.OpticalLinks != 65536 {
		t.Errorf("clos optical = %d, want 65536", tab.Clos.OpticalLinks)
	}
	if tab.Clos.SwitchChips != 8235 {
		t.Errorf("clos chips = %d, want 8235", tab.Clos.SwitchChips)
	}
	if tab.Clos.TotalWatts != 1146880 {
		t.Errorf("clos watts = %v, want 1146880", tab.Clos.TotalWatts)
	}
	if math.Abs(tab.Clos.WattsPerGbps-1.75) > 0.005 {
		t.Errorf("clos W/Gbps = %v, want 1.75", tab.Clos.WattsPerGbps)
	}

	// FBFLY column.
	if tab.FBFLY.ElectricalLinks != 47104 {
		t.Errorf("fbfly electrical = %d, want 47104", tab.FBFLY.ElectricalLinks)
	}
	if tab.FBFLY.OpticalLinks != 43008 {
		t.Errorf("fbfly optical = %d, want 43008", tab.FBFLY.OpticalLinks)
	}
	if tab.FBFLY.SwitchChips != 4096 {
		t.Errorf("fbfly chips = %d, want 4096", tab.FBFLY.SwitchChips)
	}
	if tab.FBFLY.TotalWatts != 737280 {
		t.Errorf("fbfly watts = %v, want 737280", tab.FBFLY.TotalWatts)
	}
	if math.Abs(tab.FBFLY.WattsPerGbps-1.13) > 0.005 {
		t.Errorf("fbfly W/Gbps = %v, want 1.13", tab.FBFLY.WattsPerGbps)
	}

	// Text claims: 409,600 fewer watts; >$1.6M over four years; the
	// always-on FBFLY still costs $2.89M.
	if tab.SavingsWatts != 409600 {
		t.Errorf("savings = %v W, want 409600", tab.SavingsWatts)
	}
	if tab.SavingsDollars < 1.55e6 || tab.SavingsDollars > 1.65e6 {
		t.Errorf("savings = $%.0f, want ~$1.6M", tab.SavingsDollars)
	}
	if tab.FBFLYBaselineDollars < 2.85e6 || tab.FBFLYBaselineDollars > 2.95e6 {
		t.Errorf("fbfly baseline = $%.0f, want ~$2.89M", tab.FBFLYBaselineDollars)
	}
}

func TestComputeTable1Errors(t *testing.T) {
	parts := DefaultPartPower()
	cost := DefaultCostModel()
	// Host mismatch.
	if _, err := ComputeTable1(100, 36, topo.MustFBFLY(8, 5, 8), parts, cost, link.Rate40G); err == nil {
		t.Error("host mismatch accepted")
	}
	// Radix too small for the FBFLY.
	if _, err := ComputeTable1(32768, 16, topo.MustFBFLY(8, 5, 8), parts, cost, link.Rate40G); err == nil {
		t.Error("insufficient radix accepted")
	}
}

// TestFigure1 checks the Figure 1 scenario numbers quoted in §1: the
// network is ~12% of power at full utilization, near 50% at 15%
// utilization with energy-proportional servers, and an energy
// proportional network saves 975 kW ($3.8M over four years).
func TestFigure1(t *testing.T) {
	f := PaperFigure1()
	if len(f.Scenarios) != 3 {
		t.Fatalf("%d scenarios", len(f.Scenarios))
	}
	full, eps, epb := f.Scenarios[0], f.Scenarios[1], f.Scenarios[2]
	if full.ServerWatts != 32768*250 {
		t.Errorf("server watts = %v", full.ServerWatts)
	}
	if frac := full.NetworkFraction(); frac < 0.115 || frac > 0.13 {
		t.Errorf("full-util network fraction = %v, want ~12%%", frac)
	}
	if frac := eps.NetworkFraction(); frac < 0.45 || frac > 0.52 {
		t.Errorf("15%%-util network fraction = %v, want ~50%%", frac)
	}
	if epb.NetworkWatts >= eps.NetworkWatts {
		t.Error("EP network did not reduce network power")
	}
	if math.Abs(f.NetworkSavingsWatts-974848) > 1 {
		t.Errorf("network savings = %v W, want 974848 (~975 kW)", f.NetworkSavingsWatts)
	}
	if f.NetworkSavingsDollars < 3.7e6 || f.NetworkSavingsDollars > 3.9e6 {
		t.Errorf("savings = $%.0f, want ~$3.8M", f.NetworkSavingsDollars)
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCostModel()
	// 1 kW for 4 years at PUE 1.6, $0.07: 35040 h * 1.6 * 0.07 = $3924.48
	got := c.Dollars(1000)
	if math.Abs(got-3924.48) > 0.01 {
		t.Errorf("Dollars(1kW) = %v, want 3924.48", got)
	}
}

// TestITRSTrends checks Figure 6's reconstruction: monotone exponential
// growth hitting the labeled endpoints (160 Tb/s, 70 Gb/s, ~9k pins).
func TestITRSTrends(t *testing.T) {
	pts := ITRSTrends()
	if len(pts) != 16 {
		t.Fatalf("%d points, want 16 (2008-2023)", len(pts))
	}
	if pts[0].Year != 2008 || pts[len(pts)-1].Year != 2023 {
		t.Fatalf("year range %d-%d", pts[0].Year, pts[len(pts)-1].Year)
	}
	last := pts[len(pts)-1]
	if math.Abs(last.IOBandwidthTb-160) > 1 {
		t.Errorf("2023 I/O bandwidth = %v, want 160 Tb/s", last.IOBandwidthTb)
	}
	if math.Abs(last.OffChipGbps-70) > 1 {
		t.Errorf("2023 off-chip rate = %v, want 70 Gb/s", last.OffChipGbps)
	}
	if math.Abs(last.PackagePinsK-9) > 0.1 {
		t.Errorf("2023 pins = %vk, want 9k", last.PackagePinsK)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].IOBandwidthTb <= pts[i-1].IOBandwidthTb ||
			pts[i].OffChipGbps <= pts[i-1].OffChipGbps ||
			pts[i].PackagePinsK <= pts[i-1].PackagePinsK {
			t.Fatalf("trends not monotone at %d", pts[i].Year)
		}
	}
}

// Property: for any occupancy, ideal power <= measured power (ideal
// channels never burn more than real ones) and both are within [0, 1].
func TestProfileOrderingProperty(t *testing.T) {
	ladder := link.DefaultLadder()
	measured := InfiniBandOptical()
	ideal := NewIdeal(link.Rate40G)
	f := func(splits [5]uint16) bool {
		occ := link.Occupancy{Ladder: ladder, AtRate: make([]sim.Time, len(ladder))}
		for i, s := range splits {
			occ.AtRate[i] = sim.Time(s) * sim.Nanosecond
			occ.Total += sim.Time(s) * sim.Nanosecond
		}
		pm := OccupancyPower(occ, measured)
		pi := OccupancyPower(occ, ideal)
		return pi <= pm+1e-12 && pm <= 1+1e-12 && pi >= 0 && pm >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSerDesDesignShape(t *testing.T) {
	for _, d := range []SerDesDesign{ShortCopperDesign(), LongCopperDesign(), OpticalDesign()} {
		// Power is monotone increasing in rate.
		prev := 0.0
		for _, r := range DefaultLaneRates() {
			p := d.LaneMW(r)
			if p <= prev {
				t.Errorf("%+v: LaneMW(%v) = %v not increasing", d.Eq, r, p)
			}
			prev = p
		}
		// Energy per bit is U-shaped: the optimum is interior or at the
		// feasibility edge, and pJ/bit at the extremes exceeds it.
		_, best := SweepLaneRate(d, DefaultLaneRates())
		if math.IsInf(best.PJPerBit, 1) {
			t.Fatalf("%v: no feasible point", d.Eq)
		}
		lo := d.EnergyPJPerBit(DefaultLaneRates()[0])
		if best.PJPerBit >= lo {
			t.Errorf("%v: optimum %v not below lowest-rate %v", d.Eq, best.PJPerBit, lo)
		}
	}
}

func TestSerDesFeasibility(t *testing.T) {
	long := LongCopperDesign()
	// 2.5 dB/GHz at 25 Gb/s -> 31 dB Nyquist loss: beyond even DFE.
	if long.Feasible(25) {
		t.Error("long copper at 25G should be infeasible")
	}
	if !long.Feasible(10) {
		t.Error("long copper at 10G should be feasible")
	}
	short := ShortCopperDesign()
	if !short.Feasible(25) {
		t.Error("short copper at 25G should be feasible (CTLE budget)")
	}
	if EqNone.String() != "none" || EqCTLE.String() != "ctle" || EqDFE.String() != "dfe" {
		t.Error("Equalization strings")
	}
}

// TestSerDesOptimumShifts: a lossier channel's optimal lane rate is at
// or below a cleaner channel's — the core design observation of [10].
func TestSerDesOptimumShifts(t *testing.T) {
	shortOpt, _ := OptimalLaneRate(ShortCopperDesign())
	longOpt, _ := OptimalLaneRate(LongCopperDesign())
	if longOpt > shortOpt {
		t.Errorf("long-channel optimum %vG above short-channel %vG", longOpt, shortOpt)
	}
}

// TestSerDesPortPowerAnchor: the paper assumes ~0.7 W per always-on
// SerDes (144 per 36-port switch = 100 W). A 40 Gb/s port built from
// the short-copper design at its ladder lane rate should land in that
// neighborhood (per-lane power x 4 lanes at 10G within 2x of 700 mW/
// (144/36) = ... each port has 4 lanes at ~0.7 W each = 2.8 W/port).
func TestSerDesPortPowerAnchor(t *testing.T) {
	d := ShortCopperDesign()
	pts, _ := SweepLaneRate(d, []float64{10})
	port := pts[0].PortMW
	// 4 lanes x ~0.7 W = 2800 mW per the paper's footnote; accept a
	// generous band around it.
	if port < 300 || port > 3000 {
		t.Errorf("40G port power = %v mW, want within the paper's order of magnitude", port)
	}
	if pts[0].LanesFor40G != 4 {
		t.Errorf("lanes for 40G at 10G lane rate = %d, want 4", pts[0].LanesFor40G)
	}
}

func TestSerDesZeroRate(t *testing.T) {
	if !math.IsInf(ShortCopperDesign().EnergyPJPerBit(0), 1) {
		t.Error("zero rate energy should be +Inf")
	}
}
