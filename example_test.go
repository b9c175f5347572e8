package epnet_test

import (
	"fmt"
	"time"

	"epnet"
)

// Reproduce the paper's Table 1 headline: the flattened butterfly
// provides the same 655 Tb/s bisection as a folded Clos with half the
// switch chips.
func ExampleTable1() {
	t := epnet.Table1()
	fmt.Printf("folded Clos:        %d chips, %.0f W\n", t.Clos.SwitchChips, t.Clos.TotalWatts)
	fmt.Printf("flattened butterfly: %d chips, %.0f W\n", t.FBFLY.SwitchChips, t.FBFLY.TotalWatts)
	fmt.Printf("saved over 4 years: $%.2fM\n", t.SavingsDollars/1e6)
	// Output:
	// folded Clos:        8235 chips, 1146880 W
	// flattened butterfly: 4096 chips, 737280 W
	// saved over 4 years: $1.61M
}

// Reproduce Figure 1's motivation: once servers are energy
// proportional, the always-on network dominates cluster power at
// typical utilization.
func ExampleFigure1() {
	f := epnet.Figure1()
	for _, s := range f.Scenarios {
		fmt.Printf("%-62s network share %4.1f%%\n", s.Name, s.NetworkFraction()*100)
	}
	fmt.Printf("energy proportional network saves %.0f kW\n", f.NetworkSavingsWatts/1000)
	// Output:
	// 100% Utilization                                               network share 12.3%
	// 15% Utilization, Energy Proportional Servers                   network share 48.3%
	// 15% Utilization, Energy Proportional Servers and Network       network share 12.3%
	// energy proportional network saves 975 kW
}

// Inspect the measured switch power profile of Figure 5: even the
// slowest mode burns 42% of full power on today's chips, while an
// ideally proportional channel would burn 6.25%.
func ExampleFigure5() {
	points, idle, _ := epnet.Figure5()
	for _, p := range points {
		fmt.Printf("%4.1f Gb/s: measured %3.0f%%, ideal %5.2f%%\n",
			p.RateGbps, p.RelativePower*100, p.IdealPower*100)
	}
	fmt.Printf("idle floor: %.0f%%\n", idle*100)
	// Output:
	//  2.5 Gb/s: measured  42%, ideal  6.25%
	//  5.0 Gb/s: measured  46%, ideal 12.50%
	// 10.0 Gb/s: measured  52%, ideal 25.00%
	// 20.0 Gb/s: measured  69%, ideal 50.00%
	// 40.0 Gb/s: measured 100%, ideal 100.00%
	// idle floor: 36%
}

// Run a small energy-proportional network simulation end to end. The
// run is deterministic, but its measurements depend on the simulator's
// internal modeling, so this example asserts properties rather than
// printing raw numbers.
func ExampleRun() {
	cfg := epnet.DefaultConfig()
	cfg.K, cfg.N, cfg.C = 4, 2, 4
	cfg.Workload = epnet.WorkloadSearch
	cfg.Policy = epnet.PolicyHalveDouble
	cfg.Independent = true
	cfg.Warmup = 200 * time.Microsecond
	cfg.Duration = time.Millisecond

	res, err := epnet.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("hosts: %d\n", res.Hosts)
	fmt.Printf("saves power: %v\n", res.RelPowerIdeal < 0.5)
	fmt.Printf("most time at 2.5G: %v\n", res.RateShare[2.5] > 0.5)
	// Output:
	// hosts: 16
	// saves power: true
	// most time at 2.5G: true
}
