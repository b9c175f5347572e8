// Quickstart: simulate an energy-proportional flattened butterfly
// network for a few simulated milliseconds and print what the paper's
// mechanism buys you.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"epnet"
)

func main() {
	// Start from the library defaults: an 8-ary 2-flat (64 hosts,
	// 8 switches), the web-search-like workload, and the paper's
	// halve/double link-rate policy with a 50% utilization target,
	// 1 us reactivation and 10 us epochs. The common simulation knobs
	// have With* options, and every Config field, outputs included,
	// can be set directly; the two below just restate the defaults.
	cfg := epnet.NewConfig(epnet.TopoFBFLY,
		epnet.WithWorkload(epnet.WorkloadSearch),
		epnet.WithPolicy(epnet.PolicyHalveDouble))

	res, err := epnet.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %d hosts / %d switches / %d channels\n",
		res.Hosts, res.Switches, res.Channels)
	fmt.Printf("average channel utilization: %.1f%%\n", res.AvgUtil*100)
	fmt.Printf("network power vs always-on baseline:\n")
	fmt.Printf("  with today's switch chips (Figure 5 profile): %.1f%%\n",
		res.RelPowerMeasured*100)
	fmt.Printf("  with ideally proportional channels:           %.1f%%\n",
		res.RelPowerIdeal*100)
	fmt.Printf("mean packet latency: %v (p99 %v)\n", res.MeanLatency, res.P99Latency)

	// The same run with the energy controller disabled shows the cost:
	// zero power savings, slightly lower latency.
	cfg.Policy = epnet.PolicyBaseline
	base, err := epnet.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbaseline (always-on) mean latency: %v\n", base.MeanLatency)
	fmt.Printf("latency cost of energy proportionality: %v\n",
		res.MeanLatency-base.MeanLatency)

	watts, dollars := epnet.SavingsProjection(res.RelPowerIdeal)
	fmt.Printf("\nprojected to the paper's 32k-host network: %.0f kW saved = $%.2fM over four years\n",
		watts/1000, dollars/1e6)
}
