// Command experiments regenerates every table and figure of "Energy
// Proportional Datacenter Networks" (ISCA 2010) and prints them as text
// tables, alongside the paper's published values where the paper states
// them.
//
// Usage:
//
//	experiments                 # run everything at the default scale
//	experiments -only fig8      # one experiment by name (see -h); an
//	                            # unknown name exits 1 before running
//	experiments -full           # paper-scale 15-ary 3-flat (slow)
//	experiments -duration 10ms  # longer measurement window
//	experiments -parallel 4     # cap concurrent simulations (default: one per CPU)
//	experiments -parallel 1     # force serial execution (same output, slower)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"epnet"
	"epnet/internal/cli"
)

var errors int

// experiment is one table or figure the harness regenerates, by its
// -only name.
type experiment struct {
	name string
	run  func(epnet.EvalConfig)
}

// experiments lists them in the order the harness runs them.
var experiments = []experiment{
	{"table1", table1},
	{"fig1", fig1},
	{"fig5", fig5},
	{"fig6", fig6},
	{"fig7", fig7},
	{"fig8", fig8},
	{"fig9a", fig9a},
	{"fig9b", fig9b},
	{"policies", policies},
	{"dyntopo", dyntopo},
	{"routing", routingAblation},
	{"reactivation", reactivation},
	{"oversub", oversub},
	{"topocompare", topocompare},
	{"serdes", serdes},
	{"resilience", resilience},
	{"faultgrid", faultgrid},
}

func main() {
	var loader cli.Loader
	loader.Bind(flag.CommandLine, "experiments", epnet.DefaultEval().Config)

	only := flag.String("only", "", "run a single experiment (table1, fig1, fig5, fig6, fig7, fig8, fig9a, fig9b, policies, dyntopo, routing, reactivation, oversub, topocompare, serdes, resilience, faultgrid)")
	full := flag.Bool("full", false, "use the paper's 15-ary 3-flat scale (slow)")
	par := flag.Int("parallel", runtime.NumCPU(), "max concurrent simulations per experiment (1 = serial; output is identical either way)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the harness to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	runtimeMetrics := flag.String("runtime-metrics", "", "dump the Go runtime/metrics snapshot at exit to this file")
	flag.Parse()
	if *only != "" && !slices.ContainsFunc(experiments, func(x experiment) bool { return x.name == *only }) {
		names := make([]string, len(experiments))
		for i, x := range experiments {
			names[i] = x.name
		}
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (valid: %s)\n", *only, strings.Join(names, ", "))
		os.Exit(1)
	}

	// -full picks the evaluation base; the shared loader then overlays
	// -preset/-scenario and any explicitly set flags on top of it, so
	// e.g. `experiments -full -duration 10ms` still scales the window.
	// The base's output paths are numbered per run by the evaluation.
	eval := epnet.DefaultEval()
	if *full {
		eval = epnet.PaperEval()
	}
	cfg, err := loader.ResolveFrom(eval.Config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	eval.Config = cfg
	eval.Parallel = *par

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
			os.Exit(1)
		}
		// Stopped explicitly before exit: os.Exit skips defers.
	}

	fmt.Printf("== Energy Proportional Datacenter Networks — experiment harness ==\n")
	fmt.Printf("scale: %d-ary %d-flat c=%d, warmup %v, window %v\n\n",
		eval.K, eval.N, eval.C, eval.Warmup, eval.Duration)

	for _, x := range experiments {
		if *only != "" && *only != x.name {
			continue
		}
		start := time.Now()
		x.run(eval)
		// Timing is diagnostic and varies run to run; keep it off stdout
		// so experiment output is byte-identical across runs and across
		// -parallel settings.
		fmt.Fprintf(os.Stderr, "  [%s completed in %v]\n", x.name, time.Since(start).Round(time.Millisecond))
		fmt.Println()
	}

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		writeHeapProfile(*memprofile)
	}
	if *runtimeMetrics != "" {
		dumpRuntimeMetrics(*runtimeMetrics)
	}
	if errors > 0 {
		os.Exit(1)
	}
}

// writeHeapProfile snapshots the heap (after a GC, so live objects
// dominate) into path.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fail(err)
	}
}

// dumpRuntimeMetrics writes every runtime/metrics sample as one
// "name value" line; histogram-kinded metrics report their total count.
func dumpRuntimeMetrics(path string) {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	f, err := os.Create(path)
	if err != nil {
		fail(err)
		return
	}
	defer f.Close()
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			fmt.Fprintf(f, "%s %d\n", s.Name, s.Value.Uint64())
		case metrics.KindFloat64:
			fmt.Fprintf(f, "%s %g\n", s.Name, s.Value.Float64())
		case metrics.KindFloat64Histogram:
			var total uint64
			for _, c := range s.Value.Float64Histogram().Counts {
				total += c
			}
			fmt.Fprintf(f, "%s histogram-count %d\n", s.Name, total)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	errors++
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

func table1(epnet.EvalConfig) {
	header("Table 1 — topology power at fixed bisection bandwidth (32k hosts)")
	t := epnet.Table1()
	fmt.Printf("%-34s  %14s  %14s\n", "parameter", "Folded Clos", "FBFLY (8,5)")
	fmt.Printf("%-34s  %14d  %14d\n", "hosts", t.Clos.Hosts, t.FBFLY.Hosts)
	fmt.Printf("%-34s  %11.0f Tb/s %11.0f Tb/s\n", "bisection bandwidth",
		t.Clos.BisectionGbps/1000, t.FBFLY.BisectionGbps/1000)
	fmt.Printf("%-34s  %14d  %14d\n", "electrical links", t.Clos.ElectricalLinks, t.FBFLY.ElectricalLinks)
	fmt.Printf("%-34s  %14d  %14d\n", "optical links", t.Clos.OpticalLinks, t.FBFLY.OpticalLinks)
	fmt.Printf("%-34s  %14d  %14d\n", "switch chips", t.Clos.SwitchChips, t.FBFLY.SwitchChips)
	fmt.Printf("%-34s  %12.0f W  %12.0f W\n", "total power", t.Clos.TotalWatts, t.FBFLY.TotalWatts)
	fmt.Printf("%-34s  %14.2f  %14.2f\n", "power per bisection Gb/s (W)", t.Clos.WattsPerGbps, t.FBFLY.WattsPerGbps)
	fmt.Printf("\nFBFLY saves %.0f W -> $%.2fM over four years (paper: 409,600 W, ~$1.6M)\n",
		t.SavingsWatts, t.SavingsDollars/1e6)
	fmt.Printf("always-on FBFLY four-year energy cost: $%.2fM (paper: $2.89M)\n",
		t.FBFLYBaselineDollars/1e6)
	fmt.Printf("paper column check: Clos {49152, 65536, 8235, 1146880, 1.75}, FBFLY {47104, 43008, 4096, 737280, 1.13}\n")
}

func fig1(epnet.EvalConfig) {
	header("Figure 1 — server vs network power (32k servers x 250 W)")
	f := epnet.Figure1()
	for _, s := range f.Scenarios {
		fmt.Printf("%-62s servers %8.0f kW  network %7.0f kW  (network = %4.1f%%)\n",
			s.Name, s.ServerWatts/1000, s.NetworkWatts/1000, s.NetworkFraction*100)
	}
	fmt.Printf("\nenergy-proportional network saves %.0f kW = $%.2fM over four years (paper: 975 kW, ~$3.8M)\n",
		f.NetworkSavingsWatts/1000, f.NetworkSavingsDollars/1e6)
}

func fig5(epnet.EvalConfig) {
	header("Figure 5 — dynamic range of an InfiniBand-style switch chip")
	points, idle, off := epnet.Figure5()
	fmt.Printf("%-10s  %18s  %18s\n", "rate", "measured power", "ideal power")
	for _, p := range points {
		fmt.Printf("%7.1fG   %17.0f%%  %17.2f%%\n", p.RateGbps, p.RelativePower*100, p.IdealPower*100)
	}
	fmt.Printf("idle floor: %.0f%%   power-off residue: %.0f%%\n", idle*100, off*100)
	fmt.Printf("paper anchors: slowest mode 42%% of full power ('nearly 60%% savings'); idle just below it\n")
}

func fig6(epnet.EvalConfig) {
	header("Figure 6 — ITRS bandwidth trends (reconstruction)")
	fmt.Printf("%-6s  %16s  %16s  %14s\n", "year", "I/O BW (Tb/s)", "off-chip (Gb/s)", "pins (1000s)")
	for _, p := range epnet.Figure6() {
		if (p.Year-2008)%3 != 0 {
			continue
		}
		fmt.Printf("%-6d  %16.1f  %16.1f  %14.1f\n", p.Year, p.IOBandwidthTb, p.OffChipGbps, p.PackagePinsK)
	}
	fmt.Printf("paper anchors: 160 Tb/s and 70 Gb/s at the right edge\n")
}

func printShares(label string, shares map[float64]float64) {
	rates := make([]float64, 0, len(shares))
	for r := range shares {
		rates = append(rates, r)
	}
	sort.Float64s(rates)
	fmt.Printf("%-14s", label)
	for _, r := range rates {
		fmt.Printf("  %5.1fG:%5.1f%%", r, shares[r]*100)
	}
	fmt.Println()
}

func fig7(e epnet.EvalConfig) {
	header("Figure 7 — fraction of time at each link speed (Search, 50% target, 1us reactivation)")
	res, err := epnet.Figure7(e)
	if err != nil {
		fail(err)
		return
	}
	printShares("(a) paired", res.Paired)
	printShares("(b) indep", res.Independent)
	fast := func(m map[float64]float64) float64 { return m[10] + m[20] + m[40] }
	fmt.Printf("\ntime at fast speeds (>=10G): paired %.1f%% vs independent %.1f%%\n",
		fast(res.Paired)*100, fast(res.Independent)*100)
	fmt.Printf("paper: independent control 'nearly halves the fraction of time spent at the faster speeds'\n")
}

func fig8(e epnet.EvalConfig) {
	header("Figure 8 — network power vs always-on baseline")
	rows, err := epnet.Figure8(e)
	if err != nil {
		fail(err)
		return
	}
	fmt.Printf("%-9s  %21s  %21s  %10s  %22s\n", "", "8a measured channels", "8b ideal channels", "ideal", "added mean latency")
	fmt.Printf("%-9s  %10s  %9s  %10s  %9s  %10s  %10s  %10s\n",
		"workload", "paired", "indep", "paired", "indep", "bound", "paired", "indep")
	for _, r := range rows {
		fmt.Printf("%-9s  %9.1f%%  %8.1f%%  %9.1f%%  %8.1f%%  %9.1f%%  %10v  %10v\n",
			epnet.WorkloadLabel(r.Workload),
			r.MeasuredPaired*100, r.MeasuredIndependent*100,
			r.IdealPaired*100, r.IdealIndependent*100,
			r.IdealBound*100,
			r.AddedMeanLatency.Round(time.Microsecond),
			r.AddedMeanLatencyIndep.Round(time.Microsecond))
	}
	fmt.Printf("\npaper: ideal+independent achieves 36/15/17%% for Uniform/Advert/Search (bounds 23/5/6%%);\n")
	fmt.Printf("       measured channels floor at ~42-55%%; added latency 10-50us at 50%% target\n")
	for _, r := range rows {
		if r.Workload == epnet.WorkloadSearch {
			w, d := epnet.SavingsProjection(r.IdealIndependent)
			fmt.Printf("full-scale projection (Search, ideal+independent): %.0f kW saved = $%.2fM over four years (paper: ~$2.4M)\n",
				w/1000, d/1e6)
		}
	}
}

func fig9a(e epnet.EvalConfig) {
	header("Figure 9a — added mean latency vs target channel utilization (1us reactivation, paired)")
	rows, err := epnet.Figure9a(e)
	if err != nil {
		fail(err)
		return
	}
	fmt.Printf("%-9s  %8s  %16s  %16s  %12s\n", "workload", "target", "added mean", "baseline mean", "ideal power")
	for _, r := range rows {
		fmt.Printf("%-9s  %7.0f%%  %16v  %16v  %11.1f%%\n",
			epnet.WorkloadLabel(r.Workload), r.Target*100,
			r.AddedMean.Round(time.Microsecond), r.BaseMean.Round(time.Microsecond),
			r.RelPowerID*100)
	}
	fmt.Printf("\npaper: latency increase grows with target; at 50%% the increase is only 10-50us\n")
}

func fig9b(e epnet.EvalConfig) {
	header("Figure 9b — added mean latency vs reactivation time (50% target, paired, epoch=10x)")
	rows, err := epnet.Figure9b(e)
	if err != nil {
		fail(err)
		return
	}
	fmt.Printf("%-9s  %14s  %16s  %12s\n", "workload", "reactivation", "added mean", "ideal power")
	for _, r := range rows {
		fmt.Printf("%-9s  %14v  %16v  %11.1f%%\n",
			epnet.WorkloadLabel(r.Workload), r.Reactivation,
			r.AddedMean.Round(time.Microsecond), r.RelPowerID*100)
	}
	fmt.Printf("\npaper: ~1ms added at 10us reactivation, several ms at 100us; power savings shrink as the\n")
	fmt.Printf("       epoch grows (especially for Uniform); the technique needs reactivation < 10us\n")
}

func policies(e epnet.EvalConfig) {
	header("Policy ablation (§5.2 better heuristics) — Search workload")
	rows, err := epnet.PolicyAblation(e, epnet.WorkloadSearch)
	if err != nil {
		fail(err)
		return
	}
	fmt.Printf("%-14s  %12s  %12s  %14s  %10s  %12s\n",
		"policy", "measured", "ideal", "mean latency", "reconfigs", "backlog (B)")
	for _, r := range rows {
		fmt.Printf("%-14s  %11.1f%%  %11.1f%%  %14v  %10d  %12d\n",
			r.Policy, r.RelPowerM*100, r.RelPowerID*100,
			r.MeanLat.Round(time.Microsecond), r.Reconfigs, r.Backlog)
	}
	fmt.Printf("\npaper: always-slowest = 42%% measured (6.1%% ideal) but fails to keep up (growing backlog)\n")
}

func dyntopo(e epnet.EvalConfig) {
	header("Dynamic topologies (§5.1) — Advert workload, rate tuning + link power-off")
	rows, err := epnet.DynTopoExperiment(e, epnet.WorkloadAdvert)
	if err != nil {
		fail(err)
		return
	}
	fmt.Printf("%-32s  %12s  %12s  %10s  %14s  %12s\n",
		"configuration", "measured", "ideal", "off share", "mean latency", "transitions")
	for _, r := range rows {
		fmt.Printf("%-32s  %11.1f%%  %11.1f%%  %9.1f%%  %14v  %12d\n",
			r.Name, r.RelPowerM*100, r.RelPowerID*100, r.OffShare*100,
			r.MeanLat.Round(time.Microsecond), r.Transitions)
	}
	fmt.Printf("\npaper: powering off saves little on measured chips (Figure 5) but is a 'fertile area' with\n")
	fmt.Printf("       a true power-off state; the FBFLY degrades gracefully to a torus-like ring\n")
}

func routingAblation(e epnet.EvalConfig) {
	header("Routing ablation — adaptive vs dimension-order with EP links (permutation, 30% load)")
	rows, err := epnet.RoutingAblation(e, epnet.WorkloadPermutation)
	if err != nil {
		fail(err)
		return
	}
	fmt.Printf("%-10s  %14s  %14s  %12s  %12s\n", "routing", "mean latency", "p99 latency", "ideal power", "backlog (B)")
	for _, r := range rows {
		fmt.Printf("%-10s  %14v  %14v  %11.1f%%  %12d\n",
			r.Routing, r.MeanLat.Round(time.Microsecond), r.P99Lat.Round(time.Microsecond),
			r.RelPowerID*100, r.Backlog)
	}
	fmt.Printf("\npaper (§6): 'a switch with sufficient radix, routing, and congestion-sensing capabilities'\n")
	fmt.Printf("is what makes the FBFLY viable — without adaptivity, traffic cannot steer around\n")
	fmt.Printf("reconfiguring or detuned links\n")
}

func resilience(e epnet.EvalConfig) {
	header("Link-failure resilience (§1 failure domains) — Search, abrupt failures, no drain")
	rows, err := epnet.Resilience(e, epnet.WorkloadSearch, []int{0, 2, 4, 8})
	if err != nil {
		fail(err)
		return
	}
	fmt.Printf("%-14s  %12s  %14s  %14s\n", "failed links", "delivered", "mean latency", "p99 latency")
	for _, r := range rows {
		fmt.Printf("%-14d  %11.1f%%  %14v  %14v\n",
			r.FailedLinks, r.DeliveryRate*100,
			r.MeanLat.Round(time.Microsecond), r.P99Lat.Round(time.Microsecond))
	}
	fmt.Printf("\npaper (§1): decoupling the failure domain from the bandwidth domain — the FBFLY's path\n")
	fmt.Printf("diversity absorbs abrupt link failures with graceful latency degradation and no loss\n")
}

func faultgrid(e epnet.EvalConfig) {
	header("Fault-injection grid — EP policies vs baseline under seeded-random faults (Uniform)")
	policies := []epnet.PolicyKind{epnet.PolicyBaseline, epnet.PolicyHalveDouble, epnet.PolicyQueueAware}
	rates := []float64{1, 5, 20}
	rows, err := epnet.ResilienceGrid(e, epnet.WorkloadUniform, policies, rates)
	if err != nil {
		fail(err)
		return
	}
	fmt.Printf("%-14s  %10s  %11s  %14s  %12s  %12s  %9s  %9s\n",
		"policy", "faults/ms", "delivered", "mean latency", "added mean", "ideal power", "failures", "degrades")
	for _, r := range rows {
		fmt.Printf("%-14s  %10.1f  %10.2f%%  %14v  %12v  %11.1f%%  %9d  %9d\n",
			r.Policy, r.FaultRate, r.DeliveredFrac*100,
			r.MeanLat.Round(time.Microsecond), r.AddedMean.Round(100*time.Nanosecond),
			r.RelPowerID*100, r.LinkFailures, r.Degradations)
	}
	fmt.Printf("\nfaults are scheduled on the simulation heap from the run seed, so every policy rides\n")
	fmt.Printf("through the identical failure history: delivery differences are the policy's doing, not\n")
	fmt.Printf("luck — detuned links drop the same packets a full-rate fabric would, paying only latency\n")
}

func serdes(epnet.EvalConfig) {
	header("Channel design exploration (§6 challenge 2 / ref [10]) — energy per bit vs lane rate")
	for _, ch := range []epnet.SerDesChannel{
		epnet.SerDesShortCopper, epnet.SerDesLongCopper, epnet.SerDesOptical,
	} {
		points, best, err := epnet.SerDesSweep(ch)
		if err != nil {
			fail(err)
			return
		}
		fmt.Printf("%s:\n", ch)
		fmt.Printf("  %-10s  %10s  %10s  %8s  %12s\n", "lane Gb/s", "lane mW", "pJ/bit", "40G port", "feasible")
		for _, p := range points {
			feas := "yes"
			if !p.Feasible {
				feas = "no (loss budget)"
			}
			mark := " "
			if p.LaneGbps == best.LaneGbps {
				mark = "*"
			}
			fmt.Printf(" %s%-10g  %10.1f  %10.2f  %5.1f W  %12s\n",
				mark, p.LaneGbps, p.LaneMW, p.PJPerBit, p.PortMW/1000, feas)
		}
		fmt.Printf("  optimum: %g Gb/s lanes at %.2f pJ/bit\n\n", best.LaneGbps, best.PJPerBit)
	}
	fmt.Printf("paper (§6): 'high-speed channel designs will evolve to be more energy proportional' —\n")
	fmt.Printf("energy/bit is U-shaped in lane rate, and lossier channels prefer slower lanes, so the\n")
	fmt.Printf("per-medium optimum differs (after Hatamkhani & Yang, ref [10])\n")
}

func oversub(e epnet.EvalConfig) {
	header("Over-subscription sweep (§2.1.1) — concentration c on a fixed switch fabric (Search)")
	cs := []int{e.K / 2, e.K, e.K * 3 / 2, e.K * 2}
	rows, err := epnet.OverSubscription(e, epnet.WorkloadSearch, cs)
	if err != nil {
		fail(err)
		return
	}
	fmt.Printf("%-4s  %6s  %8s  %14s  %14s  %12s  %12s\n",
		"c", "hosts", "c:k", "mean latency", "p99 latency", "ideal power", "W per host")
	for _, r := range rows {
		fmt.Printf("%-4d  %6d  %7.2f:1  %14v  %14v  %11.1f%%  %12.1f\n",
			r.C, r.Hosts, r.Ratio,
			r.MeanLat.Round(time.Microsecond), r.P99Lat.Round(time.Microsecond),
			r.RelPowerID*100, r.WattsPerHost)
	}
	fmt.Printf("\npaper (§2.1.1): modest over-subscription 'remains a practical and pragmatic approach to\n")
	fmt.Printf("reduce power (as well as capital expenditures)' — per-host watts fall as c grows, at a\n")
	fmt.Printf("latency cost that stays small while the workload's duty cycle is low\n")
}

func topocompare(e epnet.EvalConfig) {
	header("Simulated topology comparison — FBFLY vs non-blocking fat tree, EP links (Search)")
	rows, err := epnet.TopologyComparison(e, epnet.WorkloadSearch)
	if err != nil {
		fail(err)
		return
	}
	fmt.Printf("%-10s  %6s  %9s  %9s  %14s  %12s  %10s\n",
		"topology", "hosts", "switches", "channels", "mean latency", "ideal power", "asymmetry")
	for _, r := range rows {
		fmt.Printf("%-10s  %6d  %9d  %9d  %14v  %11.1f%%  %10.2f\n",
			r.Topology, r.Hosts, r.Switches, r.Channels,
			r.MeanLat.Round(time.Microsecond), r.RelPowerID*100, r.Asymmetry)
	}
	fmt.Printf("\npaper (§3.3): dynamic range works on a folded Clos too, but the FBFLY provides the same\n")
	fmt.Printf("service with less switching hardware (Table 1) and makes the tuning decision local\n")
}

func reactivation(e epnet.EvalConfig) {
	header("Reactivation model ablation (§3.1/§5.2) — Search")
	rows, err := epnet.ReactivationAblation(e, epnet.WorkloadSearch)
	if err != nil {
		fail(err)
		return
	}
	fmt.Printf("%-36s  %14s  %12s  %10s\n", "model", "mean latency", "ideal power", "reconfigs")
	for _, r := range rows {
		fmt.Printf("%-36s  %14v  %11.1f%%  %10d\n",
			r.Name, r.MeanLat.Round(time.Microsecond), r.RelPowerID*100, r.Reconfigs)
	}
	fmt.Printf("\npaper (§5.2): better algorithms should 'take into account the difference in link\n")
	fmt.Printf("resynchronization latency' — most halve/double transitions change only the signaling\n")
	fmt.Printf("rate, paying just the ~100ns digital CDR re-lock\n")
}
