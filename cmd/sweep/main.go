// Command sweep runs a one-dimensional parameter sweep and emits CSV,
// for regenerating the paper's figures with any plotting tool.
//
// Supported sweep axes:
//
//	target       target channel utilization (Figure 9a's x axis)
//	reactivation link reactivation time, epoch = 10x (Figure 9b's x axis)
//	load         workload average utilization
//	radix        FBFLY k (with c = k, n fixed)
//	fault-rate   seeded-random fault events per simulated millisecond
//
// The simulation flags are the shared internal/cli surface — including
// -preset and -scenario, so a sweep can hold a whole scenario fixed
// while varying one axis. Note -k sets only the radix; pass -c too (or
// use the radix axis) for balanced c = k shapes.
//
// Examples:
//
//	sweep -x target -values 0.25,0.5,0.75 -workload search
//	sweep -x reactivation -values 100ns,1us,10us -workload uniform -o fig9b.csv
//	sweep -x load -values 0.02,0.05,0.1,0.2 -workload uniform -independent
//	sweep -x fault-rate -values 0,0.2,0.5,1 -workload uniform -policy baseline
//	sweep -x target -values 0.25,0.5,0.75 -scenario diurnal
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"epnet"
	"epnet/internal/cli"
)

func main() {
	var loader cli.Loader
	base := epnet.DefaultConfig()
	base.Warmup = time.Millisecond
	base.Duration = 4 * time.Millisecond
	loader.Bind(flag.CommandLine, "sweep", base)

	axis := flag.String("x", "target", "sweep axis: target | reactivation | load | radix | fault-rate")
	values := flag.String("values", "", "comma-separated axis values (durations for reactivation)")
	out := flag.String("o", "", "output CSV file (default stdout)")
	par := flag.Int("parallel", runtime.NumCPU(), "max concurrent simulations (1 = serial; output is identical either way)")
	flag.Parse()

	if *values == "" {
		fail(fmt.Errorf("-values is required"))
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	cw := csv.NewWriter(w)
	defer cw.Flush()

	header := []string{
		*axis, "mean_latency_us", "p99_latency_us", "rel_power_measured",
		"rel_power_ideal", "avg_util", "asymmetry", "reconfigs", "backlog_bytes",
		"delivered_frac", "dropped_pkts",
	}
	if err := cw.Write(header); err != nil {
		fail(err)
	}

	// Build the whole grid first, then fan the independent runs out
	// across -parallel workers; rows are emitted in input order.
	var raws []string
	var cfgs []epnet.Config
	for _, raw := range strings.Split(*values, ",") {
		raw = strings.TrimSpace(raw)
		cfg, err := loader.Resolve()
		if err != nil {
			fail(err)
		}

		switch *axis {
		case "target":
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				fail(err)
			}
			cfg.TargetUtil = v
		case "reactivation":
			d, err := time.ParseDuration(raw)
			if err != nil {
				fail(err)
			}
			cfg.Reactivation = d
			cfg.Epoch = 10 * d
			if min := 40 * cfg.Epoch; cfg.Duration < min {
				cfg.Duration = min
			}
		case "load":
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				fail(err)
			}
			cfg.Load = v
		case "radix":
			v, err := strconv.Atoi(raw)
			if err != nil {
				fail(err)
			}
			cfg.K, cfg.C = v, v
		case "fault-rate":
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				fail(err)
			}
			cfg.FaultRate = v
		default:
			fail(fmt.Errorf("unknown axis %q", *axis))
		}
		raws = append(raws, raw)
		cfgs = append(cfgs, cfg)
	}

	// Output paths are numbered in row order before the fan-out, so
	// -parallel runs write identical files and the CSV stays untouched.
	epnet.NumberOutputs(cfgs, 0)

	results, err := epnet.RunGrid(cfgs, *par)
	if err != nil {
		fail(err)
	}
	for i, res := range results {
		row := []string{
			raws[i],
			fmt.Sprintf("%.3f", float64(res.MeanLatency.Nanoseconds())/1000),
			fmt.Sprintf("%.3f", float64(res.P99Latency.Nanoseconds())/1000),
			fmt.Sprintf("%.4f", res.RelPowerMeasured),
			fmt.Sprintf("%.4f", res.RelPowerIdeal),
			fmt.Sprintf("%.4f", res.AvgUtil),
			fmt.Sprintf("%.4f", res.Asymmetry),
			strconv.FormatInt(res.Reconfigurations, 10),
			strconv.FormatInt(res.BacklogBytes, 10),
			fmt.Sprintf("%.5f", res.DeliveredFraction),
			strconv.FormatInt(res.DroppedPackets, 10),
		}
		if err := cw.Write(row); err != nil {
			fail(err)
		}
		cw.Flush()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
