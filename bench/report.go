package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	name, unit   string
	higherBetter bool
	// bound is how far an end-to-end metric may worsen, as a share of
	// the parent's value, before a change counts as a regression.
	bound float64
	// useMax reports the maximum over repetitions instead of the median
	// (peak memory: a bimodal resident set must not hide its high mode).
	useMax bool
	// rep reads an end-to-end metric from one repetition.
	rep func(repResult) float64
}

// endToEnd are the metrics a user of the simulator waits on or pays
// for: host time and host memory, lower is better. The bounds are as
// wide as the shared 2-CPU machine the benchmark was defined on forces:
// its speed drifts by 20-40% over minutes, and peak memory moves with
// where collections fall (README.md, Noise).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, rep: setupOf},
	{name: "wall_s", unit: "s", bound: 0.25, rep: wallOf},
	{name: "peak_rss_mb", unit: "MB", bound: 0.25, useMax: true, rep: func(r repResult) float64 { return r.RSSMB }},
}

// perLayer are the traced run's per-layer metrics, named after the
// modules. README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{name: "traffic.start_ms", unit: "ms"},
	{name: "topo.build_ms", unit: "ms"},
	{name: "routing.build_ms", unit: "ms"},
	{name: "fabric.build_ms", unit: "ms"},
	{name: "fabric.build_b_per_host", unit: "B"},
	{name: "fabric.pkt_ns", unit: "ns"},
	{name: "fabric.events_per_pkt", unit: "count"},
	{name: "sim.events", unit: "count"},
	{name: "sim.ns_per_event", unit: "ns"},
	{name: "sim.peak_pending", unit: "count"},
	{name: "sim.event_ns_at_depth", unit: "ns"},
	{name: "routing.candidates_ns", unit: "ns"},
	{name: "link.transmit_ns", unit: "ns"},
	{name: "link.epoch_ns", unit: "ns"},
	{name: "core.chan_epoch_ns", unit: "ns"},
	{name: "core.reconfigs", unit: "count"},
	{name: "shard.count", unit: "count", higherBetter: true},
	{name: "shard.rounds", unit: "count"},
	{name: "shard.barrier_pct", unit: "%"},
	{name: "shard.window_eff_pct", unit: "%", higherBetter: true},
	{name: "shard.critical_path_s", unit: "s"},
	{name: "shard.ctrl_s", unit: "s"},
	{name: "shard.drain_s", unit: "s"},
	{name: "shard.speedup", unit: "x", higherBetter: true},
	{name: "telemetry.series", unit: "count"},
	{name: "telemetry.sample_series_ns", unit: "ns"},
	{name: "telemetry.observe_overhead_pct", unit: "%"},
	{name: "telemetry.flow_traced", unit: "count", higherBetter: true},
	{name: "power.collect_ms", unit: "ms"},
	{name: "epnet.outside_engine_s", unit: "s"},
	{name: "epnet.ns_per_pkt", unit: "ns"},
	{name: "fault.events", unit: "count"},
	{name: "fault.dropped_pkts", unit: "count"},
	{name: "parallel.cpu_s", unit: "s"},
	{name: "parallel.cpu_util", unit: "%", higherBetter: true},
	{name: "model.power_ideal_pct", unit: "%"},
	{name: "model.power_measured_pct", unit: "%"},
	{name: "model.p99_us", unit: "us"},
	{name: "trace.overhead_s", unit: "s"},
	{name: "ledger.residual_s", unit: "s"},
	{name: "ledger.residual_pct", unit: "%"},
}

// findMetric looks a metric up in either table.
func findMetric(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// The report is JSON Lines: one header record, then per workload one
// "reps" record and one "metric" record per metric, then the result.
type header struct {
	Kind       string   `json:"kind"`
	CPUs       int      `json:"cpus"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	Revision   string   `json:"revision"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	Workloads  []string `json:"workloads"`
}

// repsLine counts one workload's repetitions. A repetition fails on an
// error, a non-zero exit, a timeout or a failed output check.
type repsLine struct {
	Kind      string `json:"kind"`
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
}

// line is one (workload, metric) distribution over repetitions. Value
// is the metric's statistic: the median, or the maximum for useMax.
type line struct {
	Kind     string  `json:"kind"`
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	N        int     `json:"n"`
}

func (l line) summary() summary {
	return summary{Median: l.Median, Q1: l.Q1, Q3: l.Q3, Min: l.Min, Max: l.Max, N: l.N}
}

// metricLine summarizes xs as the report line of (workload, m).
func metricLine(workload string, m metricDef, xs []float64) line {
	s := summarize(xs)
	v := s.Median
	if m.useMax {
		v = s.Max
	}
	return line{Kind: "metric", Workload: workload, Metric: m.name, Unit: m.unit,
		Value: v, Median: s.Median, Q1: s.Q1, Q3: s.Q3, Min: s.Min, Max: s.Max, N: s.N}
}

// result is the report's last line, the one record every caller reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeTable prints metric lines as an aligned table.
func writeTable(w io.Writer, lines []line) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tvalue\tmedian\tq1\tq3\tmin\tmax\tn\t")
	for _, l := range lines {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%d\t\n",
			l.Workload, l.Metric, l.Unit, l.Value, l.Median, l.Q1, l.Q3, l.Min, l.Max, l.N)
	}
	tw.Flush()
}

// verdict compares metric line b (the change) against a (the parent)
// under bound, following the benchmark's rule: a change beyond the
// bound is worse or better, unless the run-to-run spread of either side
// exceeds the bound, in which case it is unresolved, unless every run
// of one side beats every run of the other.
func verdict(a, b line, m metricDef) string {
	if a.N == 0 || b.N == 0 || a.Value == 0 {
		return "unresolved"
	}
	delta := (b.Value - a.Value) / math.Abs(a.Value)
	bBeatsAll, aBeatsAll := b.Max < a.Min, b.Min > a.Max
	if m.higherBetter {
		delta = -delta
		bBeatsAll, aBeatsAll = aBeatsAll, bBeatsAll
	}
	noisy := math.Max(a.summary().spread(), b.summary().spread()) > m.bound
	switch {
	case delta > m.bound:
		if noisy && !aBeatsAll {
			return "unresolved"
		}
		return "worse"
	case delta < -m.bound:
		if noisy && !bBeatsAll {
			return "unresolved"
		}
		return "better"
	case noisy && !bBeatsAll:
		return "unresolved"
	}
	return "within bound"
}

// readReport reads the "reps" and "metric" records of a report.
func readReport(path string) (reps map[string]repsLine, metrics map[[2]string]line, order [][2]string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	reps, metrics = map[string]repsLine{}, map[[2]string]line{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var kind struct{ Kind string }
		if json.Unmarshal(sc.Bytes(), &kind) != nil {
			continue // not a report record
		}
		switch kind.Kind {
		case "reps":
			var r repsLine
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			reps[r.Workload] = r
		case "metric":
			var l line
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			k := [2]string{l.Workload, l.Metric}
			if _, dup := metrics[k]; !dup {
				order = append(order, k)
			}
			metrics[k] = l
		}
	}
	return reps, metrics, order, sc.Err()
}

// compareReports prints, per workload and metric, both values, the
// change and a verdict; per workload also the failed-repetition share,
// where any rise is worse. It returns how many pairs were worse or
// unresolved.
func compareReports(pathA, pathB string, w io.Writer) (int, error) {
	repsA, ma, order, err := readReport(pathA)
	if err != nil {
		return 0, err
	}
	repsB, mb, _, err := readReport(pathB)
	if err != nil {
		return 0, err
	}
	bad := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tdelta\tbound\tverdict")
	seen := map[string]bool{}
	for _, k := range order {
		if ra, ok := repsA[k[0]]; ok && !seen[k[0]] {
			seen[k[0]] = true
			rb := repsB[k[0]]
			fa, fb := failShare(ra), failShare(rb)
			v := "within bound"
			switch {
			case fb > fa:
				v, bad = "worse", bad+1
			case fb < fa:
				v = "better"
			}
			fmt.Fprintf(tw, "%s\tfail_frac\t%.3g\t%.3g\t\t0\t%s\n", k[0], fa, fb, v)
		}
		a := ma[k]
		b, ok := mb[k]
		m, known := findMetric(k[1])
		if !ok || !known {
			continue
		}
		delta := math.NaN()
		if a.Value != 0 {
			delta = (b.Value - a.Value) / math.Abs(a.Value) * 100
		}
		if m.bound == 0 { // per-layer: no bound, no verdict
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t-\tinfo\n", k[0], k[1], a.Value, b.Value, delta)
			continue
		}
		v := verdict(a, b, m)
		if v == "worse" || v == "unresolved" {
			bad++
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", k[0], k[1], a.Value, b.Value, delta, m.bound*100, v)
	}
	return bad, tw.Flush()
}

func failShare(l repsLine) float64 {
	if l.Attempted == 0 {
		return 1
	}
	return float64(l.Failed) / float64(l.Attempted)
}
