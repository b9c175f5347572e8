package epnet

// Benchmarks regenerating every table and figure of the paper. Each
// benchmark reports the headline metrics of its table/figure via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction harness at benchmark scale. EXPERIMENTS.md records the
// paper-vs-measured comparison from the full cmd/experiments runs.

import (
	"testing"
	"time"
)

// benchEval is the evaluation scale used by the benchmarks: small
// enough that each figure regenerates in seconds.
func benchEval() EvalConfig {
	e := DefaultEval()
	e.K, e.N, e.C = 4, 2, 4
	e.Warmup = 200 * time.Microsecond
	e.Duration = time.Millisecond
	return e
}

// BenchmarkTable1 regenerates Table 1 (analytic part counts and power
// for the 32k-host folded Clos vs flattened butterfly).
func BenchmarkTable1(b *testing.B) {
	var t Table1Result
	for i := 0; i < b.N; i++ {
		t = Table1()
	}
	b.ReportMetric(t.Clos.TotalWatts, "clos-W")
	b.ReportMetric(t.FBFLY.TotalWatts, "fbfly-W")
	b.ReportMetric(t.SavingsDollars, "saved-$4yr")
}

// BenchmarkFigure1 regenerates Figure 1 (server vs network power).
func BenchmarkFigure1(b *testing.B) {
	var f Figure1Result
	for i := 0; i < b.N; i++ {
		f = Figure1()
	}
	b.ReportMetric(f.Scenarios[1].NetworkFraction()*100, "network-pct-at-15pct-util")
	b.ReportMetric(f.NetworkSavingsWatts/1000, "saved-kW")
}

// BenchmarkFigure5 regenerates the measured switch power profile.
func BenchmarkFigure5(b *testing.B) {
	var floor float64
	for i := 0; i < b.N; i++ {
		pts, _, _ := Figure5()
		floor = pts[0].RelativePower
	}
	b.ReportMetric(floor*100, "slowest-mode-power-pct")
}

// BenchmarkFigure6 regenerates the ITRS trend series.
func BenchmarkFigure6(b *testing.B) {
	var last ITRSPoint
	for i := 0; i < b.N; i++ {
		pts := Figure6()
		last = pts[len(pts)-1]
	}
	b.ReportMetric(last.IOBandwidthTb, "2023-io-Tbps")
}

// BenchmarkFigure7 regenerates the time-at-rate distribution for Search
// under paired vs independent channel control.
func BenchmarkFigure7(b *testing.B) {
	var res Figure7Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Figure7(benchEval())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Paired[2.5]*100, "paired-2.5G-pct")
	b.ReportMetric(res.Independent[2.5]*100, "indep-2.5G-pct")
}

// BenchmarkFigure8a regenerates network power under the measured
// channel profile.
func BenchmarkFigure8a(b *testing.B) {
	var rows []Figure8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = Figure8(benchEval())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeasuredIndependent*100, string(r.Workload)+"-measured-pct")
	}
}

// BenchmarkFigure8b regenerates network power under ideally
// proportional channels (the paper's 6x headline).
func BenchmarkFigure8b(b *testing.B) {
	var rows []Figure8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = Figure8(benchEval())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.IdealIndependent*100, string(r.Workload)+"-ideal-pct")
		b.ReportMetric(r.IdealBound*100, string(r.Workload)+"-bound-pct")
	}
}

// BenchmarkFigure9a regenerates the latency-vs-target-utilization
// sensitivity.
func BenchmarkFigure9a(b *testing.B) {
	var rows []Figure9aRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = Figure9a(benchEval())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Workload == WorkloadSearch {
			b.ReportMetric(float64(r.AddedMean.Microseconds()),
				"search-added-us-at-"+itoa(int(r.Target*100)))
		}
	}
}

// BenchmarkFigure9b regenerates the latency-vs-reactivation-time
// sensitivity. The 100 µs point needs a long window, so this benchmark
// uses the Search workload only.
func BenchmarkFigure9b(b *testing.B) {
	reacts := []time.Duration{100 * time.Nanosecond, time.Microsecond, 10 * time.Microsecond}
	e := benchEval()
	for i := 0; i < b.N; i++ {
		for _, react := range reacts {
			cfg := e.base()
			cfg.Workload = WorkloadSearch
			cfg.Policy = PolicyHalveDouble
			cfg.Reactivation = react
			cfg.Epoch = 10 * react
			if min := 40 * cfg.Epoch; cfg.Duration < min {
				cfg.Duration = min
			}
			base := cfg
			base.Policy = PolicyBaseline
			bres, err := Run(base)
			if err != nil {
				b.Fatal(err)
			}
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			added := res.MeanLatency - bres.MeanLatency
			b.ReportMetric(float64(added.Microseconds()), "added-us-react-"+react.String())
		}
	}
}

// BenchmarkPolicyAblation compares the §5.2 heuristics.
func BenchmarkPolicyAblation(b *testing.B) {
	var rows []PolicyAblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = PolicyAblation(benchEval(), WorkloadSearch)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.RelPowerID*100, string(r.Policy)+"-ideal-pct")
	}
}

// BenchmarkDynamicTopology measures the §5.1 dynamic topology proposal.
func BenchmarkDynamicTopology(b *testing.B) {
	var rows []DynTopoRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = DynTopoExperiment(benchEval(), WorkloadAdvert)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].OffShare*100, "off-share-pct")
	b.ReportMetric(rows[1].RelPowerID*100, "dyntopo-ideal-pct")
}

// BenchmarkSimulatorThroughput measures raw simulator performance:
// events and packets per second of wall time on the default network.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var pkts int64
	var dur time.Duration
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.K, cfg.N, cfg.C = 8, 2, 8
		cfg.Workload = WorkloadUniform
		cfg.Warmup = 0
		cfg.Duration = time.Millisecond
		start := time.Now()
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dur += time.Since(start)
		pkts += res.DeliveredPackets
	}
	if dur > 0 {
		b.ReportMetric(float64(pkts)/dur.Seconds(), "pkts/s")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
