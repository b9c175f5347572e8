// Command benchjson converts `go test -bench` output on stdin into
// machine-readable JSON Lines on stdout, one object per benchmark
// result:
//
//	{"name":"BenchmarkNetworkThroughput-8","iterations":860,
//	 "ns_per_op":1394,"bytes_per_op":0,"allocs_per_op":0}
//
// Lines that are not benchmark results (package headers, PASS/ok) are
// ignored, so the tool composes directly with make:
//
//	go test -bench . -benchmem ./... | benchjson > bench.jsonl
//
// With -compare, the stream is instead diffed against a checked-in
// baseline (a JSON Lines file written by an earlier run):
//
//	go test -bench . -benchmem ./... | benchjson -compare BENCH_seed.json
//
// Each benchmark present in both runs is reported with its ns/op delta;
// regressions beyond -threshold (default 10%) are flagged. Benchmarks
// with /shards=N sub-results additionally get a shard-scaling section:
// speedup@N = MB/s(N) / MB/s(1) and efficiency = speedup@N / N, with
// low efficiency flagged only when the recording machine actually had N
// cores to offer. Benchmarks that report engine self-profile metrics
// (barrier% barrier overhead and weff% window efficiency, emitted by
// BenchmarkShardedThroughput) get an engine-profile section, flagging
// barrier overhead that grew by more than 10 percentage points over the
// baseline; baselines recorded before the metrics existed show "(new)".
// The exit status stays 0 — benchmark noise across machines makes a
// hard gate counterproductive, so the report is advisory and CI runs it
// report-only.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	Cpus        float64 `json:"cpus,omitempty"`
	BarrierPct  float64 `json:"barrier_pct,omitempty"`
	WindowEff   float64 `json:"window_eff_pct,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BPerHost    float64 `json:"b_per_host,omitempty"`
	NsPerHost   float64 `json:"ns_per_host,omitempty"`
	NsPerSeries float64 `json:"ns_per_series,omitempty"`
}

// parseLine extracts a Result from one `go test -bench` output line, or
// returns false for non-benchmark lines.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters}
	// Remaining fields come in "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "MB/s":
			res.MBPerSec = v
		case "cpus":
			res.Cpus = v
		case "barrier%":
			res.BarrierPct = v
		case "weff%":
			res.WindowEff = v
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		case "B/host":
			res.BPerHost = v
		case "ns/host":
			res.NsPerHost = v
		case "ns/series":
			res.NsPerSeries = v
		}
	}
	return res, true
}

// parseStream reads benchmark results from `go test -bench` text on r,
// in input order.
func parseStream(r io.Reader) ([]Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Result
	for sc.Scan() {
		if res, ok := parseLine(sc.Text()); ok {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// readBaseline loads a JSON Lines baseline written by an earlier
// benchjson run.
func readBaseline(path string) (map[string]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := make(map[string]Result)
	dec := json.NewDecoder(f)
	for {
		var res Result
		if err := dec.Decode(&res); err == io.EOF {
			return base, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		base[res.Name] = res
	}
}

// compare prints a per-benchmark ns/op delta report against base,
// flagging regressions beyond threshold (a fraction: 0.10 = 10%) and
// any allocs/op growth. It returns the number of flagged regressions.
func compare(w io.Writer, current []Result, base map[string]Result, threshold float64) int {
	regressions := 0
	seen := make(map[string]bool, len(current))
	fmt.Fprintf(w, "%-52s %14s %14s %9s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	for _, cur := range current {
		seen[cur.Name] = true
		old, ok := base[cur.Name]
		if !ok {
			fmt.Fprintf(w, "%-52s %14s %14.0f %9s  (new)\n", cur.Name, "-", cur.NsPerOp, "-")
			continue
		}
		delta := 0.0
		if old.NsPerOp > 0 {
			delta = cur.NsPerOp/old.NsPerOp - 1
		}
		flag := ""
		if delta > threshold {
			flag = fmt.Sprintf("  REGRESSION (>%0.f%%)", threshold*100)
			regressions++
		}
		if cur.AllocsPerOp > old.AllocsPerOp {
			flag += fmt.Sprintf("  ALLOCS %d -> %d", old.AllocsPerOp, cur.AllocsPerOp)
			if delta <= threshold {
				regressions++
			}
		}
		fmt.Fprintf(w, "%-52s %14.0f %14.0f %+8.1f%%%s\n",
			cur.Name, old.NsPerOp, cur.NsPerOp, delta*100, flag)
	}
	for name := range base {
		if !seen[name] {
			fmt.Fprintf(w, "%-52s  (missing from current run)\n", name)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "\n%d benchmark(s) regressed beyond the %.0f%% threshold\n", regressions, threshold*100)
	} else {
		fmt.Fprintf(w, "\nno regressions beyond the %.0f%% threshold\n", threshold*100)
	}
	return regressions
}

// shardName splits a benchmark name like
// "BenchmarkShardedThroughput/shards=4-8" into its base name and shard
// count, or returns false for names without a /shards=N component.
func shardName(name string) (base string, shards int, ok bool) {
	const marker = "/shards="
	i := strings.Index(name, marker)
	if i < 0 {
		return "", 0, false
	}
	rest := name[i+len(marker):]
	// Trim the -GOMAXPROCS suffix go test appends to sub-benchmarks.
	if j := strings.IndexByte(rest, '-'); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return "", 0, false
	}
	return name[:i], n, true
}

// shardScaling prints the shard-scaling efficiency of every benchmark
// family with /shards=N sub-results: speedup@N relative to the serial
// (shards=1) run and efficiency = speedup@N / N. Efficiency below half
// is flagged LOW, but only when the recording machine had at least N
// cpus — a flat curve on a saturated box is the environment, not the
// engine. Like the rest of the report the section is advisory.
func shardScaling(w io.Writer, current []Result) {
	type point struct {
		shards int
		res    Result
	}
	groups := make(map[string][]point)
	var order []string
	for _, res := range current {
		base, n, ok := shardName(res.Name)
		if !ok {
			continue
		}
		if _, seen := groups[base]; !seen {
			order = append(order, base)
		}
		groups[base] = append(groups[base], point{n, res})
	}
	for _, base := range order {
		pts := groups[base]
		sort.Slice(pts, func(i, j int) bool { return pts[i].shards < pts[j].shards })
		var serial float64
		for _, p := range pts {
			if p.shards == 1 {
				serial = p.res.MBPerSec
			}
		}
		if serial <= 0 || len(pts) < 2 {
			continue // no serial anchor (or nothing to scale) — skip
		}
		fmt.Fprintf(w, "\nshard scaling: %s\n", base)
		fmt.Fprintf(w, "%8s %12s %9s %11s\n", "shards", "MB/s", "speedup", "efficiency")
		for _, p := range pts {
			speedup := p.res.MBPerSec / serial
			eff := speedup / float64(p.shards)
			flag := ""
			if p.shards > 1 && eff < 0.5 && p.res.Cpus >= float64(p.shards) {
				flag = "  LOW"
			}
			fmt.Fprintf(w, "%8d %12.2f %8.2fx %10.0f%%%s\n",
				p.shards, p.res.MBPerSec, speedup, eff*100, flag)
		}
		if cpus := pts[len(pts)-1].res.Cpus; cpus > 0 {
			fmt.Fprintf(w, "(recorded with %.0f cpus; speedup beyond that count is not expected)\n", cpus)
		}
	}
}

// engineProfile prints the engine self-profile section for every
// benchmark that reported a barrier% metric: barrier overhead (the
// fraction of wall time outside the per-round critical path) and window
// efficiency (simulated advance used / granted). With a baseline,
// barrier overhead that grew by more than 10 percentage points is
// flagged; baselines recorded before the metrics existed (or new
// benchmarks) show "(new)". Serial (shards=1) rows naturally report ~0
// barrier overhead and anchor the table. Advisory, like the rest.
func engineProfile(w io.Writer, current []Result, base map[string]Result) {
	const growth = 10.0 // percentage points of barrier overhead
	header := false
	for _, cur := range current {
		if cur.BarrierPct == 0 && cur.WindowEff == 0 {
			continue
		}
		if !header {
			fmt.Fprintf(w, "\nengine profile (barrier overhead / window efficiency):\n")
			fmt.Fprintf(w, "%-52s %10s %10s %8s\n", "benchmark", "base barr%", "barrier%", "weff%")
			header = true
		}
		old, ok := base[cur.Name]
		flag := ""
		baseCol := "(new)"
		if ok && (old.BarrierPct != 0 || old.WindowEff != 0) {
			baseCol = fmt.Sprintf("%.1f", old.BarrierPct)
			if cur.BarrierPct-old.BarrierPct > growth {
				flag = fmt.Sprintf("  BARRIER +%.1fpp", cur.BarrierPct-old.BarrierPct)
			}
		}
		fmt.Fprintf(w, "%-52s %10s %10.1f %8.1f%s\n",
			cur.Name, baseCol, cur.BarrierPct, cur.WindowEff, flag)
	}
}

// buildMemory prints the construction-cost section for every benchmark
// that reported per-host metrics (BenchmarkBuildNetwork): bytes of
// allocation and build time per host, with the baseline alongside.
// Bytes/host growth beyond 25% is flagged — construction memory is the
// thing the flyweight fabric exists to bound, and a silent creep back
// toward per-entity boxing would undo it. Advisory, like the rest.
func buildMemory(w io.Writer, current []Result, base map[string]Result) {
	const growth = 0.25
	header := false
	for _, cur := range current {
		if cur.BPerHost == 0 && cur.NsPerHost == 0 {
			continue
		}
		if !header {
			fmt.Fprintf(w, "\nbuild memory (construction cost per host):\n")
			fmt.Fprintf(w, "%-52s %12s %12s %12s\n", "benchmark", "base B/host", "B/host", "ns/host")
			header = true
		}
		old, ok := base[cur.Name]
		flag := ""
		baseCol := "(new)"
		if ok && old.BPerHost > 0 {
			baseCol = fmt.Sprintf("%.0f", old.BPerHost)
			if cur.BPerHost/old.BPerHost-1 > growth {
				flag = fmt.Sprintf("  MEMORY +%.0f%%", (cur.BPerHost/old.BPerHost-1)*100)
			}
		}
		fmt.Fprintf(w, "%-52s %12s %12.0f %12.0f%s\n",
			cur.Name, baseCol, cur.BPerHost, cur.NsPerHost, flag)
	}
}

func main() {
	baseline := flag.String("compare", "", "baseline JSON Lines file: print a ns/op delta report instead of JSON")
	threshold := flag.Float64("threshold", 0.10, "regression threshold as a fraction of baseline ns/op")
	flag.Parse()

	current, err := parseStream(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		base, err := readBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		compare(os.Stdout, current, base, *threshold)
		shardScaling(os.Stdout, current)
		engineProfile(os.Stdout, current, base)
		buildMemory(os.Stdout, current, base)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	for _, res := range current {
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}
