package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "wall_s", bound: 0.1}
	higher := metricDef{name: "speed", bound: 0.1, higherBetter: true}
	// tight runs spread ±1% around v, noisy runs ±20% (beyond the bound).
	tight := func(v float64) line {
		return line{Value: v, Median: v, Q1: v * 0.99, Q3: v * 1.01, Min: v * 0.98, Max: v * 1.02, N: 5}
	}
	noisy := func(v float64) line {
		return line{Value: v, Median: v, Q1: v * 0.8, Q3: v * 1.2, Min: v * 0.7, Max: v * 1.3, N: 5}
	}
	cases := []struct {
		name string
		a, b line
		m    metricDef
		want string
	}{
		{"unchanged", tight(10), tight(10), lower, "within bound"},
		{"small rise", tight(10), tight(10.5), lower, "within bound"},
		{"rise beyond bound", tight(10), tight(12), lower, "worse"},
		{"fall beyond bound", tight(10), tight(8), lower, "better"},
		{"higher is better", tight(10), tight(12), higher, "better"},
		{"higher is better, fall", tight(10), tight(8), higher, "worse"},
		{"noisy rise", noisy(10), noisy(12), lower, "unresolved"},
		{"noisy, unchanged", noisy(10), noisy(10), lower, "unresolved"},
		{"noisy, every run worse", noisy(10), noisy(20), lower, "worse"},
		{"noisy, every run better", noisy(10), noisy(5), lower, "better"},
		{"no runs", tight(10), line{}, lower, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, failed int, wall float64) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.Encode(header{Kind: "header", Workloads: []string{"paper3k"}})
		enc.Encode(repsLine{Kind: "reps", Workload: "paper3k", Attempted: 4, Failed: failed})
		enc.Encode(metricLine("paper3k", endToEnd[1], []float64{wall, wall * 1.01, wall * 0.99}))
		enc.Encode(result{Correct: failed == 0})
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", 0, 5)
	var out bytes.Buffer
	bad, err := compareReports(a, write("same.jsonl", 0, 5), &out)
	if err != nil || bad != 0 {
		t.Fatalf("same reports: bad=%d err=%v\n%s", bad, err, out.String())
	}
	out.Reset()
	bad, err = compareReports(a, write("worse.jsonl", 1, 7), &out)
	if err != nil || bad != 2 {
		t.Fatalf("failures and a slower wall: bad=%d err=%v, want 2\n%s", bad, err, out.String())
	}
	for _, want := range []string{"fail_frac", "wall_s", "worse"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}

// benchmarkJSON is the root BENCHMARK.json, which declares the
// benchmark's command, workloads and metrics.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTool(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the tool %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if !nameRE.MatchString(w.Name) || w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), tool %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the tool %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if !nameRE.MatchString(m.Name) || m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higherBetter) || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, tool %s %s %s %v", i, m, d.name, d.unit, better(d.higherBetter), d.bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the tool %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if !nameRE.MatchString(m.Name) || m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higherBetter) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, tool %s %s %s", i, m, d.name, d.unit, better(d.higherBetter))
		}
	}
}
