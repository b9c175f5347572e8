package epnet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// chaosFlow caches one chaos-scenario run with every packet traced; the
// scenario covers multi-phase traffic, injected faults, and real drops,
// so most flow-trace surfaces show up in a single simulation.
var chaosFlow struct {
	once sync.Once
	res  Result
	err  error
}

func chaosFlowRun(t *testing.T) Result {
	t.Helper()
	if testing.Short() {
		t.Skip("full scenario run")
	}
	chaosFlow.once.Do(func() {
		cfg, err := LoadScenario("chaos", DefaultConfig())
		if err != nil {
			chaosFlow.err = err
			return
		}
		cfg.Warmup = 50 * time.Microsecond
		cfg.Seed = 1
		cfg.FlowTrace = true
		cfg.FlowSample = 1
		chaosFlow.res, chaosFlow.err = Run(cfg)
	})
	if chaosFlow.err != nil {
		t.Fatal(chaosFlow.err)
	}
	if chaosFlow.res.FlowTrace == nil {
		t.Fatal("Config.FlowTrace set but Result.FlowTrace is nil")
	}
	return chaosFlow.res
}

// TestFlowTraceComponentsSumToLatency pins the accounting identity: for
// every traced packet with a complete hop log, the per-hop components
// sum exactly — in integer picoseconds — to the end-to-end latency.
func TestFlowTraceComponentsSumToLatency(t *testing.T) {
	ft := chaosFlowRun(t).FlowTrace
	if len(ft.Exemplars) == 0 {
		t.Fatal("no exemplar packets traced")
	}
	check := func(p *FlowPacket, what string) {
		if p.Truncated {
			return // hop log capped; later hops carry the remainder
		}
		var hops FlowBreakdown
		sum := reflect.ValueOf(&hops).Elem()
		for _, h := range p.Hops {
			hop := reflect.ValueOf(h.Breakdown)
			for i := 0; i < hop.NumField(); i++ {
				sum.Field(i).SetInt(sum.Field(i).Int() + hop.Field(i).Int())
			}
		}
		if hops != p.Breakdown {
			t.Errorf("%s pkt %d: hop breakdowns %+v != packet breakdown %+v",
				what, p.ID, hops, p.Breakdown)
		}
		if got := p.Breakdown.TotalPs(); got != p.LatencyPs {
			t.Errorf("%s pkt %d: components sum to %d ps, e2e latency is %d ps",
				what, p.ID, got, p.LatencyPs)
		}
	}
	for i := range ft.Exemplars {
		check(&ft.Exemplars[i], "exemplar")
	}
	for i := range ft.Dumps {
		if p := ft.Dumps[i].Packet; p != nil {
			check(p, "dump")
		}
	}
}

// TestFlowTracePhaseClasses pins the join between the flow classes and
// the scenario scorecard: same phases in order, traced counts stamped
// into PhaseScores, and the energy join populated where bytes flowed.
func TestFlowTracePhaseClasses(t *testing.T) {
	res := chaosFlowRun(t)
	ft := res.FlowTrace
	if len(ft.Classes) != len(res.PhaseScores) {
		t.Fatalf("classes = %d, phases = %d", len(ft.Classes), len(res.PhaseScores))
	}
	var traced, energized int64
	for i, c := range ft.Classes {
		ps := &res.PhaseScores[i]
		if c.Phase != ps.Phase {
			t.Errorf("class %d phase %q != scorecard phase %q", i, c.Phase, ps.Phase)
		}
		if ps.TracedPackets != c.Count || ps.TracedDropped != c.Drops {
			t.Errorf("phase %s: scorecard traced=%d/%d, class %d/%d",
				c.Phase, ps.TracedPackets, ps.TracedDropped, c.Count, c.Drops)
		}
		if ps.EnergyPJPerBit != c.EnergyPJPerBit {
			t.Errorf("phase %s: scorecard energy %v != class %v",
				c.Phase, ps.EnergyPJPerBit, c.EnergyPJPerBit)
		}
		traced += c.Count
		if c.EnergyPJPerBit > 0 {
			energized++
		}
	}
	if traced == 0 {
		t.Error("no packets classified into phases")
	}
	if energized == 0 {
		t.Error("energy join produced no per-phase pJ/bit")
	}
	var out bytes.Buffer
	if err := ft.WriteReport(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flow trace:", "slowest traced packets:", "pJ/bit"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestFlowTraceFlightRecorder pins the anomaly flight recorder: the
// first injected fault produces a dump whose recent-transmit ring only
// holds traffic from strictly before the fault instant.
func TestFlowTraceFlightRecorder(t *testing.T) {
	ft := chaosFlowRun(t).FlowTrace
	var faults, drops int
	for _, d := range ft.Dumps {
		switch {
		case strings.HasPrefix(d.Reason, "fault:"):
			faults++
			if d.Packet != nil {
				t.Errorf("fault dump %q carries a packet trace", d.Reason)
			}
			if len(d.Recent) == 0 {
				t.Errorf("fault dump %q has an empty flight ring", d.Reason)
			}
			for _, r := range d.Recent {
				if r.AtPs >= d.AtPs {
					t.Errorf("fault dump %q: transmit at %d ps not before fault at %d ps",
						d.Reason, r.AtPs, d.AtPs)
				}
			}
		case strings.HasPrefix(d.Reason, "drop:"):
			drops++
			if d.Packet == nil {
				t.Errorf("drop dump %q missing the dropped packet's trace", d.Reason)
			}
		default:
			t.Errorf("unrecognized dump reason %q", d.Reason)
		}
	}
	if faults == 0 {
		t.Error("chaos scenario injected faults but no fault dump was recorded")
	}
	if ft.Dropped > 0 && drops == 0 {
		t.Errorf("%d traced packets dropped but no drop dump was recorded", ft.Dropped)
	}
}

// TestFlowTraceValidate pins the config plumbing: -flows-out and a
// positive -flow-sample imply tracing, the sample rate is bounded, and
// the default rate is 1/64.
func TestFlowTraceValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowsOut = "flows.json"
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cfg.FlowTrace {
		t.Error("FlowsOut did not imply FlowTrace")
	}
	if want := 1.0 / 64; cfg.FlowSample != want {
		t.Errorf("default FlowSample = %v, want %v", cfg.FlowSample, want)
	}
	cfg = DefaultConfig()
	cfg.FlowSample = 0.5
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cfg.FlowTrace || cfg.FlowSample != 0.5 {
		t.Errorf("FlowSample 0.5 alone: FlowTrace=%v FlowSample=%v, want tracing at 0.5",
			cfg.FlowTrace, cfg.FlowSample)
	}
	for _, bad := range []float64{-0.1, 1.5} {
		cfg := DefaultConfig()
		cfg.FlowTrace = true
		cfg.FlowSample = bad
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "FlowSample") {
			t.Errorf("FlowSample=%v: err = %v, want FlowSample field error", bad, err)
		}
	}
}

// TestFlowTraceOutputs pins the -flows-out writers: CSV gets the stable
// per-phase header, JSON round-trips into the public report type.
func TestFlowTraceOutputs(t *testing.T) {
	ft := chaosFlowRun(t).FlowTrace

	var csv bytes.Buffer
	if err := ft.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) < 2+len(ft.Classes) {
		t.Fatalf("CSV has %d lines, want summary + header + %d phases:\n%s",
			len(lines), len(ft.Classes), csv.String())
	}
	if !strings.HasPrefix(lines[0], "# sample_rate=") {
		t.Errorf("CSV summary line = %q", lines[0])
	}
	const header = "phase,count,drops,bytes,mean_hops,mean_latency_us,max_latency_us," +
		"queue_us,credit_us,retune_us,busy_us,cutthrough_us,serialize_us,wire_us,route_us," +
		"energy_pj_per_bit"
	if lines[1] != header {
		t.Errorf("CSV header = %q, want %q", lines[1], header)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "flows.json")
	if err := writeFlowsOut(path, ft); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back FlowTraceReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("flows JSON does not round-trip: %v", err)
	}
	if back.Started != ft.Started || len(back.Classes) != len(ft.Classes) {
		t.Errorf("round-trip lost data: started %d/%d, classes %d/%d",
			back.Started, ft.Started, len(back.Classes), len(ft.Classes))
	}
}

// TestScorecardCSVAppendOnly pins the scorecard column contract: new
// columns append after the original ones, which keep their exact names
// and order, and rows stay one per phase in phase order.
func TestScorecardCSVAppendOnly(t *testing.T) {
	res := chaosFlowRun(t)
	lines := strings.Split(strings.TrimSpace(string(res.ScorecardCSV())), "\n")
	if len(lines) != 1+len(res.PhaseScores) {
		t.Fatalf("scorecard has %d lines, want header + %d phases", len(lines), len(res.PhaseScores))
	}
	const legacy = "phase,start_us,end_us,injected,delivered,dropped,delivered_frac," +
		"mean_latency_us,p99_latency_us,avg_util,reconfigs,fault_events"
	if !strings.HasPrefix(lines[0], legacy+",") {
		t.Errorf("header no longer starts with the original columns:\n%s", lines[0])
	}
	width := len(strings.Split(lines[0], ","))
	for i, row := range lines[1:] {
		fields := strings.Split(row, ",")
		if len(fields) != width {
			t.Errorf("row %d has %d fields, header has %d", i, len(fields), width)
		}
		if fields[0] != res.PhaseScores[i].Phase {
			t.Errorf("row %d is phase %q, want %q (rows reordered)",
				i, fields[0], res.PhaseScores[i].Phase)
		}
	}
}
