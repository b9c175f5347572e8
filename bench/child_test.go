package main

import (
	"sort"
	"testing"
	"time"

	"epnet"
)

// shrunk returns w with its measurement window cut to tens of
// microseconds, so its child path runs in a fraction of a second.
func shrunk(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	full := w.config
	w.config = func(seed int64) (epnet.Config, error) {
		c, err := full(seed)
		c.Warmup = 20 * time.Microsecond
		c.Duration = 50 * time.Microsecond
		if c.Scenario != nil {
			for i := range c.Scenario.Phases {
				c.Scenario.Phases[i].Duration = epnet.Duration(30 * time.Microsecond)
			}
		}
		return c, err
	}
	return w
}

func TestWorkloadConfigsValidate(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			cfg, err := w.config(seed)
			if err == nil {
				err = cfg.Validate()
			}
			if err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
			}
			if cfg.Seed != seed {
				t.Errorf("%s: seed %d not applied (Config.Seed %d)", w.name, seed, cfg.Seed)
			}
		}
	}
}

func TestRepEmitsEveryEndToEndMetric(t *testing.T) {
	r, err := runRep(shrunk(t, "paper3k"), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		if v := m.rep(r); !(v > 0) {
			t.Errorf("%s = %v, want > 0", m.name, v)
		}
	}
	if len(r.Digest) != 64 {
		t.Errorf("digest %q is not a SHA-256", r.Digest)
	}
}

// The traced child path on the observed workload runs every rerun and
// probe; with the parent's share it must emit exactly the per-layer
// metrics BENCHMARK.json lists.
func TestTracedRepEmitsEveryLayerMetric(t *testing.T) {
	r, err := runTraced(shrunk(t, "chaos3k-obs"), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	addParentLayers(&r, []repResult{r}, nil)
	var got, want []string
	for name := range r.Layers {
		got = append(got, name)
	}
	for _, m := range perLayer {
		want = append(want, m.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("traced repetition emits %d layer metrics, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("layer metric %q emitted, want %q", got[i], want[i])
		}
	}
	if r.Layers["telemetry.flow_traced"] <= 0 || r.SeriesSamples <= 0 || len(r.Spans) == 0 {
		t.Errorf("observed workload: flow_traced=%v series-samples=%v spans=%d, want all > 0",
			r.Layers["telemetry.flow_traced"], r.SeriesSamples, len(r.Spans))
	}
}

func TestTamperedDigestFailsRep(t *testing.T) {
	reps := []repResult{{Digest: "a"}, {Digest: "a"}, {Digest: "b"}, {Digest: "a"}}
	kept, dropped := agree(reps)
	if dropped != 1 || len(kept) != 3 {
		t.Errorf("agree kept %d and dropped %d, want 3 and 1", len(kept), dropped)
	}
}

func TestCheckResultCatchesUnbalancedAttribution(t *testing.T) {
	w := shrunk(t, "chaos3k-obs")
	cfg, err := w.config(1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runSim(cfg, nil, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	res := run.res
	res.EnergyJoules *= 1 + 1e-6
	if err := checkResult(res); err == nil {
		t.Error("checkResult accepted attribution that no longer sums to EnergyJoules")
	}
	res = run.res
	res.PhaseScores = res.PhaseScores[:2]
	if err := checkResult(res); err == nil {
		t.Error("checkResult accepted a missing phase score")
	}
}
