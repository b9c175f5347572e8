package epnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// eqCase builds the flag-style config the equivalence tests compare
// scenario runs against.
func eqCase(dir string) Config {
	cfg := DefaultConfig()
	cfg.Workload = WorkloadUniform
	cfg.Warmup = 50 * time.Microsecond
	cfg.Duration = 300 * time.Microsecond
	cfg.Seed = 7
	cfg.Shards = 1
	cfg.MetricsOut = filepath.Join(dir, "metrics.csv")
	return cfg
}

// TestSinglePhaseScenarioMatchesFlagRun is the API redesign's anchor
// guarantee: wrapping a flag-configured run as the equivalent
// single-phase scenario changes nothing — the Result and the sampled
// metrics series must match byte for byte.
func TestSinglePhaseScenarioMatchesFlagRun(t *testing.T) {
	flagCfg := eqCase(t.TempDir())
	want, err := Run(flagCfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSeries, err := os.ReadFile(flagCfg.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}

	doc := `{
	  "version": 1, "name": "equivalence",
	  "phases": [{"name": "steady", "duration": "300us",
	              "traffic": [{"workload": "uniform"}]}]
	}`
	path := filepath.Join(t.TempDir(), "eq.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	scenCfg := eqCase(t.TempDir())
	scenCfg, err = LoadScenario(path, scenCfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(scenCfg)
	if err != nil {
		t.Fatal(err)
	}
	gotSeries, err := os.ReadFile(scenCfg.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}

	// Only the scenario attachment and the temp output path may differ.
	got.Config.Scenario = want.Config.Scenario
	got.Config.MetricsOut = want.Config.MetricsOut
	if !reflect.DeepEqual(want, got) {
		t.Errorf("single-phase scenario diverges from the flag run\nflag:     %+v\nscenario: %+v", want, got)
	}
	if string(wantSeries) != string(gotSeries) {
		t.Errorf("metrics series diverges (%d vs %d bytes)", len(wantSeries), len(gotSeries))
	}
	if len(got.PhaseScores) != 0 {
		t.Errorf("single-phase run grew a scorecard: %+v", got.PhaseScores)
	}
}

// TestPresetLoadsAsScenario checks the other single-phase identity:
// every Preset name resolves through LoadScenario as a one-phase
// scenario, and running it reproduces the plain preset run.
func TestPresetLoadsAsScenario(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := LoadScenario(name, DefaultConfig())
		if err != nil {
			t.Fatalf("preset %q does not load as a scenario: %v", name, err)
		}
		if cfg.Scenario == nil || len(cfg.Scenario.Phases) != 1 {
			t.Fatalf("preset %q: want one wrapped phase, got %+v", name, cfg.Scenario)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %q as scenario: %v", name, err)
		}
		if cfg.Workload != p.Workload || cfg.Duration != p.Duration {
			t.Errorf("preset %q: scenario mirrors workload=%s duration=%v, preset has %s/%v",
				name, cfg.Workload, cfg.Duration, p.Workload, p.Duration)
		}
		// The preset reference supplies its whole config, like -preset:
		// topology and shape must come from the preset, not the base.
		if cfg.Topology != p.Topology || cfg.K != p.K || cfg.C != p.C {
			t.Errorf("preset %q as scenario lost its topology: got %s k=%d c=%d, want %s k=%d c=%d",
				name, cfg.Topology, cfg.K, cfg.C, p.Topology, p.K, p.C)
		}
	}

	// Behavioral spot check on one preset: same Result either way.
	name := PresetNames()[0]
	p, err := Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	p.Warmup = 50 * time.Microsecond
	p.Duration = 200 * time.Microsecond
	want, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadScenario(name, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Warmup is set after the load: a preset reference replaces the base
	// config wholesale, so base mutations would be discarded.
	cfg.Warmup = 50 * time.Microsecond
	cfg.Scenario.Phases[0].Duration = Duration(200 * time.Microsecond)
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got.Config.Scenario = nil
	got.Config.Warmup = want.Config.Warmup
	got.Config.Duration = want.Config.Duration
	if !reflect.DeepEqual(want, got) {
		t.Errorf("preset %q via scenario diverges\npreset:   %+v\nscenario: %+v", name, want, got)
	}
}

// TestPhaseInsertionStability is the seed-prefix guarantee: inserting a
// phase must not perturb the phases around it. Seeds derive from phase
// names, never positions — checked directly on streamSeed — and the
// running prefix before the insertion point reproduces byte for byte.
func TestPhaseInsertionStability(t *testing.T) {
	// Seed derivation ignores the phase's position outright (except the
	// pinned phase-0/stream-0 identity seed).
	for _, name := range []string{"peak", "drain"} {
		for idx := 0; idx < 3; idx++ {
			if streamSeed(7, 1, name, idx) != streamSeed(7, 5, name, idx) {
				t.Fatalf("streamSeed(%q, stream %d) depends on phase position", name, idx)
			}
		}
	}
	if streamSeed(7, 0, "a", 0) != 7 {
		t.Fatal("phase 0 stream 0 must use the run seed verbatim")
	}
	if streamSeed(7, 1, "a", 0) == streamSeed(7, 1, "b", 0) {
		t.Fatal("different phase names must derive different seeds")
	}

	// Behavioral half: run [calm, peak] and [calm, added, peak]; the
	// "calm" phase precedes the insertion point, so its scorecard row is
	// identical in both runs.
	run := func(doc string) Result {
		path := filepath.Join(t.TempDir(), "s.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg, err := LoadScenario(path, eqCase(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	two := run(`{"version": 1, "phases": [
	  {"name": "calm", "duration": "200us", "traffic": [{"workload": "uniform"}]},
	  {"name": "peak", "duration": "200us", "traffic": [{"workload": "search", "load": 0.2}]}]}`)
	three := run(`{"version": 1, "phases": [
	  {"name": "calm", "duration": "200us", "traffic": [{"workload": "uniform"}]},
	  {"name": "added", "duration": "150us", "traffic": [{"workload": "advert"}]},
	  {"name": "peak", "duration": "200us", "traffic": [{"workload": "search", "load": 0.2}]}]}`)
	if len(two.PhaseScores) != 2 || len(three.PhaseScores) != 3 {
		t.Fatalf("scorecards have %d and %d rows", len(two.PhaseScores), len(three.PhaseScores))
	}
	if !reflect.DeepEqual(two.PhaseScores[0], three.PhaseScores[0]) {
		t.Errorf("inserting a later phase perturbed the prefix phase\n2-phase: %+v\n3-phase: %+v",
			two.PhaseScores[0], three.PhaseScores[0])
	}
}

// TestPresetJSONRoundTrip: every Preset survives Config's strict JSON
// codec unchanged — the single-source-of-truth requirement.
func TestPresetJSONRoundTrip(t *testing.T) {
	check := func(name string, cfg Config) {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, data)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Errorf("%s does not round-trip\nin:  %+v\nout: %+v\njson: %s", name, cfg, back, data)
		}
	}
	check("DefaultConfig", DefaultConfig())
	check("PaperConfig", PaperConfig())
	for _, name := range PresetNames() {
		p, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		check("preset "+name, p)
	}
	// A config with a scenario attached round-trips too.
	cfg, err := LoadScenario("diurnal", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	check("scenario diurnal", cfg)
}

// TestConfigJSONStrictAndMerging pins the codec's two behaviors:
// unknown fields and values of the wrong type are *ConfigFieldError
// rejections naming the field, and partial documents merge over the
// receiver rather than zeroing it.
func TestConfigJSONStrictAndMerging(t *testing.T) {
	for _, tc := range []struct{ doc, field, reason string }{
		{`{"workload": "search", "bandwidth": 10}`, "bandwidth", "bandwidth"},
		// Removed in favor of the "fail-random" Faults verb.
		{`{"fail_links": 4}`, "fail_links", "fail_links"},
		// A type error names the Go field of its key, with the
		// expected and the actual type.
		{`{"k": "x"}`, "K", "want int, got JSON string"},
		{`{"seed": 1.5}`, "Seed", "want int64, got JSON number 1.5"},
		{`{"independent": 3}`, "Independent", "want bool, got JSON number"},
		{`{"scenario": {"version": "1"}}`, "Scenario", `"scenario.version": want int`},
		// A malformed duration carries no key.
		{`{"warmup": true}`, "Config", "duration true"},
	} {
		var cfg Config
		err := json.Unmarshal([]byte(tc.doc), &cfg)
		var fe *ConfigFieldError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error = %v (%T), want *ConfigFieldError", tc.doc, err, err)
		}
		if fe.Field != tc.field || !strings.Contains(fe.Reason, tc.reason) {
			t.Errorf("%s: error %q, want field %s and a reason containing %q", tc.doc, fe, tc.field, tc.reason)
		}
	}

	base := DefaultConfig()
	base.Seed = 42
	if err := json.Unmarshal([]byte(`{"load": 0.25}`), &base); err != nil {
		t.Fatal(err)
	}
	if base.Load != 0.25 {
		t.Error("partial document did not apply")
	}
	if base.Seed != 42 || base.K != 8 {
		t.Errorf("partial document zeroed unrelated fields: seed=%d k=%d", base.Seed, base.K)
	}

	// Durations accept Go strings and bare nanoseconds.
	if err := json.Unmarshal([]byte(`{"warmup": "75us", "duration": 1000000}`), &base); err != nil {
		t.Fatal(err)
	}
	if base.Warmup != 75*time.Microsecond || base.Duration != time.Millisecond {
		t.Errorf("durations parsed to %v/%v", base.Warmup, base.Duration)
	}
}

// FuzzConfigJSON feeds Config's strict JSON codec arbitrary documents,
// overlaid on DefaultConfig as a scenario's config block is. It must
// never panic; a rejection is a *ConfigFieldError matching
// ErrInvalidConfig; an accepted document is valid JSON and reaches a
// fixed point after one marshal, unmarshal, marshal round; and a
// config that then validates fits the simulator clock.
func FuzzConfigJSON(f *testing.F) {
	for _, name := range PresetNames() {
		p, err := Preset(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, name := range ScenarioNames() {
		data, err := scenarioFS.ReadFile("scenarios/" + name + ".json")
		if err != nil {
			f.Fatal(err)
		}
		s, err := ParseScenario(data)
		if err != nil {
			f.Fatal(err)
		}
		if len(s.Config) > 0 {
			f.Add([]byte(s.Config))
		}
	}
	f.Add([]byte(`{"k": 2, "n": 2, "c": 2, "duration": "3000h"}`))
	f.Add([]byte(`{"warmup": "2600h", "duration": "1us"}`))
	f.Add([]byte(`{"scenario": {"version": 1, "phases": [{"name": "a", "duration": "1ms"}]}}`))
	f.Add([]byte(`{"load": 0.3} {"load": 0.4}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(what string, err error) {
			var fe *ConfigFieldError
			if !errors.As(err, &fe) || !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("%s %q: error %v (%T) is not a *ConfigFieldError matching ErrInvalidConfig", what, data, err, err)
			}
		}
		cfg := DefaultConfig()
		if err := cfg.UnmarshalJSON(data); err != nil {
			typed("decoding", err)
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted invalid JSON %q", data)
		}
		first, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("marshal %q: %v", data, err)
		}
		var back Config
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", first, err)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("no fixed point:\n%s\n%s", first, second)
		}
		if err := cfg.Validate(); err != nil {
			typed("validating", err)
			return
		}
		if cfg.Duration > maxSimDuration-cfg.Warmup {
			t.Errorf("%q: warmup %v + duration %v validated past the clock", data, cfg.Warmup, cfg.Duration)
		}
		for _, d := range []time.Duration{cfg.Warmup, cfg.Epoch, cfg.Reactivation,
			cfg.SampleInterval, cfg.PowerSampleEvery, cfg.FaultMTTR} {
			if d > maxSimDuration {
				t.Errorf("%q: %v validated past the clock", data, d)
			}
		}
	})
}

// TestScenarioConfigRejections is the rejected-configuration table for
// the scenario layer.
func TestScenarioConfigRejections(t *testing.T) {
	t.Run("chaos needs adaptive routing", func(t *testing.T) {
		cfg, err := LoadScenario("chaos", DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Routing = RoutingDOR
		if err := cfg.Validate(); err == nil {
			t.Error("chaos scenario under DOR routing accepted")
		} else if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("error %v does not match ErrInvalidConfig", err)
		}
	})
	t.Run("nested scenario", func(t *testing.T) {
		doc := `{"version": 1,
		         "config": {"scenario": {"version": 1, "phases": [{"name": "x", "duration": "1us"}]}},
		         "phases": [{"name": "a", "duration": "1us"}]}`
		path := filepath.Join(t.TempDir(), "nested.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadScenario(path, DefaultConfig()); err == nil {
			t.Error("scenario carrying a scenario in its config block accepted")
		}
	})
	t.Run("unknown phase policy", func(t *testing.T) {
		doc := `{"version": 1, "phases": [{"name": "a", "duration": "1us",
		         "policy": {"kind": "overclock"}}]}`
		path := filepath.Join(t.TempDir(), "policy.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg, err := LoadScenario(path, DefaultConfig())
		if err != nil {
			t.Fatal(err) // policy enums are validated by Config.Validate, not Parse
		}
		if err := cfg.Validate(); !errors.Is(err, ErrUnknownPolicy) {
			t.Errorf("Validate = %v, want ErrUnknownPolicy", err)
		}
	})
	t.Run("unknown config field in scenario block", func(t *testing.T) {
		doc := `{"version": 1, "config": {"worklod": "search"},
		         "phases": [{"name": "a", "duration": "1us"}]}`
		path := filepath.Join(t.TempDir(), "typo.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadScenario(path, DefaultConfig())
		var fe *ConfigFieldError
		if !errors.As(err, &fe) {
			t.Errorf("config-block typo: err = %v (%T), want *ConfigFieldError", err, err)
		}
	})
	t.Run("unresolvable reference", func(t *testing.T) {
		if _, err := LoadScenario("no-such-scenario-anywhere", DefaultConfig()); err == nil {
			t.Error("bogus scenario reference accepted")
		}
	})
}

// TestEmbeddedScenarioLibrary runs every embedded scenario end to end
// at the library's own durations and checks the scorecard makes sense.
func TestEmbeddedScenarioLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole library")
	}
	names := ScenarioNames()
	if len(names) < 6 {
		t.Fatalf("embedded library has %d scenarios, want >= 6: %v", len(names), names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if ScenarioDoc(name) == "" {
				t.Errorf("scenario %q has no notes", name)
			}
			cfg, err := LoadScenario(name, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg.Warmup = 50 * time.Microsecond
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			phases := len(cfg.Scenario.Phases)
			if phases > 1 && len(res.PhaseScores) != phases {
				t.Fatalf("scorecard has %d rows for %d phases", len(res.PhaseScores), phases)
			}
			if res.DeliveredPackets == 0 {
				t.Fatal("scenario delivered nothing")
			}
			for _, ps := range res.PhaseScores {
				if ps.End <= ps.Start {
					t.Errorf("phase %q window [%v, %v] is empty", ps.Phase, ps.Start, ps.End)
				}
				if ps.DeliveredFraction < 0.5 {
					t.Errorf("phase %q delivered only %.1f%%", ps.Phase, ps.DeliveredFraction*100)
				}
			}
		})
	}
}

// TestScenarioScorecardGoldens pins each embedded scenario's scorecard
// CSV against results/scenarios/. The simulation is deterministic, so
// these are byte-exact; regenerate intentionally with
// EPNET_UPDATE_GOLDEN=1 go test -run TestScenarioScorecardGoldens .
func TestScenarioScorecardGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole library")
	}
	update := os.Getenv("EPNET_UPDATE_GOLDEN") != ""
	for _, name := range ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			cfg, err := LoadScenario(name, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg.Warmup = 50 * time.Microsecond
			cfg.Seed = 1
			cfg.Shards = 1
			// Flow tracing populates the decomposition columns, so the
			// goldens also pin the tracer's determinism.
			cfg.FlowTrace = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := res.ScorecardCSV()
			golden := filepath.Join("results", "scenarios", name+".csv")
			if update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with EPNET_UPDATE_GOLDEN=1)", err)
			}
			if string(want) != string(got) {
				t.Errorf("scorecard diverges from %s (regenerate with EPNET_UPDATE_GOLDEN=1 if intended)\nwant:\n%s\ngot:\n%s",
					golden, want, got)
			}
		})
	}
}
