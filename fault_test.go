package epnet

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"epnet/internal/fault"
)

// TestRunWithFaultSchedule executes a deterministic schedule covering
// every fault verb and checks the stats surfaced in Result.
func TestRunWithFaultSchedule(t *testing.T) {
	cfg := fastCfg()
	// 4-ary 2-flat: ports 4-6 on each switch are inter-switch links.
	cfg.Faults = "50us fail-link s0p4; 120us degrade-link s1p5 10;" +
		" 200us fail-switch 3; 250us repair-link s0p4;" +
		" 300us repair-switch 3; 350us restore-link s1p5"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// fail-switch 3 downs its 3 incident links but only counts as a
	// switch failure; the explicit fail-link is the single link failure.
	f := res.Faults
	if f.LinkFailures != 1 || f.LinkRepairs != 1 {
		t.Errorf("link failures/repairs = %d/%d, want 1/1", f.LinkFailures, f.LinkRepairs)
	}
	if f.SwitchFailures != 1 || f.SwitchRepairs != 1 {
		t.Errorf("switch failures/repairs = %d/%d, want 1/1", f.SwitchFailures, f.SwitchRepairs)
	}
	if f.LaneDegradations != 1 || f.LaneRestores != 1 {
		t.Errorf("degradations/restores = %d/%d, want 1/1", f.LaneDegradations, f.LaneRestores)
	}
	if res.DeliveredFraction <= 0 || res.DeliveredFraction > 1 {
		t.Errorf("delivered fraction = %v", res.DeliveredFraction)
	}
	if res.DroppedPackets == 0 {
		t.Error("switch crash mid-run dropped nothing")
	}
	if res.DroppedPackets > 0 && res.DroppedBytes == 0 {
		t.Error("dropped packets but no dropped bytes")
	}
}

// TestRunFaultScheduleRejected checks schedule errors surface as typed
// config field errors from Run, not panics deep in the engine.
func TestRunFaultScheduleRejected(t *testing.T) {
	cfg := fastCfg()
	cfg.Faults = "50us fail-link s0p99" // no such inter-switch port
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("schedule with bad target accepted")
	}
	var fe *ConfigFieldError
	if !errors.As(err, &fe) || fe.Field != "Faults" {
		t.Errorf("err = %v, want ConfigFieldError on Faults", err)
	}
}

// TestRunFaultRateDeterministic runs the same seeded random-fault
// config twice and expects identical results, the property the
// resilience grids rely on.
func TestRunFaultRateDeterministic(t *testing.T) {
	cfg := fastCfg()
	cfg.FaultRate = 2.0
	cfg.FaultMTTR = 50 * time.Microsecond
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if a.Faults.Total() == 0 {
		t.Error("fault rate 2/ms over 500us produced no faults")
	}

	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Faults, c.Faults) && a.MeanLatency == c.MeanLatency {
		t.Error("different seed produced an identical run")
	}
}

// TestRunGridFaultsParallelMatchesSerial checks that worker count does
// not change results even with random faults active.
func TestRunGridFaultsParallelMatchesSerial(t *testing.T) {
	var cfgs []Config
	for _, rate := range []float64{0, 0.5, 2.0} {
		cfg := fastCfg()
		cfg.FaultRate = rate
		cfgs = append(cfgs, cfg)
	}
	serial, err := RunGrid(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunGrid(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel grid differs from serial grid")
	}
	if serial[0].Faults.Total() != 0 {
		t.Errorf("rate 0 produced faults: %+v", serial[0].Faults)
	}
}

// TestRunContextCanceled: a canceled context stops the run at the next
// epoch boundary with a context error, not a partial Result.
func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, fastCfg())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}

	if _, err := RunGridContext(ctx, []Config{fastCfg()}, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("grid err = %v, want context.Canceled", err)
	}
	if _, _, _, err := RunBaselinePairContext(ctx, fastCfg()); !errors.Is(err, context.Canceled) {
		t.Errorf("pair err = %v, want context.Canceled", err)
	}
}

// TestRunContextBackgroundMatchesRun: the context-free wrapper and an
// un-cancelable context produce identical results.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := fastCfg()
	cfg.FaultRate = 0.5
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("RunContext(Background) differs from Run")
	}
}

// FuzzParseSchedule feeds the fault-schedule parser arbitrary text. It
// must never panic, and every event it accepts must carry a known verb,
// a non-negative offset and, for fail-random, a count of at least one.
func FuzzParseSchedule(f *testing.F) {
	for _, name := range ScenarioNames() {
		data, err := scenarioFS.ReadFile("scenarios/" + name + ".json")
		if err != nil {
			f.Fatal(err)
		}
		s, err := ParseScenario(data)
		if err != nil {
			f.Fatal(err)
		}
		for _, ph := range s.Phases {
			if ph.Chaos != nil && ph.Chaos.Script != "" {
				f.Add(ph.Chaos.Script)
			}
		}
	}
	f.Add("50us fail-link s0p8; 100us degrade-link s1p8 10; 400us repair-link s0p8; 500us fail-random 4")
	f.Add("50us fail-switch 3; 300us repair-switch 3; 350us restore-link s1p5")
	f.Add("500us fail-random 4")
	f.Add("1ms fail-random 0;")
	f.Add("-5us fail-random 2")
	f.Fuzz(func(t *testing.T, s string) {
		sched, err := fault.ParseSchedule(s)
		if err != nil {
			return
		}
		for _, ev := range sched {
			if name := ev.Kind.String(); strings.HasPrefix(name, "Kind(") {
				t.Errorf("%q: accepted unknown verb %s", s, name)
			}
			if ev.At < 0 {
				t.Errorf("%q: accepted negative offset %v", s, ev.At)
			}
			if ev.Kind == fault.FailRandom && ev.Count < 1 {
				t.Errorf("%q: accepted fail-random count %d", s, ev.Count)
			}
		}
	})
}

// TestRandomFaultDrawsSaturate pins the random fault processes at the
// edge of the picosecond clock: a draw past its range is an event that
// never fires, not one that wraps around and fires a nanosecond later.
func TestRandomFaultDrawsSaturate(t *testing.T) {
	base := NewConfig(TopoFBFLY, WithShape(4, 2, 4), WithWorkload(WorkloadUniform),
		WithLoad(0.1), WithWindow(50*time.Microsecond, 200*time.Microsecond))
	groupChaos, err := ParseScenario([]byte(`{"version": 1, "name": "long-outage",
	  "phases": [{"name": "only", "duration": "200us",
	    "traffic": [{"workload": "uniform", "load": 0.1}],
	    "chaos": {"groups": [{"kind": "optics-bundle", "size": 1}],
	      "group_rate": 40, "group_mttr": "2000h"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*Config)
		failed  bool // some link fails or degrades in the window
		repairs bool // some of them come back in the window
	}{
		{"rate 1e-12/ms", func(c *Config) { c.FaultRate = 1e-12 }, false, false},
		{"rate 1e-9/ms", func(c *Config) { c.FaultRate = 1e-9 }, false, false},
		{"mttr 2000h", func(c *Config) { c.FaultRate, c.FaultMTTR = 40, 2000*time.Hour }, true, false},
		{"mttr 60us", func(c *Config) { c.FaultRate, c.FaultMTTR = 40, 60*time.Microsecond }, true, true},
		{"chaos group_mttr 2000h", func(c *Config) { c.Scenario = groupChaos }, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f := res.Faults
			if failed := f.LinkFailures+f.LaneDegradations > 0; failed != tc.failed {
				t.Errorf("failures/degradations = %d/%d, want some: %v",
					f.LinkFailures, f.LaneDegradations, tc.failed)
			}
			if repairs := f.LinkRepairs+f.LaneRestores > 0; repairs != tc.repairs {
				t.Errorf("repairs/restores = %d/%d, want some: %v",
					f.LinkRepairs, f.LaneRestores, tc.repairs)
			}
		})
	}
}
