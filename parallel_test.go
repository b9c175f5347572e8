package epnet

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// tinyEval is a reduced evaluation scale that keeps the determinism
// tests fast while still exercising warmup, the EP controller and all
// three workloads.
func tinyEval() EvalConfig {
	e := DefaultEval()
	e.K, e.N, e.C = 4, 2, 4
	e.Warmup = 100 * time.Microsecond
	e.Duration = 400 * time.Microsecond
	return e
}

// TestParallelMatchesSerial is the determinism guarantee behind the
// -parallel flag: Figure8 (three workloads x three configurations each)
// must produce deeply equal results whether its grid runs serially or
// across several workers.
func TestParallelMatchesSerial(t *testing.T) {
	serial := tinyEval()
	serial.Parallel = 1
	want, err := Figure8(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		par := tinyEval()
		par.Parallel = workers
		got, err := Figure8(par)
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("parallel=%d: results differ from serial\nserial:   %+v\nparallel: %+v",
				workers, want, got)
		}
	}
}

// TestRunGridMatchesSerialRuns checks the lower-level contract: RunGrid
// over a mixed grid equals one-at-a-time Run calls, result for result.
func TestRunGridMatchesSerialRuns(t *testing.T) {
	e := tinyEval()
	var cfgs []Config
	for _, w := range []WorkloadKind{WorkloadUniform, WorkloadSearch} {
		for _, p := range []PolicyKind{PolicyBaseline, PolicyHalveDouble} {
			cfg := e.base()
			cfg.Workload = w
			cfg.Policy = p
			cfgs = append(cfgs, cfg)
		}
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	got, err := RunGrid(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("RunGrid results differ from serial Run calls")
	}
}

// TestGridRunsEachConfigOnce pins the evaluation's result reuse: a
// configuration repeated within a grid, or in a later grid of the same
// evaluation, is simulated once, and every occurrence gets that run's
// result (the same RateShare map), while a configuration with an
// Inspector runs every time. Output numbering still counts every
// configuration.
func TestGridRunsEachConfigOnce(t *testing.T) {
	e := tinyEval()
	c := e.base()
	other := c
	other.Workload = WorkloadUniform
	if other.Workload == c.Workload {
		other.Workload = WorkloadSearch
	}
	same := func(a, b Result) bool {
		return a.RateShare != nil && reflect.ValueOf(a.RateShare).Pointer() == reflect.ValueOf(b.RateShare).Pointer()
	}
	first, err := e.grid([]Config{c, other, c})
	if err != nil {
		t.Fatal(err)
	}
	if !same(first[0], first[2]) {
		t.Error("a configuration repeated within a grid ran twice")
	}
	if same(first[0], first[1]) {
		t.Error("distinct configurations share a result")
	}
	later, err := e.grid([]Config{c})
	if err != nil {
		t.Fatal(err)
	}
	if !same(later[0], first[0]) {
		t.Error("a configuration repeated in a later grid ran again")
	}
	inspected := c
	inspected.Inspector = NewInspector()
	again, err := e.grid([]Config{inspected})
	if err != nil {
		t.Fatal(err)
	}
	if same(again[0], first[0]) {
		t.Error("a configuration with an Inspector took a stored result")
	}
	if !reflect.DeepEqual(again[0].RateShare, first[0].RateShare) {
		t.Error("the inspected run differs from the stored one")
	}
	if *e.runs != 5 {
		t.Errorf("evaluation numbered %d runs, want 5", *e.runs)
	}
}

// TestConcurrentEngines runs several complete simulations at once on
// their own goroutines — under -race this verifies that independent
// engines share no mutable state.
func TestConcurrentEngines(t *testing.T) {
	e := tinyEval()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	results := make([]Result, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := e.base()
			cfg.Workload = evalWorkloads[i%len(evalWorkloads)]
			cfg.Policy = PolicyHalveDouble
			cfg.Seed = int64(1 + i/len(evalWorkloads)) // repeat configs across goroutines
			results[i], errs[i] = Run(cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	// Identical configs run on different goroutines must agree exactly.
	for i := range results {
		for j := i + 1; j < len(results); j++ {
			if reflect.DeepEqual(results[i].Config, results[j].Config) &&
				!reflect.DeepEqual(results[i], results[j]) {
				t.Errorf("runs %d and %d share a config but disagree", i, j)
			}
		}
	}
}

// TestRunGridError verifies that an invalid configuration in the middle
// of a grid surfaces its error (and that the error is the lowest-index
// failure, independent of scheduling).
func TestRunGridError(t *testing.T) {
	e := tinyEval()
	good := e.base()
	bad := e.base()
	bad.K = 0 // fails validation
	cfgs := []Config{good, bad, good, bad}
	for _, workers := range []int{1, 4} {
		if _, err := RunGrid(cfgs, workers); err == nil {
			t.Errorf("workers=%d: expected error from invalid config", workers)
		}
	}
}
