package cli

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"epnet"
)

// resolve binds a fresh Loader against base, parses args, and resolves.
func resolve(t *testing.T, base epnet.Config, args ...string) epnet.Config {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var l Loader
	l.Bind(fs, "epsim", base)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := l.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestLoaderPrecedence pins the documented resolution order: base, then
// -preset (replaces), then -scenario (overlays), then explicitly set
// flags — and, crucially, that flag defaults never clobber anything.
func TestLoaderPrecedence(t *testing.T) {
	base := epnet.DefaultConfig()
	base.Warmup = 123 * time.Microsecond

	// No flags: the base comes back untouched.
	if got := resolve(t, base); got.Warmup != base.Warmup || got.K != base.K {
		t.Errorf("bare resolve mutated the base: %+v", got)
	}

	// A non-default base survives binding: the flag defaults mirror it,
	// so parsing no flags cannot regress it to library defaults.
	big := epnet.DefaultConfig()
	big.K, big.C = 15, 15
	if got := resolve(t, big); got.K != 15 || got.C != 15 {
		t.Errorf("non-default base regressed: k=%d c=%d", got.K, got.C)
	}

	// -preset replaces the base wholesale.
	p, err := epnet.Preset("paper-clos3")
	if err != nil {
		t.Fatal(err)
	}
	got := resolve(t, base, "-preset", "paper-clos3")
	if got.Topology != p.Topology || got.K != p.K {
		t.Errorf("-preset did not replace the base: got %s k=%d, want %s k=%d",
			got.Topology, got.K, p.Topology, p.K)
	}

	// An explicit flag overrides the preset; untouched preset fields stay.
	got = resolve(t, base, "-preset", "paper-clos3", "-k", "4")
	if got.K != 4 {
		t.Errorf("explicit -k lost to the preset: k=%d", got.K)
	}
	if got.Topology != p.Topology {
		t.Errorf("explicit -k clobbered unrelated preset fields: topology=%s", got.Topology)
	}

	// A scenario's config block overlays the base, and explicit flags
	// still win over the scenario.
	dir := t.TempDir()
	doc := `{"version": 1, "config": {"seed": 99, "k": 6, "c": 6},
	  "phases": [{"name": "only", "duration": "100us",
	    "traffic": [{"workload": "uniform"}]}]}`
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got = resolve(t, base, "-scenario", path)
	if got.Seed != 99 || got.K != 6 {
		t.Errorf("scenario config block not applied: seed=%d k=%d", got.Seed, got.K)
	}
	if got.Warmup != base.Warmup {
		t.Errorf("scenario clobbered a base field it never set: warmup=%v", got.Warmup)
	}
	got = resolve(t, base, "-scenario", path, "-seed", "7")
	if got.Seed != 7 {
		t.Errorf("explicit -seed lost to the scenario: seed=%d", got.Seed)
	}
	if got.K != 6 {
		t.Errorf("explicit -seed clobbered the scenario's k: %d", got.K)
	}

	// Output fields resolve like every other field: a scenario's config
	// block sets them, unset output flags leave them alone, and an
	// explicit output flag still wins.
	doc = `{"version": 1, "config": {"metrics_out": "m.csv",
	    "sample_interval": "50us", "profile_out": "p.json"},
	  "phases": [{"name": "only", "duration": "100us",
	    "traffic": [{"workload": "uniform"}]}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got = resolve(t, base, "-scenario", path)
	if got.MetricsOut != "m.csv" || got.SampleInterval != 50*time.Microsecond ||
		got.ProfileOut != "p.json" {
		t.Errorf("scenario outputs dropped: metrics_out=%q sample_interval=%v profile_out=%q",
			got.MetricsOut, got.SampleInterval, got.ProfileOut)
	}
	got = resolve(t, base, "-scenario", path, "-metrics-out", "flag.csv")
	if got.MetricsOut != "flag.csv" {
		t.Errorf("explicit -metrics-out lost to the scenario: %q", got.MetricsOut)
	}
	if got.ProfileOut != "p.json" || got.SampleInterval != 50*time.Microsecond {
		t.Errorf("explicit -metrics-out clobbered other scenario outputs: profile_out=%q sample_interval=%v",
			got.ProfileOut, got.SampleInterval)
	}

	// Unknown references and bad scenario files are loader errors.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var l Loader
	l.Bind(fs, "epsim", base)
	if err := fs.Parse([]string{"-preset", "nope"}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Resolve(); err == nil {
		t.Error("unknown preset resolved without error")
	}
}

// TestResolveFrom pins the cmd/experiments hook: the alternative base
// wins over the bound one, and explicit flags still apply on top.
func TestResolveFrom(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var l Loader
	l.Bind(fs, "epsim", epnet.DefaultConfig())
	if err := fs.Parse([]string{"-warmup", "77us"}); err != nil {
		t.Fatal(err)
	}
	alt := epnet.PaperConfig()
	got, err := l.ResolveFrom(alt)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != alt.K || got.Topology != alt.Topology {
		t.Errorf("ResolveFrom ignored the alternative base: k=%d", got.K)
	}
	if got.Warmup != 77*time.Microsecond {
		t.Errorf("explicit flag not applied over the alternative base: %v", got.Warmup)
	}
}

// TestBindCommandFlags pins which command gets which flags: every
// command binds the output flags, and only epsim binds -power-trace,
// -attribution and -profile, whose views only it prints. They resolve
// like every other field.
func TestBindCommandFlags(t *testing.T) {
	for _, cmd := range []string{"experiments", "sweep"} {
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		var l Loader
		l.Bind(fs, cmd, epnet.DefaultConfig())
		for _, name := range []string{"metrics-out", "sample-interval", "flows-out", "listen"} {
			if fs.Lookup(name) == nil {
				t.Errorf("%s does not bind -%s", cmd, name)
			}
		}
		for _, name := range []string{"power-trace", "attribution", "profile"} {
			if fs.Lookup(name) != nil {
				t.Errorf("%s binds the epsim-only -%s", cmd, name)
			}
		}
	}
	got := resolve(t, epnet.DefaultConfig(), "-attribution", "-profile", "-power-trace", "20us")
	if !got.Attribution || !got.Profile || got.PowerSampleEvery != 20*time.Microsecond {
		t.Errorf("epsim flags not applied: attribution=%v profile=%v power-trace=%v",
			got.Attribution, got.Profile, got.PowerSampleEvery)
	}
}

// TestListenStartsOneInspector: a command that resolves once per run
// (sweep) still starts a single inspector, shared by every run.
func TestListenStartsOneInspector(t *testing.T) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var l Loader
	l.Bind(fs, "sweep", epnet.DefaultConfig())
	if err := fs.Parse([]string{"-listen", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	a, err := l.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Inspector.Shutdown(context.Background())
	b, err := l.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if a.Inspector == nil || a.Inspector != b.Inspector {
		t.Errorf("two resolves got inspectors %p and %p, want one shared", a.Inspector, b.Inspector)
	}
}
