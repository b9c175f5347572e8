package epnet

import (
	"testing"
	"time"
)

func TestNewConfigOptions(t *testing.T) {
	cfg := NewConfig(TopoFBFLY,
		WithShape(8, 3, 8),
		WithWorkload(WorkloadSearch),
		WithLoad(0.2),
		WithWindow(time.Millisecond, 4*time.Millisecond),
		WithShards(2),
		WithSeed(7),
	)
	if cfg.Topology != TopoFBFLY || cfg.K != 8 || cfg.C != 8 || cfg.N != 3 {
		t.Errorf("shape = %s k=%d n=%d c=%d", cfg.Topology, cfg.K, cfg.N, cfg.C)
	}
	if cfg.Workload != WorkloadSearch || cfg.Load != 0.2 || cfg.Shards != 2 {
		t.Errorf("workload = %s load=%v shards=%d", cfg.Workload, cfg.Load, cfg.Shards)
	}
	if cfg.Warmup != time.Millisecond || cfg.Duration != 4*time.Millisecond || cfg.Seed != 7 {
		t.Errorf("window = %v/%v seed=%d", cfg.Warmup, cfg.Duration, cfg.Seed)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("option-built config invalid: %v", err)
	}
}

func TestNewConfigLaterOptionWins(t *testing.T) {
	cfg := NewConfig(TopoFBFLY, WithShape(8, 2, 8), WithShape(4, 3, 4))
	if cfg.K != 4 || cfg.N != 3 || cfg.C != 4 {
		t.Errorf("k=%d n=%d c=%d, want 4/3/4 (the second WithShape)", cfg.K, cfg.N, cfg.C)
	}
}

func TestPresetsAllValidate(t *testing.T) {
	names := PresetNames()
	if len(names) == 0 {
		t.Fatal("no presets registered")
	}
	for _, name := range names {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %q does not validate: %v", name, err)
		}
		if PresetDoc(name) == "" {
			t.Errorf("preset %q has no doc line", name)
		}
	}
	if _, err := Preset("no-such-preset"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestPresetPaperShape(t *testing.T) {
	cfg, err := Preset("paper-fbfly")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != 15 || cfg.N != 3 || cfg.C != 15 {
		t.Errorf("paper preset shape k=%d n=%d c=%d, want 15-ary 3-flat c=15", cfg.K, cfg.N, cfg.C)
	}
}
