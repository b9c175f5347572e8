package epnet

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// paperChaosConfig is the chaos scenario on the paper's 15-ary 3-flat
// with its phases cut to a fifth (40, 120 and 40 µs after a 20 µs
// warmup): a paper-scale registry of 44,578 series sampled every 10 µs
// through link failures, optics-bundle incidents and repairs.
func paperChaosConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := LoadScenario("chaos", PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Scenario.Phases {
		cfg.Scenario.Phases[i].Duration /= 5
	}
	cfg.Warmup = 20 * time.Microsecond
	return cfg
}

// TestPaperScaleMetricsDigest pins the sampled metrics of a faulted
// paper-scale run byte for byte: the CSV stream, the JSON Lines stream,
// and the last Prometheus scrape the inspector published. The 16-host
// goldens cover neither the per-entity families at full width nor the
// series faults move, so a change to how families are registered or
// read (their column order, a label, a value) shows up here.
func TestPaperScaleMetricsDigest(t *testing.T) {
	dir := t.TempDir()
	cfg := paperChaosConfig(t)
	cfg.MetricsOut = filepath.Join(dir, "metrics.csv")
	cfg.Inspector = NewInspector()
	jcfg := paperChaosConfig(t)
	jcfg.MetricsOut = filepath.Join(dir, "metrics.jsonl")
	for _, c := range []Config{cfg, jcfg} {
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
	}
	csv, err := os.ReadFile(cfg.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	jsonl, err := os.ReadFile(jcfg.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	prom := cfg.Inspector.PrometheusText()
	if !strings.Contains(string(prom), "\nfault_link_failures ") ||
		strings.Contains(string(prom), "\nfault_link_failures 0\n") {
		t.Fatal("the run saw no link failure; the digest would not cover the faulted series")
	}
	for _, d := range []struct {
		what string
		data []byte
		want string
	}{
		{"CSV stream", csv, "dd75ca70cca86cadc6af1825d0b892ddf514d547ee74c28a195d6a43aea6074f"},
		{"JSONL stream", jsonl, "733c27dc3b43c3f2ba4513e7293b4676a304715fdf310f5a5fae61fa46292fce"},
		{"Prometheus scrape", prom, "a7acfb366a38e56b09b4b6d619320abd579abef25588de7a2001fd312fe291c4"},
	} {
		sum := sha256.Sum256(d.data)
		if got := hex.EncodeToString(sum[:]); got != d.want {
			t.Errorf("%s (%d bytes): sha256 %s, want %s", d.what, len(d.data), got, d.want)
		}
	}
}
