package traffic

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"epnet/internal/sim"
)

// TestVarianceTimeHurst pins what the generators are: short-range
// dependent. For each workload it bins the cluster's offered bytes by
// injection time at 10 µs, averages the bins in blocks of 1, 10, 100
// and 1000, and fits the least-squares slope of log variance against
// log block width. A self-similar aggregate keeps variance as m^(2H−2)
// with H near 0.7–0.9; short-range traffic, Poisson among it, decays as
// 1/m, so H = 1 + slope/2 sits near 0.5. Search and Advert draw
// heavy-tailed think times and sizes, but each exchange is one message,
// so no heavy-tailed ON period carries long-range dependence and their
// H stays near 0.5 too.
func TestVarianceTimeHurst(t *testing.T) {
	const hosts = 64
	horizon := 400 * sim.Millisecond
	for _, seed := range []int64{1, 2} {
		for _, w := range []Workload{Search(seed), Advert(seed), DefaultUniform(seed)} {
			start := time.Now()
			recs := Capture(w, hosts, horizon)
			took := time.Since(start)
			h := varianceTimeHurst(offeredBins(recs, horizon, 10*sim.Microsecond), hurstLevels)
			t.Logf("%s seed %d: H = %.3f from %d messages (capture %v)", w.Name(), seed, h, len(recs), took)
			if h < 0.40 || h > 0.60 {
				t.Errorf("%s seed %d: H = %.3f, want within [0.40, 0.60]", w.Name(), seed, h)
			}
		}
	}
}

// TestVarianceTimeHurstSeesLongRange shows the band above can fail: the
// same estimator reads H well above 0.6 on an aggregate of ON/OFF
// sources whose ON and OFF durations have infinite variance (Pareto
// α = 1.2), the construction that makes traffic self-similar (Willinger,
// Taqqu, Sherman and Wilson, IEEE/ACM ToN 1997).
func TestVarianceTimeHurstSeesLongRange(t *testing.T) {
	const sources = 64
	bins := make([]float64, 40000)                 // 400 ms at 10 µs
	period := Pareto{Alpha: 1.2, Min: 1, Max: 1e7} // in bins
	rng := rand.New(rand.NewSource(1))
	for range sources {
		on := rng.Intn(2) == 0
		for i := 0; i < len(bins); on = !on {
			end := min(i+int(period.Sample(rng)), len(bins))
			for ; on && i < end; i++ {
				bins[i] += 1024
			}
			i = end
		}
	}
	h := varianceTimeHurst(bins, hurstLevels)
	t.Logf("ON/OFF α=1.2: H = %.3f", h)
	if h <= 0.6 {
		t.Errorf("heavy-tailed ON/OFF aggregate: H = %.3f, want above 0.6", h)
	}
}

// hurstLevels are the block widths, in base bins, of the variance-time
// fit: 10 µs to 10 ms.
var hurstLevels = []int{1, 10, 100, 1000}

// offeredBins sums recs' bytes by injection time into bins of width
// base over the horizon.
func offeredBins(recs []Record, horizon, base sim.Time) []float64 {
	bins := make([]float64, int(horizon/base))
	for _, r := range recs {
		if i := int(r.At / base); i < len(bins) {
			bins[i] += float64(r.Size)
		}
	}
	return bins
}

// varianceTimeHurst estimates the Hurst parameter of a byte series by
// the variance-time method: the bins averaged in non-overlapping blocks
// of each level m, and H = 1 + slope/2 for the least-squares slope of
// log Var against log m.
func varianceTimeHurst(bins []float64, levels []int) float64 {
	var xs, ys []float64
	for _, m := range levels {
		blocks := make([]float64, len(bins)/m)
		for i := range blocks {
			for _, b := range bins[i*m : (i+1)*m] {
				blocks[i] += b
			}
			blocks[i] /= float64(m)
		}
		var mean, v float64
		for _, b := range blocks {
			mean += b
		}
		mean /= float64(len(blocks))
		for _, b := range blocks {
			v += (b - mean) * (b - mean)
		}
		v /= float64(len(blocks) - 1)
		xs = append(xs, math.Log(float64(m)))
		ys = append(ys, math.Log(v))
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	return 1 + sxy/sxx/2
}
