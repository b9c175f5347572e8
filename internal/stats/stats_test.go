package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"epnet/internal/sim"
)

func TestLatencyBasics(t *testing.T) {
	l := NewLatency()
	if l.Count() != 0 || l.Mean() != 0 || l.Min() != 0 || l.Max() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	for _, d := range []sim.Time{10, 20, 30} {
		l.Add(d * sim.Microsecond)
	}
	if l.Count() != 3 {
		t.Errorf("Count = %d", l.Count())
	}
	if l.Mean() != 20*sim.Microsecond {
		t.Errorf("Mean = %v", l.Mean())
	}
	if l.Min() != 10*sim.Microsecond || l.Max() != 30*sim.Microsecond {
		t.Errorf("Min/Max = %v/%v", l.Min(), l.Max())
	}
}

func TestLatencyPercentileAccuracy(t *testing.T) {
	l := NewLatency()
	rng := rand.New(rand.NewSource(3))
	// Uniform samples in [1us, 101us): p50 ~ 51us, p99 ~ 100us.
	for i := 0; i < 100000; i++ {
		l.Add(sim.Microsecond + sim.Time(rng.Int63n(int64(100*sim.Microsecond))))
	}
	p50 := l.Percentile(50).Microseconds()
	if p50 < 45 || p50 > 58 {
		t.Errorf("p50 = %vus, want ~51 (within histogram error)", p50)
	}
	p99 := l.Percentile(99).Microseconds()
	if p99 < 90 || p99 > 101 {
		t.Errorf("p99 = %vus, want ~100", p99)
	}
	if l.Percentile(0) != l.Min() || l.Percentile(100) != l.Max() {
		t.Error("percentile extremes mismatch")
	}
}

func TestLatencyZeroSample(t *testing.T) {
	l := NewLatency()
	l.Add(0)
	l.Add(sim.Microsecond)
	if l.Min() != 0 {
		t.Errorf("Min = %v", l.Min())
	}
	if got := l.Percentile(25); got != 0 {
		t.Errorf("p25 = %v, want 0", got)
	}
}

// Zero- and negative-duration samples share an underflow bucket that
// sorts below every positive one, so percentile walks and the CDF stay
// deterministic and monotone when a run records them (e.g. a packet
// delivered in the same event-time instant it was injected).
func TestLatencyZeroAndNegativeDurations(t *testing.T) {
	l := NewLatency()
	for i := 0; i < 5; i++ {
		l.Add(0)
	}
	l.Add(-3 * sim.Nanosecond)
	for i := 0; i < 4; i++ {
		l.Add(sim.Microsecond)
	}
	if l.Count() != 10 {
		t.Fatalf("Count = %d", l.Count())
	}
	if l.Min() != -3*sim.Nanosecond || l.Max() != sim.Microsecond {
		t.Errorf("Min/Max = %v/%v", l.Min(), l.Max())
	}
	// 6 of 10 samples are <= 0, so the median falls in the underflow
	// bucket (bound 0); high percentiles see the real samples.
	if got := l.Percentile(50); got != 0 {
		t.Errorf("p50 = %v, want 0", got)
	}
	if got := l.Percentile(99); got != sim.Microsecond {
		t.Errorf("p99 = %v, want 1us", got)
	}
	if got := l.Percentile(0); got != -3*sim.Nanosecond {
		t.Errorf("p0 = %v, want -3ns", got)
	}
	bs := l.Buckets()
	if len(bs) != 2 {
		t.Fatalf("buckets = %d, want 2 (underflow + 1us)", len(bs))
	}
	if bs[0].Upper != 0 || bs[0].Count != 6 {
		t.Errorf("underflow bucket = {%v, %d}, want {0, 6}", bs[0].Upper, bs[0].Count)
	}
	if bs[1].Upper != sim.Microsecond || bs[1].Count != 4 {
		t.Errorf("top bucket = {%v, %d}, want {1us, 4}", bs[1].Upper, bs[1].Count)
	}
	// The walk order comes from sorted keys, not map iteration: repeated
	// reads are identical.
	for i := 0; i < 10; i++ {
		again := l.Buckets()
		for j := range bs {
			if again[j] != bs[j] {
				t.Fatalf("Buckets() not deterministic: %v vs %v", again, bs)
			}
		}
	}
}

func TestLatencyMerge(t *testing.T) {
	a, b := NewLatency(), NewLatency()
	for i := 1; i <= 10; i++ {
		a.Add(sim.Time(i) * sim.Microsecond)
	}
	for i := 11; i <= 20; i++ {
		b.Add(sim.Time(i) * sim.Microsecond)
	}
	a.Merge(b)
	if a.Count() != 20 {
		t.Errorf("Count = %d", a.Count())
	}
	if a.Max() != 20*sim.Microsecond || a.Min() != sim.Microsecond {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	want := sim.Time(10500 * sim.Nanosecond)
	if a.Mean() != want {
		t.Errorf("Mean = %v, want %v", a.Mean(), want)
	}
	// Merging an empty accumulator is a no-op.
	before := a.Count()
	a.Merge(NewLatency())
	if a.Count() != before {
		t.Error("empty merge changed count")
	}
}

// Property: mean is always between min and max; percentiles are monotone
// in p.
func TestLatencyInvariantProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		l := NewLatency()
		for _, s := range samples {
			l.Add(sim.Time(s))
		}
		if l.Mean() < l.Min() || l.Mean() > l.Max() {
			return false
		}
		prev := sim.Time(-1)
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
			v := l.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLatencyBuckets(t *testing.T) {
	l := NewLatency()
	for _, d := range []sim.Time{sim.Microsecond, sim.Microsecond, 10 * sim.Microsecond} {
		l.Add(d)
	}
	bs := l.Buckets()
	if len(bs) != 2 {
		t.Fatalf("buckets = %d, want 2", len(bs))
	}
	var total int64
	prev := sim.Time(-1)
	for _, b := range bs {
		if b.Upper <= prev {
			t.Fatal("bucket bounds not ascending")
		}
		prev = b.Upper
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("bucket counts sum to %d, want 3", total)
	}
	if bs[0].Count != 2 || bs[1].Count != 1 {
		t.Errorf("bucket counts %d/%d, want 2/1", bs[0].Count, bs[1].Count)
	}
	// Final bucket's bound is clamped to the max sample.
	if bs[len(bs)-1].Upper != 10*sim.Microsecond {
		t.Errorf("last bound = %v, want 10us", bs[len(bs)-1].Upper)
	}
}

// TestLatencyTopBuckets: samples near the clock's limit land in the top
// buckets, whose bounds pass the int64 range and must saturate rather
// than wrap negative.
func TestLatencyTopBuckets(t *testing.T) {
	l := NewLatency()
	const huge = sim.Time(math.MaxInt64 - 5)
	for range 10 {
		l.Add(huge)
	}
	l.Add(1000)
	if got := l.Percentile(99); got != huge {
		t.Errorf("p99 = %d ps, want %d", got, huge)
	}
	prev := sim.Time(0)
	for _, b := range l.Buckets() {
		if b.Upper <= 0 || b.Upper < prev {
			t.Errorf("bucket bound %d ps after %d: want positive and non-decreasing", b.Upper, prev)
		}
		prev = b.Upper
	}
	for b := range numBuckets {
		if bucketUpper(b) <= 0 {
			t.Errorf("bucketUpper(%d) = %d", b, bucketUpper(b))
		}
	}
}

// TestBucketOfMatchesFloat pins bucketOf to the float formula it
// replaced, floor(8·log2 d), so every positive sample keeps its bucket:
// at every bucket's lower bound and its two neighbours, at every d
// below 2^20, at the largest sim.Time, and at random samples spread
// evenly over the octaves (a uniform bit length, then uniform low
// bits) and over log2 d.
func TestBucketOfMatchesFloat(t *testing.T) {
	check := func(d sim.Time) {
		t.Helper()
		want := int(math.Floor(math.Log2(float64(d)) * bucketsPerOctave))
		if got := bucketOf(d); got != want {
			t.Fatalf("bucketOf(%d) = %d, float formula %d", d, got, want)
		}
	}
	for _, lo := range bucketLower {
		for _, d := range []uint64{lo - 1, lo, lo + 1} {
			if d >= 1 && d <= math.MaxInt64 {
				check(sim.Time(d))
			}
		}
	}
	check(math.MaxInt64)
	for d := sim.Time(1); d < 1<<20; d++ {
		check(d)
	}
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(1))
	for range n {
		bitLen := 1 + rng.Intn(63)
		top := int64(1) << (bitLen - 1)
		check(sim.Time(top | rng.Int63n(top)))
		d := sim.Time(math.MaxInt64)
		if x := math.Exp2(rng.Float64() * 63); x < math.MaxInt64 {
			d = sim.Time(max(x, 1))
		}
		check(d)
	}
}

// refLatency is the map-keyed histogram that Latency's fixed array
// replaced, kept as the reference the array must reproduce exactly. Its
// top bounds saturate at the largest sim.Time, as the array's do; the
// map version wrapped them negative.
type refLatency struct {
	count    int64
	min, max sim.Time
	buckets  map[int]int64
}

const refUnderflow = math.MinInt32

func newRefLatency() *refLatency {
	return &refLatency{min: math.MaxInt64, buckets: map[int]int64{}}
}

func refBucketOf(d sim.Time) int {
	if d <= 0 {
		return refUnderflow
	}
	return int(math.Floor(math.Log2(float64(d)) * bucketsPerOctave))
}

func refUpper(b int) sim.Time {
	if b == refUnderflow {
		return 0
	}
	if u := math.Exp2(float64(b+1) / bucketsPerOctave); u < math.MaxInt64 {
		return sim.Time(u)
	}
	return math.MaxInt64
}

func (r *refLatency) add(d sim.Time) {
	r.count++
	r.min, r.max = min(r.min, d), max(r.max, d)
	r.buckets[refBucketOf(d)]++
}

func (r *refLatency) merge(o *refLatency) {
	if o.count == 0 {
		return
	}
	r.count += o.count
	r.min, r.max = min(r.min, o.min), max(r.max, o.max)
	for k, v := range o.buckets {
		r.buckets[k] += v
	}
}

func (r *refLatency) keys() []int {
	keys := make([]int, 0, len(r.buckets))
	for k := range r.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (r *refLatency) percentile(p float64) sim.Time {
	if r.count == 0 {
		return 0
	}
	if p <= 0 {
		return r.min
	}
	if p >= 100 {
		return r.max
	}
	target := int64(math.Ceil(float64(r.count) * p / 100))
	var cum int64
	for _, k := range r.keys() {
		cum += r.buckets[k]
		if cum >= target {
			u := refUpper(k)
			if u > r.max {
				u = r.max
			}
			if u < r.min {
				u = r.min
			}
			return u
		}
	}
	return r.max
}

func (r *refLatency) cells() []Bucket {
	keys := r.keys()
	out := make([]Bucket, 0, len(keys))
	for _, k := range keys {
		out = append(out, Bucket{Upper: min(refUpper(k), r.max), Count: r.buckets[k]})
	}
	return out
}

// TestLatencyMatchesMapReference checks Percentile, Buckets and Merge
// against refLatency on random samples that include zero, negative and
// near-MaxInt64 durations, for single and merged recorders.
func TestLatencyMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sample := func() sim.Time {
		switch rng.Intn(6) {
		case 0:
			return -sim.Time(rng.Int63n(1 << 40))
		case 1:
			return 0
		case 2:
			return math.MaxInt64 - sim.Time(rng.Int63n(1<<12))
		case 3:
			return sim.Time(rng.Int63())
		default: // 1 ps to about 1 ms, log-uniform
			return sim.Time(math.Exp2(rng.Float64() * 30))
		}
	}
	check := func(tag string, l *Latency, r *refLatency) {
		t.Helper()
		if l.Count() != r.count {
			t.Fatalf("%s: Count %d, want %d", tag, l.Count(), r.count)
		}
		if r.count > 0 && (l.Min() != r.min || l.Max() != r.max) {
			t.Fatalf("%s: Min/Max %v/%v, want %v/%v", tag, l.Min(), l.Max(), r.min, r.max)
		}
		ps := []float64{-1, 0, 1e-9, 0.1, 1, 10, 25, 50, 75, 90, 99, 99.9, 99.99, 100, 101}
		for i := 0; i < 20; i++ {
			ps = append(ps, rng.Float64()*100)
		}
		for _, p := range ps {
			if got, want := l.Percentile(p), r.percentile(p); got != want {
				t.Fatalf("%s: Percentile(%v) = %v, want %v", tag, p, got, want)
			}
		}
		got, want := l.Buckets(), r.cells()
		if got == nil || len(got) != len(want) {
			t.Fatalf("%s: Buckets() = %v, want %v", tag, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: bucket %d = %+v, want %+v", tag, i, got[i], want[i])
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		merged, mergedRef := NewLatency(), newRefLatency()
		for part := 0; part < 3; part++ {
			l, r := NewLatency(), newRefLatency()
			for n := rng.Intn(50); n > 0; n-- {
				d := sample()
				l.Add(d)
				r.add(d)
			}
			check("single", l, r)
			merged.Merge(l)
			mergedRef.merge(r)
			check("merged", merged, mergedRef)
		}
	}
}

// TestLatencyAddZeroAlloc checks that recording a sample allocates
// nothing, whichever bucket it lands in.
func TestLatencyAddZeroAlloc(t *testing.T) {
	l := NewLatency()
	d := sim.Time(-5)
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Add(d)
		d = d*3 + 7
	}); allocs != 0 {
		t.Errorf("Add allocates %v times per sample, want 0", allocs)
	}
}
