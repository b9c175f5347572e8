// Package stats provides the measurement primitives used by the
// simulator: streaming latency statistics with log-scale histograms for
// percentile estimation.
package stats

import (
	"math"
	"math/bits"

	"epnet/internal/sim"
)

// Latency accumulates a stream of duration samples. It keeps exact
// count/sum/min/max and a geometric histogram (buckets growing by
// ~1.0905x, i.e. 8 buckets per octave) for percentile estimates within
// ~9% relative error.
type Latency struct {
	count int64
	sum   sim.Time
	min   sim.Time
	max   sim.Time
	// under counts zero and negative samples, which sort below every
	// bucket; buckets[b] counts the positive samples in bucket b.
	under   int64
	buckets [numBuckets]int64
}

const bucketsPerOctave = 8

// numBuckets covers every positive sim.Time: bucketOf(math.MaxInt64)
// is 63 octaves × 8 = 504.
const numBuckets = 63*bucketsPerOctave + 1

// NewLatency returns an empty latency accumulator.
func NewLatency() *Latency {
	return &Latency{min: math.MaxInt64}
}

// bucketOf returns the bucket of a positive sample: the bucket
// floor(8·log2 d) of the float formula, found without a logarithm. A
// sample of bit length n lies in [2^(n−1), 2^n), so its bucket is one of
// 8(n−1) … 8n (8n when the conversion to float64 rounds d up to 2^n);
// the lower bounds of the buckets above 8(n−1) decide which.
func bucketOf(d sim.Time) int {
	b := (bits.Len64(uint64(d)) - 1) * bucketsPerOctave
	for b < numBuckets-1 && uint64(d) >= bucketLower[b+1] {
		b++
	}
	return b
}

// bucketLower[b] is the smallest positive sample the float formula
// floor(8·log2 d) puts in bucket b or above, found by bisection: the
// formula is monotone in d.
var bucketLower = func() (lower [numBuckets]uint64) {
	for b := range lower {
		lo, hi := uint64(0), uint64(math.MaxInt64) // below, in or above
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if math.Floor(math.Log2(float64(mid))*bucketsPerOctave) >= float64(b) {
				hi = mid
			} else {
				lo = mid
			}
		}
		lower[b] = hi
	}
	return lower
}()

// bucketUpper returns bucket b's upper bound, saturated at the largest
// sim.Time: the top buckets' bounds pass the int64 range, where the
// float conversion is undefined (MinInt64 on amd64).
func bucketUpper(b int) sim.Time {
	u := math.Exp2(float64(b+1) / bucketsPerOctave)
	if u >= math.MaxInt64 {
		return math.MaxInt64
	}
	return sim.Time(u)
}

// cells walks the occupied cells in ascending order, the underflow cell
// (bound 0) first, and stops early when fn returns false. Percentile
// and Buckets share this walk.
func (l *Latency) cells(fn func(upper sim.Time, n int64) bool) {
	if l.under > 0 && !fn(0, l.under) {
		return
	}
	for b, n := range l.buckets {
		if n > 0 && !fn(bucketUpper(b), n) {
			return
		}
	}
}

// Add records one sample.
func (l *Latency) Add(d sim.Time) {
	l.count++
	l.sum += d
	if d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
	if d <= 0 {
		l.under++
		return
	}
	l.buckets[bucketOf(d)]++
}

// Count returns the number of samples.
func (l *Latency) Count() int64 { return l.count }

// Mean returns the mean sample, or 0 with no samples.
func (l *Latency) Mean() sim.Time {
	if l.count == 0 {
		return 0
	}
	return sim.Time(int64(l.sum) / l.count)
}

// Min and Max return the extremes (0 with no samples).
func (l *Latency) Min() sim.Time {
	if l.count == 0 {
		return 0
	}
	return l.min
}
func (l *Latency) Max() sim.Time {
	if l.count == 0 {
		return 0
	}
	return l.max
}

// Percentile returns an estimate of the p-th percentile (p in [0,100]).
func (l *Latency) Percentile(p float64) sim.Time {
	if l.count == 0 {
		return 0
	}
	if p <= 0 {
		return l.min
	}
	if p >= 100 {
		return l.max
	}
	target := int64(math.Ceil(float64(l.count) * p / 100))
	out := l.max
	var cum int64
	l.cells(func(u sim.Time, n int64) bool {
		if cum += n; cum < target {
			return true
		}
		out = max(min(u, l.max), l.min)
		return false
	})
	return out
}

// Bucket is one histogram cell: Count samples at or below Upper (and
// above the previous bucket's Upper).
type Bucket struct {
	Upper sim.Time
	Count int64
}

// Buckets returns the histogram cells in ascending order of bound,
// suitable for CDF reporting.
func (l *Latency) Buckets() []Bucket {
	out := []Bucket{}
	l.cells(func(u sim.Time, n int64) bool {
		out = append(out, Bucket{Upper: min(u, l.max), Count: n})
		return true
	})
	return out
}

// Merge adds all samples of other into l.
func (l *Latency) Merge(other *Latency) {
	if other.count == 0 {
		return
	}
	l.count += other.count
	l.sum += other.sum
	if other.min < l.min {
		l.min = other.min
	}
	if other.max > l.max {
		l.max = other.max
	}
	l.under += other.under
	for b, n := range other.buckets {
		l.buckets[b] += n
	}
}
