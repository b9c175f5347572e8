package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestCut pins the cut at every point a lazily applied entry can be
// checked against it: the executing event's (at, key), and when idle
// the bound of the last run call.
func TestCut(t *testing.T) {
	check := func(tag string, e *Engine, at Time, key uint64) {
		t.Helper()
		if gotAt, gotKey := e.Cut(); gotAt != at || gotKey != key {
			t.Errorf("%s: Cut = (%v, %d), want (%v, %d)", tag, gotAt, gotKey, at, key)
		}
	}
	e := New()
	check("new engine", e, 0, 0)

	l := NewLane(3)
	key := l.next
	e.AtLane(10, &l, func(Time) { check("executing lane event", e, 10, key) })
	e.At(10, func(Time) { check("executing lane-0 event", e, 10, 1) })
	e.RunBefore(10)
	check("after RunBefore(10)", e, 10, 0)
	e.RunUntil(10)
	check("after RunUntil(10)", e, 10, math.MaxUint64)
	e.AdvanceTo(20)
	check("after AdvanceTo(20)", e, 20, 0)

	e.At(30, func(Time) {})
	e.Run()
	check("after Run", e, math.MaxInt64, math.MaxUint64)

	e.At(40, func(Time) { e.Stop() })
	e.At(50, func(Time) {})
	e.RunUntil(60)
	check("after Stop", e, 40, e.seq-1)
}

// TestPeakPending checks the engine's high-water mark against the
// queue length observed after every push, over random interleavings of
// scheduling and stepping.
func TestPeakPending(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := New()
	peak := 0
	noop := func(Time) {}
	for i := 0; i < 5000; i++ {
		if rng.Intn(3) > 0 || e.Pending() == 0 {
			e.At(e.Now()+Time(rng.Intn(100)), noop)
			peak = max(peak, e.Pending())
		} else {
			e.step()
		}
		if got := e.PeakPending(); got != peak {
			t.Fatalf("op %d: PeakPending = %d, want %d", i, got, peak)
		}
	}
}
