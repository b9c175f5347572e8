package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatalf("Nanosecond = %d ps", int64(Nanosecond))
	}
	if Microsecond != 1000*Nanosecond {
		t.Fatalf("Microsecond = %d ns", int64(Microsecond)/1000)
	}
	if Second != 1000*Millisecond {
		t.Fatalf("Second mismatch")
	}
	if got := Time(2500 * Nanosecond).Microseconds(); got != 2.5 {
		t.Errorf("Microseconds() = %v, want 2.5", got)
	}
	if got := Time(500 * Millisecond).Seconds(); got != 0.5 {
		t.Errorf("Seconds() = %v, want 0.5", got)
	}
	if got := Microsecond.Nanoseconds(); got != 1000 {
		t.Errorf("Nanoseconds() = %v, want 1000", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{Nanosecond, "1ns"},
		{Microsecond, "1us"},
		{Millisecond, "1ms"},
		{Second, "1s"},
		{2500 * Nanosecond, "2.5us"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func(Time) { order = append(order, 3) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("Processed() = %d, want 3", e.Processed())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(42, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: same-timestamp events not FIFO", i, v)
		}
	}
}

func TestEngineAfterChains(t *testing.T) {
	e := New()
	var ticks []Time
	var tick Event
	tick = func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) < 5 {
			e.After(100, tick)
		}
	}
	e.After(100, tick)
	e.Run()
	want := []Time{100, 200, 300, 400, 500}
	if len(ticks) != len(want) {
		t.Fatalf("got %d ticks, want %d", len(ticks), len(want))
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before deadline, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Errorf("Now() = %v, want 25 (clock advances to deadline)", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("fired %d events total, want 4", len(fired))
	}
}

func TestEngineStop(t *testing.T) {
	e := New()
	count := 0
	e.At(1, func(Time) { count++; e.Stop() })
	e.At(2, func(Time) { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d after Stop, want 1", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	// Run can resume after a stop.
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := New()
	e.At(100, func(now Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func(Time) {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func(Time) {})
}

// Property: for any set of scheduled times, events fire in sorted order
// and the engine clock is monotonically non-decreasing.
func TestEngineSortedDeliveryProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			e.At(at, func(now Time) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		want := make([]Time, len(raw))
		for i, r := range raw {
			want[i] = Time(r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving scheduling and execution preserves causality:
// an event handler scheduling into the future always runs that child at
// a time >= its own timestamp.
func TestEngineCausalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := New()
	violations := 0
	var spawn Event
	depth := 0
	spawn = func(now Time) {
		if e.Now() != now {
			violations++
		}
		if depth < 5000 {
			depth++
			e.After(Time(rng.Intn(1000)), spawn)
		}
	}
	for i := 0; i < 50; i++ {
		e.At(Time(rng.Intn(100)), spawn)
	}
	last := Time(-1)
	for e.Pending() > 0 {
		e.step()
		if e.Now() < last {
			t.Fatalf("clock went backwards: %v < %v", e.Now(), last)
		}
		last = e.Now()
	}
	if violations > 0 {
		t.Errorf("%d causality violations", violations)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func(Time) {})
		}
		e.Run()
	}
}

// TestGrowthDoubles pushes n events, half into the ring and half past
// its horizon into the heap, and adds up the arrays the engine drops as
// it grows. The payload slab, the nodes and the heap tier double when
// full, and the ring doubles by construction, so what is dropped adds
// up to less than the arrays it ends with; append's own growth of about
// 1.25x drops about four times them.
func TestGrowthDoubles(t *testing.T) {
	const n = 1 << 16
	e := New()
	fn := func(Time, any, int64) {}
	var dropped uint64
	for i := 0; i < n; i++ {
		slab, nodes, heap, ring := cap(e.slab), cap(e.nodes), cap(e.heap), cap(e.ring)
		at := Time(i) * Nanosecond
		if i%2 == 1 {
			at += Second
		}
		e.PushKeyed(at, uint64(i), fn, nil, 0)
		if cap(e.slab) != slab {
			dropped += uint64(slab) * uint64(unsafe.Sizeof(payload{}))
		}
		if cap(e.nodes) != nodes {
			dropped += uint64(nodes) * uint64(unsafe.Sizeof(node{}))
		}
		if cap(e.heap) != heap {
			dropped += uint64(heap) * uint64(unsafe.Sizeof(item{}))
		}
		if cap(e.ring) != ring {
			dropped += uint64(ring)*uint64(unsafe.Sizeof(bucket{})) + uint64(ring/64)*8
		}
	}
	if e.inRing == 0 || len(e.heap) == 0 {
		t.Fatalf("ring holds %d events and heap %d, want both tiers used", e.inRing, len(e.heap))
	}
	final := uint64(cap(e.slab))*uint64(unsafe.Sizeof(payload{})) +
		uint64(cap(e.nodes))*uint64(unsafe.Sizeof(node{})) +
		uint64(cap(e.heap))*uint64(unsafe.Sizeof(item{})) +
		uint64(cap(e.ring))*uint64(unsafe.Sizeof(bucket{})) +
		uint64(cap(e.used))*8
	if dropped > final {
		t.Errorf("pushing %d events dropped %d B of outgrown arrays, %.2fx the %d B it ends with; want at most 1x",
			n, dropped, float64(dropped)/float64(final), final)
	}
}
