package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkScheduleStep measures one full event round-trip — push onto a
// queue held at a fixed depth, then pop and execute the earliest — the
// engine's hot loop during a simulation. The depths span the queues the
// bench workloads reach: the default harness (136), a 1k queue, the
// paper's 3,375-host run (9,049), its observed chaos scenario (17,934),
// and 64k, far past the caches.
//
// The depth=N cases draw delays uniformly over 1 µs, like the fabric's
// wire, routing and serialization delays. The fabric/depth=N cases copy
// the shape of the paper's 3,375-host run instead. There 67% of events
// share the previous event's timestamp, 45% run in groups of 16 or more
// (18% in groups of 128–511), and 52% of the pushes that join a
// timestamp sort last in it. About half the pending events are the
// traffic loops' wake-ups, parked a median 290 µs ahead.
func BenchmarkScheduleStep(b *testing.B) {
	noop := func(Time) {}
	for _, depth := range []int{136, 1024, 9049, 17934, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := New()
			x := uint64(1)
			delay := func() Time { // a 64-bit LCG: cheaper than math/rand
				x = x*6364136223846793005 + 1442695040888963407
				return Time(x>>33%1000+1) * Nanosecond
			}
			for i := 0; i < depth; i++ {
				e.At(delay(), noop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.At(e.Now()+delay(), noop)
				e.step()
			}
		})
	}
	for _, depth := range []int{9049, 17934} {
		b.Run(fmt.Sprintf("fabric/depth=%d", depth), func(b *testing.B) { benchFabricShape(b, depth) })
	}
}

// benchFabricShape holds the queue at depth with half its events parked
// 100–600 µs ahead and the near half on a 64 ns grid, spread over enough
// grid points that groups average 250 events and reach about 500. A near
// push comes, with even odds, from the top lane (it sorts last in its
// group) or from a random lower lane (it lands mid-group). Each executed
// event is replaced by one of its own kind.
func benchFabricShape(b *testing.B, depth int) {
	const (
		grid    = 64 * Nanosecond
		topLane = 1024
	)
	spread := Time(depth / 500) // grid points a near push may land on
	e := New()
	lanes := make([]Lane, topLane+1)
	for i := 1; i <= topLane; i++ {
		lanes[i] = NewLane(uint64(i))
	}
	x := uint64(1)
	rnd := func() uint64 { // a 64-bit LCG: cheaper than math/rand
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	far := false
	fn := func(_ Time, _ any, n int64) { far = n != 0 }
	push := func(parked bool) {
		if parked {
			at := e.Now() + 100*Microsecond + Time(rnd()%uint64(500*Microsecond))
			e.AtArgLane(at, &lanes[1+rnd()%(topLane-1)], fn, nil, 1)
			return
		}
		at := (e.Now()/grid + 1 + Time(rnd())%spread) * grid
		l := &lanes[topLane]
		if rnd()%2 == 0 {
			l = &lanes[1+rnd()%(topLane-1)]
		}
		e.AtArgLane(at, l, fn, nil, 0)
	}
	for i := 0; i < depth; i++ {
		push(i%2 == 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
		push(far)
	}
}

// BenchmarkSelfScheduling measures throughput of events that reschedule
// themselves — the pattern of every periodic controller and wake in the
// fabric. Reported ns/op is per executed event.
func BenchmarkSelfScheduling(b *testing.B) {
	e := New()
	rng := rand.New(rand.NewSource(1))
	remaining := b.N
	var tick Event
	tick = func(Time) {
		if remaining > 0 {
			remaining--
			e.After(Time(1+rng.Intn(500)), tick)
		}
	}
	for i := 0; i < 64 && remaining > 0; i++ {
		remaining--
		e.After(Time(1+rng.Intn(500)), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
