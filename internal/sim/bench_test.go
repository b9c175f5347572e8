package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkScheduleStep measures one full event round-trip — push onto a
// queue held at a fixed depth, then pop and execute the earliest — the
// engine's hot loop during a simulation. Delays are uniform over 1 µs,
// like the fabric's wire, routing and serialization delays, and the
// depths span the queues the bench workloads reach: the default
// harness (136), a 1k queue, the paper's 3,375-host run (9,049), its
// observed chaos scenario (17,934), and 64k, far past the caches.
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
