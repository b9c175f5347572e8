package link

import (
	"testing"

	"epnet/internal/sim"
)

// BenchmarkStartTransmit measures the per-packet channel cost.
func BenchmarkStartTransmit(b *testing.B) {
	c := MustChannel(DefaultLadder())
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = c.StartTransmit(now, 2048)
	}
}

// BenchmarkEpochCycle measures the controller-visible epoch operations.
func BenchmarkEpochCycle(b *testing.B) {
	c := MustChannel(DefaultLadder())
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10 * sim.Microsecond
		_ = c.EpochUtilization(now)
		c.ResetEpoch(now)
	}
}
