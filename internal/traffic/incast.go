package traffic

import (
	"epnet/internal/link"
	"epnet/internal/sim"
)

// Incast generates synchronized fan-in bursts — the classic datacenter
// incast pattern (partition/aggregate request fan-out whose responses
// collide at the aggregator). Every burst picks one random victim
// destination and Fanin random sources, each of which sends MsgBytes
// to it simultaneously; bursts arrive with exponentially distributed
// gaps sized so the victim's ingress averages Load of line rate.
//
// The victim changes every burst, so over time the pattern stresses
// every link's ability to reactivate quickly: an energy-proportional
// fabric that detuned the victim's links during the lull pays the
// reactivation penalty exactly when the burst lands.
type Incast struct {
	MsgBytes int
	// Fanin is the number of simultaneous senders per burst (clamped
	// to the host count).
	Fanin int
	// Load is the victim's mean ingress utilization: burst gaps are
	// sized so Fanin*MsgBytes arrives per Load-scaled line-rate
	// interval.
	Load     float64
	LineRate link.Rate
	Seed     int64
}

// Name implements Workload.
func (p *Incast) Name() string { return "Incast" }

// AvgUtil implements Workload. Load here is the hot receiver's
// utilization, not the cluster mean — the cluster mean is Load/n.
func (p *Incast) AvgUtil() float64 { return p.Load }

// Start implements Workload.
func (p *Incast) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	n := tgt.NumHosts()
	fanin := p.Fanin
	if fanin < 1 {
		fanin = 1
	}
	if fanin > n-1 {
		fanin = n - 1
	}
	meanGapSec := float64(p.MsgBytes*fanin*8) / (p.Load * float64(p.LineRate))
	rng := newStream(p.Seed)
	var burst func(now sim.Time)
	burst = func(now sim.Time) {
		if now > horizon {
			return
		}
		dst := rng.Intn(n)
		for i := 0; i < fanin; i++ {
			src := rng.Intn(n)
			if src == dst {
				src = (src + 1) % n
			}
			tgt.InjectMessage(src, dst, p.MsgBytes)
		}
		gap := sim.Time(rng.ExpFloat64() * meanGapSec * float64(sim.Second))
		if gap < sim.Nanosecond {
			gap = sim.Nanosecond
		}
		e.After(gap, burst)
	}
	// Random start phase, like every other generator.
	e.After(sim.Time(rng.Int63n(int64(meanGapSec*float64(sim.Second))+1)), burst)
}
