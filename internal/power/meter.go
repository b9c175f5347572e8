package power

import (
	"epnet/internal/link"
	"epnet/internal/sim"
	"epnet/internal/telemetry"
)

// Meter reads the instantaneous normalized power of a set of channels
// under several profiles at once: for each profile, the mean over
// channels of Relative(configured rate), with powered-off channels at
// Off(). This is the spot value whose time-weighted integral
// OccupancyPower reports at the end of a run, exposed live so a
// sampled series shows power tracking load.
type Meter struct {
	profiles []Profile
	chans    []*link.Channel
}

// NewMeter builds a meter over chans under the given profiles.
func NewMeter(chans []*link.Channel, profiles ...Profile) *Meter {
	return &Meter{profiles: profiles, chans: chans}
}

// Read sweeps the channels once at time now. It sets rel[i] to the mean
// normalized power under profile i, each sum taken in channel order,
// and returns the bytes the channels have transmitted.
func (m *Meter) Read(now sim.Time, rel []float64) (bytes int64) {
	clear(rel)
	if len(m.chans) == 0 {
		return 0
	}
	for _, c := range m.chans {
		bytes += c.TotalBytes()
		if c.State(now) == link.Off {
			for i, p := range m.profiles {
				rel[i] += p.Off()
			}
		} else {
			r := c.Rate()
			for i, p := range m.profiles {
				rel[i] += p.Relative(r)
			}
		}
	}
	for i := range rel {
		rel[i] /= float64(len(m.chans))
	}
	return bytes
}

// RegisterMetrics registers one gauge per profile, "power.<profile
// name>" in profile order, whose value is Read's at the sampling
// instant: one block, so a sample sweeps the channels once for every
// profile. now supplies the current simulation time (normally
// Engine.Now).
func (m *Meter) RegisterMetrics(reg *telemetry.Registry, now func() sim.Time) error {
	fams := make([]telemetry.Family, len(m.profiles))
	for i, p := range m.profiles {
		fams[i].Name = "power." + p.Name()
	}
	return reg.Block(telemetry.Block{
		Families: fams,
		Fill:     func(dst []float64) { m.Read(now(), dst) },
	})
}
