package power

import (
	"epnet/internal/link"
	"epnet/internal/sim"
)

// ChannelEnergy is the per-channel slice of the fabric's energy bill:
// where one directed channel spent its time (per-rate occupancy), the
// relative power that occupancy implies under the measurement profile,
// and the joules it charges against the run window.
type ChannelEnergy struct {
	// Name is the channel's stable entity id (e.g. "s0p1-s1p0").
	Name string
	// Class is the physical link class ("optical", "electrical").
	Class string
	// Utilization is the channel's mean utilization over the window.
	Utilization float64
	// RelPower is the occupancy-weighted relative power in [Off, 1]
	// under the attribution profile.
	RelPower float64
	// EnergyJ is RelPower x the per-channel full-power share x the
	// window, in joules.
	EnergyJ float64
	// Occupancy is where the channel spent the window: at each rate
	// and powered off.
	Occupancy link.Occupancy
}

// Attribution splits a run's total network energy across its channels.
// The accounting basis mirrors the aggregate estimate in Run: the
// fabric's full-power draw is divided evenly across channels, and each
// channel is charged its share scaled by its occupancy-weighted
// relative power under a single measurement profile — so the per-
// channel energies sum exactly to the aggregate EnergyJoules (modulo
// float addition order).
type Attribution struct {
	// WattsPerChannel is the full-power draw attributed to each
	// channel: total fabric watts / channel count.
	WattsPerChannel float64
	// Window is the accounted wall-clock span.
	Window sim.Time
	// Profile is the measurement profile energy is charged under.
	Profile Profile
}

// NewAttribution returns an attribution of fullWatts across nch
// channels over window.
func NewAttribution(fullWatts float64, nch int, window sim.Time, profile Profile) *Attribution {
	a := &Attribution{Window: window, Profile: profile}
	if nch > 0 {
		a.WattsPerChannel = fullWatts / float64(nch)
	}
	return a
}

// Add charges one channel's occupancy against the attribution and
// returns its entry.
func (a *Attribution) Add(name, class string, occ link.Occupancy, util float64) ChannelEnergy {
	rel := OccupancyPower(occ, a.Profile)
	return ChannelEnergy{
		Name:        name,
		Class:       class,
		Utilization: util,
		RelPower:    rel,
		EnergyJ:     rel * a.WattsPerChannel * a.Window.Seconds(),
		Occupancy:   occ,
	}
}
