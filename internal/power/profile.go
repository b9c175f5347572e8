// Package power contains the power models of the paper: per-channel
// power-vs-rate profiles (the measured InfiniBand-style curve of Figure 5
// and the ideally energy-proportional curve of Figure 8b), the
// part-count power analytics behind Table 1 and Figure 1, the
// electricity-cost model, and the ITRS bandwidth-trend data of Figure 6.
package power

import (
	"fmt"
	"sort"

	"epnet/internal/link"
)

// Profile maps a channel's operating point to normalized power, where
// 1.0 is the power of an Active channel at the profile's maximum rate.
type Profile interface {
	// Name identifies the profile in reports.
	Name() string
	// Relative returns the normalized power draw at rate r.
	Relative(r link.Rate) float64
	// Off returns the normalized power of a powered-down channel.
	Off() float64
}

// MeasuredPoint is one operating mode of the measured switch profile.
type MeasuredPoint struct {
	Rate     link.Rate
	Relative float64
}

// Measured is the paper's Figure 5 profile: an off-the-shelf InfiniBand
// switch with manually adjustable link rates. Power is far from
// proportional: the slowest mode (2.5 Gb/s) still consumes 42% of
// full-rate power, and even an idle ("always on") link consumes ~36%.
type Measured struct {
	name   string
	points []MeasuredPoint // ascending by rate
	idle   float64
	off    float64
}

// NewMeasured builds a measured profile from explicit points. Points are
// sorted; rates between points use the nearest point at or above the
// requested rate (rates are expected to be configured ladder values).
func NewMeasured(name string, points []MeasuredPoint, idle, off float64) (*Measured, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("power: measured profile needs at least one point")
	}
	ps := append([]MeasuredPoint(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Rate < ps[j].Rate })
	for i, p := range ps {
		if p.Relative < 0 || p.Relative > 1 {
			return nil, fmt.Errorf("power: relative power %v out of [0,1]", p.Relative)
		}
		if i > 0 && ps[i-1].Rate == p.Rate {
			return nil, fmt.Errorf("power: duplicate rate %v", p.Rate)
		}
	}
	if ps[len(ps)-1].Relative != 1 {
		return nil, fmt.Errorf("power: maximum-rate point must be 1.0, got %v", ps[len(ps)-1].Relative)
	}
	return &Measured{name: name, points: ps, idle: idle, off: off}, nil
}

// InfiniBandOptical reproduces Figure 5 for optical-mode links. The
// published anchors are: lowest mode (1x SDR, 2.5 Gb/s) = 42% of full
// power; ~60% power saving available between full rate and the slowest
// mode; idle consumes slightly less than the slowest mode. Intermediate
// modes are interpolated along lane-count and signaling-rate steps:
// within 1x (2.5/5/10 Gb/s) power grows slowly with signaling rate, and
// the 1x -> 4x lane step costs more.
func InfiniBandOptical() *Measured {
	m, err := NewMeasured("infiniband-optical", []MeasuredPoint{
		{link.Rate2_5G, 0.42}, // 1x SDR
		{link.Rate5G, 0.46},   // 1x DDR
		{link.Rate10G, 0.52},  // 1x QDR
		{link.Rate20G, 0.69},  // 4x DDR
		{link.Rate40G, 1.00},  // 4x QDR
	}, 0.36, 0.30)
	if err != nil {
		panic(err)
	}
	return m
}

// InfiniBandCopper is the copper-mode profile: the paper's data shows a
// switch chip uses ~25% less power driving an electrical link than an
// optical one; the curve shape is the same after normalization.
func InfiniBandCopper() *Measured {
	m, err := NewMeasured("infiniband-copper", []MeasuredPoint{
		{link.Rate2_5G, 0.42},
		{link.Rate5G, 0.46},
		{link.Rate10G, 0.52},
		{link.Rate20G, 0.69},
		{link.Rate40G, 1.00},
	}, 0.36, 0.30)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements Profile.
func (m *Measured) Name() string { return m.name }

// Relative implements Profile using the nearest configured point at or
// above r (rates are expected to be ladder values; an off-ladder rate
// above the maximum saturates at 1).
func (m *Measured) Relative(r link.Rate) float64 {
	for _, p := range m.points {
		if r <= p.Rate {
			return p.Relative
		}
	}
	return 1
}

// IdleFloor is the normalized power of the chip's IDLE mode bar in
// Figure 5.
func (m *Measured) IdleFloor() float64 { return m.idle }

// Off implements Profile. Figure 5 shows "there is not much power saving
// opportunity for powering off links entirely" on current chips.
func (m *Measured) Off() float64 { return m.off }

// Points returns a copy of the profile's configured points.
func (m *Measured) Points() []MeasuredPoint {
	return append([]MeasuredPoint(nil), m.points...)
}

// Ideal is the ideally energy-proportional channel of Figure 8b: power
// is exactly proportional to the configured rate (a 2.5 Gb/s link uses
// 6.25% the power of a 40 Gb/s link), idle links use no power, and off
// is free.
type Ideal struct {
	MaxRate link.Rate
}

// NewIdeal builds an ideal profile normalized to maxRate.
func NewIdeal(maxRate link.Rate) *Ideal { return &Ideal{MaxRate: maxRate} }

// Name implements Profile.
func (i *Ideal) Name() string { return "ideal-proportional" }

// Relative implements Profile.
func (i *Ideal) Relative(r link.Rate) float64 { return float64(r) / float64(i.MaxRate) }

// Off implements Profile.
func (i *Ideal) Off() float64 { return 0 }

var (
	_ Profile = (*Measured)(nil)
	_ Profile = (*Ideal)(nil)
)

// OccupancyPower converts a channel occupancy into mean normalized power
// under a profile: the time-weighted average of Relative(rate), counting
// Off time at Off() power. The sum runs in ladder order (ascending
// rate): one fixed order keeps reported power reproducible bit for bit.
func OccupancyPower(o link.Occupancy, p Profile) float64 {
	if o.Total == 0 {
		return 0
	}
	var acc float64
	for i, t := range o.AtRate {
		acc += p.Relative(o.Ladder[i]) * float64(t)
	}
	acc += p.Off() * float64(o.Off)
	return acc / float64(o.Total)
}
