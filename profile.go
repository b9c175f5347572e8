package epnet

import (
	"fmt"
	"math"
	"time"

	"epnet/internal/sim"
	"epnet/internal/telemetry"
)

// This file is the public face of engine self-profiling (Config.Profile
// / Config.ProfileOut) and the Partition helper behind `epsim -v`'s
// startup line. The profile types live in internal/telemetry, which
// snapshots them with stable JSON tags; these aliases are their public
// names, as for Scenario and Duration.
type (
	// EngineProfile is the engine's self-profile over a run (see
	// Result.Profile). WriteReport renders the critical-path report
	// `epsim -profile` prints; WriteCSV the per-shard table.
	EngineProfile = telemetry.EngineProfile
	// ShardProfile is one shard's aggregate of the engine self-profile.
	ShardProfile = telemetry.ShardProfile
)

// PartitionInfo describes the shard partition a configuration would
// run with, without running it: how the switches split, how many
// channels the cut crosses, and how tightly the shards are coupled.
type PartitionInfo struct {
	Shards        int           `json:"shards"`
	CutChannels   int           `json:"cut_channels"`
	TotalChannels int           `json:"total_channels"`
	LookaheadMin  time.Duration `json:"lookahead_min_ns"`
	LookaheadMax  time.Duration `json:"lookahead_max_ns"`

	// Lookahead is the closed per-shard-pair lookahead matrix
	// ([src][dst]); -1 marks an unreachable pair. Nil for serial runs.
	Lookahead [][]time.Duration `json:"lookahead,omitempty"`
}

// CutFraction returns CutChannels / TotalChannels (0 when serial).
func (p PartitionInfo) CutFraction() float64 {
	if p.TotalChannels == 0 {
		return 0
	}
	return float64(p.CutChannels) / float64(p.TotalChannels)
}

// String renders the one-line summary `epsim -v` prints at startup.
func (p PartitionInfo) String() string {
	if p.Shards <= 1 {
		return "shards=1 (serial engine)"
	}
	return fmt.Sprintf("shards=%d cut=%d/%d inter-switch channels (%s) lookahead=%v..%v",
		p.Shards, p.CutChannels, p.TotalChannels, pct(p.CutFraction()),
		p.LookaheadMin, p.LookaheadMax)
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// Partition builds the configuration's network far enough to report its
// shard partition and lookahead matrix, then discards it. It is cheap
// relative to a run (the build stage only, no simulation) and powers
// the `epsim -v` startup line.
func Partition(cfg Config) (PartitionInfo, error) {
	if err := cfg.Validate(); err != nil {
		return PartitionInfo{}, err
	}
	r, err := build(cfg)
	if err != nil {
		return PartitionInfo{}, err
	}
	defer r.net.Close()
	info := PartitionInfo{Shards: r.net.NumShards()}
	g := r.net.Sharding()
	if g == nil {
		return info, nil
	}
	info.CutChannels, info.TotalChannels = g.CutQuality()
	lo, hi := g.LookaheadRange()
	info.LookaheadMin, info.LookaheadMax = toDuration(lo), toDuration(hi)
	// Mirror the lookahead matrix; entries at or beyond the engine's
	// "effectively infinite" bound mark unreachable pairs.
	const unreachable = sim.Time(math.MaxInt64 / 8)
	m := g.LookaheadMatrix()
	info.Lookahead = make([][]time.Duration, len(m))
	for i, row := range m {
		info.Lookahead[i] = make([]time.Duration, len(row))
		for j, v := range row {
			if v >= unreachable {
				info.Lookahead[i][j] = -1
				continue
			}
			info.Lookahead[i][j] = toDuration(v)
		}
	}
	return info, nil
}
