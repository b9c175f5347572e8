package epnet

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"epnet/internal/sim"
	"epnet/internal/telemetry"
)

// This file is the public face of flow tracing (Config.FlowTrace /
// Config.FlowsOut). The report types live in internal/telemetry beside
// the collector that builds them; these aliases are their public names,
// as for EngineProfile.
type (
	// FlowTraceReport is the per-flow latency and energy decomposition
	// of a run (see Result.FlowTrace). WriteReport renders the ranked
	// report `epsim -flow-trace` prints; WriteCSV the per-phase table.
	FlowTraceReport = telemetry.FlowTraceReport
	// FlowClassReport is one flow class's (scenario phase's) merged
	// latency decomposition and energy accounting.
	FlowClassReport = telemetry.FlowClassReport
	// FlowPacket is one traced packet's full hop log.
	FlowPacket = telemetry.FlowPacket
	// FlowPacketHop is one hop of a traced packet's journey.
	FlowPacketHop = telemetry.FlowPacketHop
	// FlowBreakdown splits traced time into the eight latency
	// components, in integer picoseconds.
	FlowBreakdown = telemetry.FlowBreakdown
	// FlowTransmit is one flight-recorder entry.
	FlowTransmit = telemetry.FlowTransmit
	// FlowDumpReport is one anomaly dump of the flight recorder.
	FlowDumpReport = telemetry.FlowDumpReport
)

// applyToScore copies a class decomposition into its scorecard row:
// traced counts, per-packet mean component times, and the energy rate.
// Display-level (integer ps divided down to ns), so the exact-sum
// identity lives in the report, not the scorecard.
func applyToScore(c *FlowClassReport, ps *PhaseScore) {
	ps.TracedPackets = c.Count
	ps.TracedDropped = c.Drops
	ps.EnergyPJPerBit = c.EnergyPJPerBit
	if c.Count == 0 {
		return
	}
	mean := func(total int64) time.Duration { return toDuration(sim.Time(total / c.Count)) }
	b := &c.Breakdown
	ps.QueueWait = mean(b.QueuePs)
	ps.CreditStall = mean(b.CreditPs)
	ps.RetuneStall = mean(b.RetunePs)
	ps.BusyWait = mean(b.BusyPs)
	ps.CutThroughWait = mean(b.CutThroughPs)
	ps.SerializeTime = mean(b.SerializePs)
	ps.WireTime = mean(b.WirePs)
	ps.RouteTime = mean(b.RoutePs)
}

// writeFlowsOut writes the report to path: CSV when the path ends in
// ".csv", indented JSON otherwise.
func writeFlowsOut(path string, r *FlowTraceReport) error {
	write := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	}
	if strings.HasSuffix(path, ".csv") {
		write = r.WriteCSV
	}
	if err := writeFile(path, write); err != nil {
		return fmt.Errorf("epnet: writing flow trace: %w", err)
	}
	return nil
}
