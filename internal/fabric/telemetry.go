package fabric

import (
	"fmt"
	"strconv"

	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// endpointLabel renders an endpoint compactly for metric labels: host
// 3 -> "h3", switch 0 port 2 -> "s0p2".
func endpointLabel(e topo.Endpoint) string {
	if e.Kind == topo.KindHost {
		return fmt.Sprintf("h%d", e.ID)
	}
	return fmt.Sprintf("s%dp%d", e.ID, e.Port)
}

// Label returns the channel's stable entity id used as the "link"
// label value, e.g. "s0p1-s1p0".
func (c *Chan) Label() string {
	return fmt.Sprintf("%s-%s", endpointLabel(c.Src), endpointLabel(c.Dst))
}

// RegisterMetrics registers the fabric's observable state with a
// telemetry registry. Whole-fabric aggregates are plain gauges;
// per-entity series are labeled vectors keyed by switch, port, and
// link id:
//
//	net.injected_pkts / delivered_pkts / dropped_pkts /
//	net.injected_mbytes / delivered_mbytes / backlog_bytes /
//	net.inflight_pkts
//	switch.routed_pkts{sw=N}, switch.queue_bytes{sw=N}
//	switch.port_queue_bytes{sw=N;port=P}     (inter-switch ports)
//	link.rate_gbps / state / util / total_mbytes / tx_pkts / drops
//	  {link=s0p1-s1p0}                       (inter-switch channels)
//
// Everything except link.tx_pkts is exposed through closures over
// existing counters and accessors, adding nothing to the packet path.
// link.tx_pkts binds a pre-resolved Counter handle onto each channel
// (Chan.mTx), which the delivery path increments — one nil-check-free
// add per hop, zero allocations (see BenchmarkNetworkThroughputMetrics
// and the zero-allocation test). Host-attachment channels are
// aggregated into the net.* series rather than getting per-link
// series, keeping the sampled width proportional to the switch fabric.
func (n *Network) RegisterMetrics(reg *telemetry.Registry) error {
	netGauges := map[string]func() float64{
		"net.injected_pkts":    func() float64 { p, _ := n.Injected(); return float64(p) },
		"net.delivered_pkts":   func() float64 { p, _ := n.Delivered(); return float64(p) },
		"net.dropped_pkts":     func() float64 { p, _ := n.Dropped(); return float64(p) },
		"net.injected_mbytes":  func() float64 { _, b := n.Injected(); return float64(b) / 1e6 },
		"net.delivered_mbytes": func() float64 { _, b := n.Delivered(); return float64(b) / 1e6 },
		"net.backlog_bytes":    func() float64 { return float64(n.HostBacklogBytes()) },
		"net.inflight_pkts":    func() float64 { return float64(n.InFlightPackets()) },
	}
	// Maps iterate in random order; register deterministically.
	for _, name := range []string{
		"net.injected_pkts", "net.delivered_pkts", "net.dropped_pkts",
		"net.injected_mbytes", "net.delivered_mbytes", "net.backlog_bytes",
		"net.inflight_pkts",
	} {
		if err := reg.GaugeFunc(name, netGauges[name]); err != nil {
			return err
		}
	}

	// Per-switch vectors, one loop per family so each family's series
	// are contiguous in sampler columns and scrape output.
	routed := reg.GaugeVec("switch.routed_pkts", "sw")
	queued := reg.GaugeVec("switch.queue_bytes", "sw")
	portQueued := reg.GaugeVec("switch.port_queue_bytes", "sw", "port")
	for i, s := range n.Switches {
		s := s
		if err := routed.WithFunc(func() float64 { return float64(s.RoutedPackets()) },
			strconv.Itoa(i)); err != nil {
			return err
		}
	}
	for i, s := range n.Switches {
		s := s
		if err := queued.WithFunc(func() float64 {
			var total int64
			for p := range s.ports {
				total += s.ports[p].queuedBytes
			}
			return float64(total)
		}, strconv.Itoa(i)); err != nil {
			return err
		}
	}
	for i, s := range n.Switches {
		s := s
		for p := range s.ports {
			ch := s.ports[p].out
			if ch == nil || ch.Dst.Kind != topo.KindSwitch {
				continue
			}
			p := p
			if err := portQueued.WithFunc(func() float64 { return float64(s.QueueBytes(p)) },
				strconv.Itoa(i), strconv.Itoa(p)); err != nil {
				return err
			}
		}
	}

	// Per-link vectors over inter-switch channels.
	isc := n.InterSwitchChannels()
	rate := reg.GaugeVec("link.rate_gbps", "link")
	state := reg.GaugeVec("link.state", "link")
	util := reg.GaugeVec("link.util", "link")
	total := reg.GaugeVec("link.total_mbytes", "link")
	txPkts := reg.CounterVec("link.tx_pkts", "link")
	drops := reg.GaugeVec("link.drops", "link")
	for _, ch := range isc {
		ch := ch
		if err := rate.WithFunc(func() float64 { return ch.L.Rate().GbpsF() }, ch.Label()); err != nil {
			return err
		}
	}
	for _, ch := range isc {
		ch := ch
		if err := state.WithFunc(func() float64 { return float64(ch.L.State(n.E.Now())) }, ch.Label()); err != nil {
			return err
		}
	}
	for _, ch := range isc {
		ch := ch
		if err := util.WithFunc(func() float64 { return ch.L.MeanUtilization(n.E.Now()) }, ch.Label()); err != nil {
			return err
		}
	}
	for _, ch := range isc {
		ch := ch
		if err := total.WithFunc(func() float64 { return float64(ch.L.TotalBytes()) / 1e6 }, ch.Label()); err != nil {
			return err
		}
	}
	for _, ch := range isc {
		c, err := txPkts.With(ch.Label())
		if err != nil {
			return err
		}
		ch.mTx = c
	}
	n.countTx = true
	for _, ch := range isc {
		ch := ch
		if err := drops.WithFunc(func() float64 { return float64(ch.Drops()) }, ch.Label()); err != nil {
			return err
		}
	}
	return nil
}
