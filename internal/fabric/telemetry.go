package fabric

import (
	"strconv"

	"epnet/internal/telemetry"
	"epnet/internal/topo"
)

// appendEndpoint appends an endpoint's compact metric label: host 3 ->
// "h3", switch 0 port 2 -> "s0p2".
func appendEndpoint(b []byte, e topo.Endpoint) []byte {
	if e.Kind == topo.KindHost {
		return strconv.AppendInt(append(b, 'h'), int64(e.ID), 10)
	}
	b = strconv.AppendInt(append(b, 's'), int64(e.ID), 10)
	return strconv.AppendInt(append(b, 'p'), int64(e.Port), 10)
}

// Label returns the channel's stable entity id used as the "link"
// label value, e.g. "s0p1-s1p0".
func (c *Chan) Label() string {
	var buf [48]byte
	b := appendEndpoint(buf[:0], c.Src)
	return string(appendEndpoint(append(b, '-'), c.Dst))
}

// RegisterMetrics registers the fabric's observable state with a
// telemetry registry. Whole-fabric aggregates are plain gauges;
// per-entity series are labeled families keyed by switch, port, and
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
// Each of the three per-entity groups is one telemetry.Block, whose
// fill reads the group's records in a single pass (switch-major, port-
// major, channel-major) and writes every family of an entity as it
// goes; each channel's label is formatted once for all six link
// families. Everything except link.tx_pkts reads existing state,
// adding nothing to the packet path. link.tx_pkts reads Network.mTx, a
// count per channel that the delivery path increments — one add per
// hop, zero allocations (see BenchmarkNetworkThroughputMetrics and the
// zero-allocation test). Host-attachment channels are aggregated into
// the net.* series rather than getting per-link series, keeping the
// sampled width proportional to the switch fabric.
func (n *Network) RegisterMetrics(reg *telemetry.Registry) error {
	for _, g := range []struct {
		name string
		fn   func() float64
	}{
		{"net.injected_pkts", func() float64 { p, _ := n.Injected(); return float64(p) }},
		{"net.delivered_pkts", func() float64 { p, _ := n.Delivered(); return float64(p) }},
		{"net.dropped_pkts", func() float64 { p, _ := n.Dropped(); return float64(p) }},
		{"net.injected_mbytes", func() float64 { _, b := n.Injected(); return float64(b) / 1e6 }},
		{"net.delivered_mbytes", func() float64 { _, b := n.Delivered(); return float64(b) / 1e6 }},
		{"net.backlog_bytes", func() float64 { return float64(n.HostBacklogBytes()) }},
		{"net.inflight_pkts", func() float64 { return float64(n.InFlightPackets()) }},
	} {
		if err := reg.GaugeFunc(g.name, g.fn); err != nil {
			return err
		}
	}

	swIDs := make([]string, len(n.Switches))
	for i := range swIDs {
		swIDs[i] = strconv.Itoa(i)
	}
	err := reg.Block(telemetry.Block{
		Families: []telemetry.Family{{Name: "switch.routed_pkts"}, {Name: "switch.queue_bytes"}},
		Keys:     []string{"sw"},
		Values:   swIDs,
		Fill: func(dst []float64) {
			k := len(n.Switches)
			routed, queued := dst[:k], dst[k:]
			for i, s := range n.Switches {
				var total int64
				for p := range s.ports {
					total += s.ports[p].queuedBytes
				}
				routed[i], queued[i] = float64(s.routedPackets), float64(total)
			}
		},
	})
	if err != nil {
		return err
	}

	// Inter-switch ports, switch by switch.
	var ports []*port
	var portIDs []string
	for i, s := range n.Switches {
		for p := range s.ports {
			if ch := s.ports[p].out; ch != nil && ch.Dst.Kind == topo.KindSwitch {
				ports = append(ports, &s.ports[p])
				portIDs = append(portIDs, swIDs[i], strconv.Itoa(p))
			}
		}
	}
	err = reg.Block(telemetry.Block{
		Families: []telemetry.Family{{Name: "switch.port_queue_bytes"}},
		Keys:     []string{"sw", "port"},
		Values:   portIDs,
		Fill: func(dst []float64) {
			for i, p := range ports {
				dst[i] = float64(p.queuedBytes)
			}
		},
	})
	if err != nil {
		return err
	}

	isc := n.InterSwitchChannels()
	links := make([]string, len(isc))
	for i, ch := range isc {
		links[i] = ch.Label()
	}
	mTx := make([]int64, len(n.chans))
	err = reg.Block(telemetry.Block{
		Families: []telemetry.Family{
			{Name: "link.rate_gbps"}, {Name: "link.state"}, {Name: "link.util"},
			{Name: "link.total_mbytes"}, {Name: "link.tx_pkts", Counter: true}, {Name: "link.drops"},
		},
		Keys:   []string{"link"},
		Values: links,
		Fill: func(dst []float64) {
			now := n.E.Now()
			k := len(isc)
			rate, state, util := dst[:k], dst[k:2*k], dst[2*k:3*k]
			total, tx, drops := dst[3*k:4*k], dst[4*k:5*k], dst[5*k:]
			for i, ch := range isc {
				l := &ch.L
				rate[i] = l.Rate().GbpsF()
				state[i] = float64(l.State(now))
				util[i] = l.MeanUtilization(now)
				total[i] = float64(l.TotalBytes()) / 1e6
				tx[i] = float64(mTx[ch.idx])
				drops[i] = float64(n.chanCold[ch.idx].drops)
			}
		},
	})
	if err != nil {
		return err
	}
	n.mTx = mTx
	return nil
}
