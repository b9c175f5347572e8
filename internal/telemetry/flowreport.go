package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"epnet/internal/sim"
)

// The flow-trace report is the public face of the collector (epnet's
// Result.FlowTrace and -flows-out): stable JSON tags, the ranked
// human-readable decomposition behind `epsim -flow-trace`, and the
// per-phase CSV. Times are integer picoseconds on the wire (`*_ps`): the
// components of a traced packet sum to its end-to-end latency exactly,
// and nanosecond rounding would break that identity. The report is
// byte-identical across shard counts for the same simulation.

// flowComponentNames are the display names of the latency components,
// indexed by the component constants.
var flowComponentNames = [FlowComponents]string{
	"queue", "credit", "retune", "busy", "cut-through", "serialize", "wire", "route",
}

// FlowBreakdown splits traced time into the eight latency components,
// in integer picoseconds: residual queue wait, credit stalls, retune
// (reactivation) stalls, busy-channel waits, cut-through causality
// waits, delivery serialization, wire flight, and routing/arbitration.
type FlowBreakdown struct {
	QueuePs      int64 `json:"queue_ps"`
	CreditPs     int64 `json:"credit_ps"`
	RetunePs     int64 `json:"retune_ps"`
	BusyPs       int64 `json:"busy_ps"`
	CutThroughPs int64 `json:"cutthrough_ps"`
	SerializePs  int64 `json:"serialize_ps"`
	WirePs       int64 `json:"wire_ps"`
	RoutePs      int64 `json:"route_ps"`
}

func newFlowBreakdown(comp [FlowComponents]sim.Time) FlowBreakdown {
	return FlowBreakdown{
		QueuePs:      int64(comp[FlowQueue]),
		CreditPs:     int64(comp[FlowCredit]),
		RetunePs:     int64(comp[FlowRetune]),
		BusyPs:       int64(comp[FlowBusy]),
		CutThroughPs: int64(comp[FlowCut]),
		SerializePs:  int64(comp[FlowSerialize]),
		WirePs:       int64(comp[FlowWire]),
		RoutePs:      int64(comp[FlowRoute]),
	}
}

// components returns the breakdown in component order.
func (b FlowBreakdown) components() [FlowComponents]int64 {
	return [FlowComponents]int64{
		b.QueuePs, b.CreditPs, b.RetunePs, b.BusyPs,
		b.CutThroughPs, b.SerializePs, b.WirePs, b.RoutePs,
	}
}

// TotalPs sums the components.
func (b FlowBreakdown) TotalPs() int64 {
	var sum int64
	for _, v := range b.components() {
		sum += v
	}
	return sum
}

// add accumulates other into b.
func (b *FlowBreakdown) add(other FlowBreakdown) {
	b.QueuePs += other.QueuePs
	b.CreditPs += other.CreditPs
	b.RetunePs += other.RetunePs
	b.BusyPs += other.BusyPs
	b.CutThroughPs += other.CutThroughPs
	b.SerializePs += other.SerializePs
	b.WirePs += other.WirePs
	b.RoutePs += other.RoutePs
}

// FlowPacketHop is one hop of a traced packet's journey: the node it
// waited at, the channel it left on, and where its time there went.
type FlowPacketHop struct {
	// Node is "h<i>" for the injection hop, "s<i>" for a switch.
	Node string `json:"node"`
	// Chan is the channel the packet departed on ("s0p1-s1p0"-style),
	// empty when the packet never left this hop (dropped while queued).
	Chan      string        `json:"chan,omitempty"`
	ArrivePs  int64         `json:"arrive_ps"`
	DepartPs  int64         `json:"depart_ps"`
	XmitPs    int64         `json:"xmit_ps"`
	Breakdown FlowBreakdown `json:"breakdown"`
}

// FlowPacket is one traced packet's full hop log. The per-hop breakdown
// components sum exactly to LatencyPs.
type FlowPacket struct {
	ID        int64           `json:"id"`
	MsgID     int64           `json:"msg_id"`
	Src       string          `json:"src"`
	Dst       string          `json:"dst"`
	Size      int             `json:"size"`
	InjectPs  int64           `json:"inject_ps"`
	DonePs    int64           `json:"done_ps"`
	LatencyPs int64           `json:"latency_ps"`
	Dropped   bool            `json:"dropped,omitempty"`
	DropWhy   string          `json:"drop_why,omitempty"`
	Truncated bool            `json:"truncated,omitempty"`
	Breakdown FlowBreakdown   `json:"breakdown"`
	Hops      []FlowPacketHop `json:"hops"`
}

// FlowClassReport is one flow class's (scenario phase's) merged latency
// decomposition and energy accounting over the traced packets that
// finished in it.
type FlowClassReport struct {
	Phase string `json:"phase"`
	// Count/Drops/Bytes cover traced packets only; scale by the sample
	// rate for population estimates.
	Count         int64   `json:"count"`
	Drops         int64   `json:"drops"`
	Bytes         int64   `json:"bytes"`
	MeanHops      float64 `json:"mean_hops"`
	MeanLatencyPs int64   `json:"mean_latency_ps"`
	MaxLatencyPs  int64   `json:"max_latency_ps"`
	// Breakdown is summed over the class's traced packets; divide by
	// Count for per-packet means. The components sum to Count times the
	// mean latency (exactly: to the class's total traced latency).
	Breakdown FlowBreakdown `json:"breakdown"`
	// EnergyPJPerBit charges each traced byte its share of the energy of
	// the channels it crossed, in picojoules per delivered bit (0 when
	// the run computed no per-channel energies — live snapshots).
	EnergyPJPerBit float64 `json:"energy_pj_per_bit,omitempty"`
}

// FlowTransmit is one flight-recorder entry: a traced packet starting
// across a channel shortly before a fault epoch.
type FlowTransmit struct {
	AtPs   int64  `json:"at_ps"`
	Packet int64  `json:"pkt"`
	Chan   string `json:"chan"`
	Size   int32  `json:"size"`
}

// FlowDumpReport is one anomaly dump: a dropped traced packet's hop log
// (Packet != nil), or the recent traced transmits leading up to a fault
// epoch (Recent != nil).
type FlowDumpReport struct {
	Reason string         `json:"reason"`
	AtPs   int64          `json:"at_ps"`
	Packet *FlowPacket    `json:"packet,omitempty"`
	Recent []FlowTransmit `json:"recent,omitempty"`
}

// FlowTraceReport is the per-flow latency and energy decomposition of a
// run: per-phase component breakdowns, the globally slowest traced
// packets with full hop logs, and the anomaly dumps the flight recorder
// captured at drops and fault epochs.
type FlowTraceReport struct {
	SampleRate float64           `json:"sample_rate"`
	Started    int64             `json:"started"`
	Delivered  int64             `json:"delivered"`
	Dropped    int64             `json:"dropped"`
	Classes    []FlowClassReport `json:"classes"`
	Exemplars  []FlowPacket      `json:"exemplars,omitempty"`
	Dumps      []FlowDumpReport  `json:"dumps,omitempty"`
}

// Report merges the per-shard state into the report. Call only at a
// quiescent point (between runs, or after the run completes).
// Aggregates merge by order-independent sums, exemplars and dumps by
// canonical sorts, so the report is identical across shard counts.
//
// chanLabels maps channel index to wiring label. chanEnergy and
// chanBytes, when non-nil, give each channel's energy (joules) and total
// carried bytes over the measurement window; each class's traced bytes
// are charged their share. Nil, as for live and failed-run reports,
// leaves EnergyPJPerBit zero.
func (fc *FlowCollector) Report(chanLabels []string, chanEnergy []float64, chanBytes []int64) *FlowTraceReport {
	rep := &FlowTraceReport{
		SampleRate: fc.rate,
		Classes:    make([]FlowClassReport, len(fc.classes)),
	}
	var exemplars []*PacketTrace
	var drops []*FlowDump
	for s := range fc.shards {
		sh := &fc.shards[s]
		rep.Started += sh.started
		exemplars = append(exemplars, sh.exemplars...)
		drops = append(drops, sh.dumps...)
	}
	for c := range fc.classes {
		var m flowClassAcc
		for s := range fc.shards {
			acc := &fc.shards[s].stats[c]
			m.count += acc.count
			m.drops += acc.drops
			m.bytes += acc.bytes
			m.hops += acc.hops
			m.sumLat += acc.sumLat
			if acc.maxLat > m.maxLat {
				m.maxLat = acc.maxLat
			}
			for k := range acc.comp {
				m.comp[k] += acc.comp[k]
			}
		}
		cr := FlowClassReport{
			Phase:        fc.classes[c].name,
			Count:        m.count,
			Drops:        m.drops,
			Bytes:        m.bytes,
			MaxLatencyPs: int64(m.maxLat),
			Breakdown:    newFlowBreakdown(m.comp),
		}
		if m.count > 0 {
			cr.MeanHops = float64(m.hops) / float64(m.count)
			cr.MeanLatencyPs = int64(m.sumLat) / m.count
		}
		if chanEnergy != nil && chanBytes != nil && m.bytes > 0 {
			var ej float64
			for ch := 0; ch < fc.nchans; ch++ {
				var b int64
				for s := range fc.shards {
					b += fc.shards[s].stats[c].chanBytes[ch]
				}
				if b > 0 && ch < len(chanBytes) && chanBytes[ch] > 0 {
					ej += chanEnergy[ch] * float64(b) / float64(chanBytes[ch])
				}
			}
			cr.EnergyPJPerBit = ej * 1e12 / (float64(m.bytes) * 8)
		}
		rep.Classes[c] = cr
		rep.Delivered += m.count
		rep.Dropped += m.drops
	}
	sort.Slice(exemplars, func(i, j int) bool { return slower(exemplars[i], exemplars[j]) })
	if len(exemplars) > flowExemplarKeep {
		exemplars = exemplars[:flowExemplarKeep]
	}
	for _, tr := range exemplars {
		rep.Exemplars = append(rep.Exemplars, newFlowPacket(tr, chanLabels))
	}
	sort.Slice(drops, func(i, j int) bool { return earlierDump(drops[i], drops[j]) })
	if len(drops) > flowDumpMax {
		drops = drops[:flowDumpMax]
	}
	for _, d := range append(append([]*FlowDump(nil), fc.faults...), drops...) {
		dr := FlowDumpReport{Reason: d.Reason, AtPs: int64(d.At)}
		if d.Trace != nil {
			p := newFlowPacket(d.Trace, chanLabels)
			dr.Packet = &p
		}
		for _, r := range d.Recent {
			t := FlowTransmit{AtPs: int64(r.At), Packet: r.Pkt, Size: r.Size}
			if int(r.Chan) < len(chanLabels) {
				t.Chan = chanLabels[r.Chan]
			}
			dr.Recent = append(dr.Recent, t)
		}
		rep.Dumps = append(rep.Dumps, dr)
	}
	return rep
}

// flowNode renders a hop node: hosts are encoded ^host by the collector.
func flowNode(n int32) string {
	if n < 0 {
		return fmt.Sprintf("h%d", ^n)
	}
	return fmt.Sprintf("s%d", n)
}

// newFlowPacket renders one trace. chanLabels maps channel index to
// wiring label.
func newFlowPacket(tr *PacketTrace, chanLabels []string) FlowPacket {
	p := FlowPacket{
		ID:        tr.ID,
		MsgID:     tr.MsgID,
		Src:       fmt.Sprintf("h%d", tr.Src),
		Dst:       fmt.Sprintf("h%d", tr.Dst),
		Size:      tr.Size,
		InjectPs:  int64(tr.Inject),
		DonePs:    int64(tr.Done),
		LatencyPs: int64(tr.Latency()),
		Dropped:   tr.Dropped,
		DropWhy:   tr.DropWhy,
		Truncated: tr.Truncated,
		Hops:      make([]FlowPacketHop, tr.NHops),
	}
	for i := 0; i < tr.NHops; i++ {
		h := &tr.Hops[i]
		ph := FlowPacketHop{
			Node:      flowNode(h.Node),
			ArrivePs:  int64(h.Arrive),
			DepartPs:  int64(h.Depart),
			XmitPs:    int64(h.Xmit),
			Breakdown: newFlowBreakdown(h.Comp),
		}
		if h.Chan >= 0 && int(h.Chan) < len(chanLabels) {
			ph.Chan = chanLabels[h.Chan]
		}
		p.Breakdown.add(ph.Breakdown)
		p.Hops[i] = ph
	}
	return p
}

// flowUs renders picoseconds as microseconds for display.
func flowUs(ps int64) string { return fmt.Sprintf("%.3fus", float64(ps)/1e6) }

// topShares returns component indexes with a nonzero share of total,
// largest first (ties by component order).
func topShares(b FlowBreakdown) []int {
	comps := b.components()
	order := make([]int, 0, len(comps))
	for i, v := range comps {
		if v > 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		return comps[order[i]] > comps[order[j]]
	})
	return order
}

// shareLine renders up to n leading components of b as
// "61.0% retune, 20.1% queue, ...", shares of total.
func shareLine(b FlowBreakdown, total int64, n int) string {
	if total <= 0 {
		return "idle"
	}
	comps := b.components()
	var parts []string
	for _, c := range topShares(b) {
		if len(parts) == n {
			break
		}
		parts = append(parts, fmt.Sprintf("%s %s",
			pct(float64(comps[c])/float64(total)), flowComponentNames[c]))
	}
	if len(parts) == 0 {
		return "idle"
	}
	return strings.Join(parts, ", ")
}

// hotHop returns the hop contributing the most of component c, for the
// "where" half of an exemplar line.
func hotHop(p *FlowPacket, c int) *FlowPacketHop {
	var best *FlowPacketHop
	var bestV int64
	for i := range p.Hops {
		if v := p.Hops[i].Breakdown.components()[c]; v > bestV {
			best, bestV = &p.Hops[i], v
		}
	}
	return best
}

// WriteReport writes the human-readable decomposition report: the
// per-phase component split, the ranked slowest traced packets with
// their dominant stall and where it accrued, and the anomaly dumps.
// This is what `epsim -flow-trace` prints.
func (r *FlowTraceReport) WriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "flow trace: sample rate %.4g, traced %d (%d delivered, %d dropped)\n",
		r.SampleRate, r.Started, r.Delivered, r.Dropped)
	for i := range r.Classes {
		c := &r.Classes[i]
		fmt.Fprintf(bw, "  phase %-10s %6d pkts (%d drops) mean %s max %s hops %.1f",
			c.Phase, c.Count, c.Drops,
			flowUs(c.MeanLatencyPs), flowUs(c.MaxLatencyPs), c.MeanHops)
		if c.EnergyPJPerBit > 0 {
			fmt.Fprintf(bw, " energy %.2f pJ/bit", c.EnergyPJPerBit)
		}
		fmt.Fprintf(bw, "\n    %s\n", shareLine(c.Breakdown, c.Breakdown.TotalPs(), len(flowComponentNames)))
	}
	if len(r.Exemplars) > 0 {
		fmt.Fprintln(bw, "slowest traced packets:")
		for i := range r.Exemplars {
			p := &r.Exemplars[i]
			fmt.Fprintf(bw, "  %2d. pkt %-8d %s->%s %s over %d hop(s): %s",
				i+1, p.ID, p.Src, p.Dst, flowUs(p.LatencyPs), len(p.Hops),
				shareLine(p.Breakdown, p.LatencyPs, 3))
			if top := topShares(p.Breakdown); len(top) > 0 {
				if h := hotHop(p, top[0]); h != nil {
					fmt.Fprintf(bw, " (worst at %s", h.Node)
					if h.Chan != "" {
						fmt.Fprintf(bw, " on %s", h.Chan)
					}
					fmt.Fprint(bw, ")")
				}
			}
			fmt.Fprintln(bw)
		}
	}
	if len(r.Dumps) > 0 {
		fmt.Fprintln(bw, "anomaly dumps:")
		for i := range r.Dumps {
			d := &r.Dumps[i]
			fmt.Fprintf(bw, "  [%s] %s\n", flowUs(d.AtPs), d.Reason)
			if d.Packet != nil {
				p := d.Packet
				fmt.Fprintf(bw, "    pkt %d %s->%s, %s in flight: %s\n",
					p.ID, p.Src, p.Dst, flowUs(p.LatencyPs),
					shareLine(p.Breakdown, p.Breakdown.TotalPs(), 3))
				for j := range p.Hops {
					h := &p.Hops[j]
					line := fmt.Sprintf("    hop %d %s", j, h.Node)
					if h.Chan != "" {
						line += " -> " + h.Chan
					}
					fmt.Fprintf(bw, "%s: %s\n", line,
						shareLine(h.Breakdown, h.Breakdown.TotalPs(), 3))
				}
			}
			if len(d.Recent) > 0 {
				fmt.Fprintf(bw, "    last %d traced transmit(s):\n", len(d.Recent))
				for _, t := range d.Recent {
					fmt.Fprintf(bw, "      [%s] pkt %d on %s (%d B)\n",
						flowUs(t.AtPs), t.Packet, t.Chan, t.Size)
				}
			}
		}
	}
	return bw.Flush()
}

// WriteCSV writes the per-phase decomposition as CSV: '#'-prefixed
// whole-run summary lines, then one row per phase with per-packet mean
// component times in microseconds.
func (r *FlowTraceReport) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# sample_rate=%g started=%d delivered=%d dropped=%d\n",
		r.SampleRate, r.Started, r.Delivered, r.Dropped)
	fmt.Fprintln(bw, "phase,count,drops,bytes,mean_hops,mean_latency_us,max_latency_us,"+
		"queue_us,credit_us,retune_us,busy_us,cutthrough_us,serialize_us,wire_us,route_us,"+
		"energy_pj_per_bit")
	for i := range r.Classes {
		c := &r.Classes[i]
		fmt.Fprintf(bw, "%s,%d,%d,%d,%.2f,%.3f,%.3f",
			c.Phase, c.Count, c.Drops, c.Bytes, c.MeanHops,
			float64(c.MeanLatencyPs)/1e6, float64(c.MaxLatencyPs)/1e6)
		for _, v := range c.Breakdown.components() {
			mean := 0.0
			if c.Count > 0 {
				mean = float64(v) / float64(c.Count) / 1e6
			}
			fmt.Fprintf(bw, ",%.3f", mean)
		}
		fmt.Fprintf(bw, ",%.4f\n", c.EnergyPJPerBit)
	}
	return bw.Flush()
}

// Chrome trace process IDs: the viewer groups tracks by process.
const (
	chromePackets = 1
	chromeFaults  = 2
)

// chromeEvent is one object of the Chrome trace_event format's JSON
// array form. Times are microseconds, the format's unit.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	ID   int64          `json:"id,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the report as a Chrome trace_event JSON array, for
// chrome://tracing or https://ui.perfetto.dev. The "packets" process
// has one track per packet the report carries: the exemplars, then the
// dropped packets of the dumps. A track holds the packet's async "pkt"
// span, from injection to delivery or drop, and one span per hop, laid
// end to end, whose nonzero latency components are its child spans.
// The hop log records how long each component lasted, not when, so the
// children of a hop run in component order: queue, credit, retune,
// busy, cut-through, serialize, wire, route. The "faults" process has
// one instant per dump. Like the report, the file is byte-identical
// across shard counts.
func (r *FlowTraceReport) WriteChrome(w io.Writer) error {
	us := func(ps int64) float64 { return float64(ps) / 1e6 }
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: chromePackets, Args: map[string]any{"name": "packets"}},
		{Name: "process_name", Ph: "M", Pid: chromeFaults, Args: map[string]any{"name": "faults"}},
	}
	var packets []*FlowPacket
	for i := range r.Exemplars {
		packets = append(packets, &r.Exemplars[i])
	}
	for _, d := range r.Dumps {
		ev := chromeEvent{Name: d.Reason, Cat: "fault", Ph: "i", Ts: us(d.AtPs), Pid: chromeFaults}
		if d.Packet != nil {
			packets = append(packets, d.Packet)
			ev.Args = map[string]any{"pkt": d.Packet.ID}
		}
		events = append(events, ev)
	}
	for i, p := range packets {
		tid := i + 1
		track := fmt.Sprintf("pkt %d %s->%s", p.ID, p.Src, p.Dst)
		if p.Dropped {
			track += " dropped: " + p.DropWhy
		}
		events = append(events,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: chromePackets, Tid: tid,
				Args: map[string]any{"name": track}},
			chromeEvent{Name: "pkt", Cat: "packet", Ph: "b", ID: p.ID, Ts: us(p.InjectPs),
				Pid: chromePackets, Tid: tid,
				Args: map[string]any{"src": p.Src, "dst": p.Dst, "bytes": p.Size, "hops": len(p.Hops) - 1}},
			chromeEvent{Name: "pkt", Cat: "packet", Ph: "e", ID: p.ID, Ts: us(p.DonePs),
				Pid: chromePackets, Tid: tid})
		at := p.InjectPs
		for _, h := range p.Hops {
			total := h.Breakdown.TotalPs()
			if total == 0 {
				continue
			}
			hop := chromeEvent{Name: h.Node, Cat: "hop", Ph: "X", Ts: us(at), Dur: us(total),
				Pid: chromePackets, Tid: tid}
			if h.Chan != "" {
				hop.Args = map[string]any{"chan": h.Chan}
			}
			events = append(events, hop)
			for c, v := range h.Breakdown.components() {
				if v > 0 {
					events = append(events, chromeEvent{Name: flowComponentNames[c], Cat: "latency",
						Ph: "X", Ts: us(at), Dur: us(v), Pid: chromePackets, Tid: tid})
					at += v
				}
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	buf.WriteString("[")
	for i := range events {
		if i > 0 {
			buf.WriteString(",")
		}
		buf.WriteString("\n")
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
		buf.Truncate(buf.Len() - 1) // Encode ends each event with a newline
	}
	buf.WriteString("\n]\n")
	_, err := w.Write(buf.Bytes())
	return err
}
