package epnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"epnet/internal/sim"
	"epnet/internal/telemetry"
)

// latencyBucketsUs are the fixed upper bounds (microseconds) of the
// packet-latency histogram registered as net.latency_us.
var latencyBucketsUs = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
}

// utilBuckets are the upper bounds of the link-utilization histogram
// (the paper's Fig 8 x-axis: twenty 5% bins).
var utilBuckets = []float64{
	0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
	0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00,
}

// observer wires a run's optional telemetry: the metrics sampler
// behind Config.MetricsOut, the utilization heatmap and histogram
// behind Config.HeatmapOut/HistOut, and the live-inspection publisher
// behind Config.Inspector, all on the one sampler's tick. newObserver
// returns nil when everything is disabled, so Run pays nothing for
// observability it did not ask for.
type observer struct {
	*run
	flowChans []string
	reg       *telemetry.Registry
	sampler   *telemetry.Sampler
	heatmap   *telemetry.Heatmap
	snapBuf   bytes.Buffer
	promBuf   bytes.Buffer
	profBuf   bytes.Buffer
	flowBuf   bytes.Buffer
	done      bool
}

// newObserver builds and starts the telemetry the run's config asks
// for. The sampler writes its header and baseline into the metrics
// file immediately (at the engine's current time, normally 0) and
// streams a row every tick until the horizon. A run without a metrics
// file starts a sampler without a sink, which only paces the heatmap
// and the publisher.
func newObserver(r *run) (*observer, error) {
	cfg, net := r.cfg, r.net
	if cfg.MetricsOut == "" && cfg.HeatmapOut == "" && cfg.HistOut == "" && cfg.Inspector == nil {
		return nil, nil
	}
	o := &observer{run: r}
	if r.flow != nil && cfg.Inspector != nil {
		o.flowChans = chanLabels(net)
	}
	if cfg.HeatmapOut != "" || cfg.HistOut != "" {
		o.heatmap = &telemetry.Heatmap{}
		for _, ch := range net.InterSwitchChannels() {
			o.heatmap.AddRow(ch.Label(), ch.L.BusyTime)
		}
	}
	if cfg.MetricsOut != "" || cfg.Inspector != nil {
		reg := telemetry.NewRegistry()
		if err := reg.GaugeFunc("sim.events_processed",
			func() float64 { return float64(net.EventsProcessed()) }); err != nil {
			return nil, err
		}
		if err := reg.GaugeFunc("sim.pending_events",
			func() float64 { return float64(net.PendingEvents()) }); err != nil {
			return nil, err
		}
		if err := net.RegisterMetrics(reg); err != nil {
			return nil, err
		}
		if r.ctrl != nil {
			if err := r.ctrl.RegisterMetrics(reg); err != nil {
				return nil, err
			}
		}
		if r.fbfly != nil {
			if err := r.fbfly.RegisterMetrics(reg); err != nil {
				return nil, err
			}
		}
		if r.inj != nil {
			if err := r.inj.RegisterMetrics(reg); err != nil {
				return nil, err
			}
		}
		if err := r.powerMeter().RegisterMetrics(reg, r.e.Now); err != nil {
			return nil, err
		}
		// Packet latency distribution, accumulated per shard by the
		// run's delivery recorders; the view's refresh merges them with
		// integer adds just before every read, making the sampled series
		// and the rendered histogram independent of the shard count.
		r.rec.withHistogram()
		merged := make([]int64, len(latencyBucketsUs)+1)
		refresh := func(h *telemetry.Histogram) {
			clear(merged)
			var n int64
			var sum sim.Time
			for s := range r.rec.shards {
				sh := &r.rec.shards[s]
				for i, c := range sh.buckets {
					merged[i] += c
					n += c
				}
				sum += sh.sum
			}
			h.SetState(merged, sum.Microseconds(), n)
		}
		if _, err := reg.HistogramView("net.latency_us", latencyBucketsUs, refresh); err != nil {
			return nil, err
		}
		o.reg = reg
	}
	var sink io.Writer
	if f := r.out[outMetrics]; f != nil {
		sink = f
	}
	enc := telemetry.CSV
	if strings.HasSuffix(cfg.MetricsOut, ".jsonl") {
		enc = telemetry.JSONL
	}
	s, err := telemetry.NewSampler(o.reg, simTime(cfg.SampleInterval), sink, enc)
	if err != nil {
		return nil, err
	}
	o.sampler = s
	s.OnSample = o.onSample
	s.Start(r.e, r.horizon)
	return o, nil
}

// onSample is the sampler's hook: its baseline, each tick and the
// final sample give the heatmap a column and the inspector a fresh
// document.
func (o *observer) onSample(now sim.Time) {
	if o.heatmap != nil {
		o.heatmap.Sample(now)
	}
	if o.cfg.Inspector != nil {
		o.publish(now)
	}
}

// publish renders the scrape body and the per-entity snapshot on the
// engine thread and hands copies to the inspector. Both documents are
// pure functions of simulation state, so repeated seeded runs publish
// byte-identical final documents. The engine profile, when profiling
// is on, rides along as a third document (wall-clock based, so not
// deterministic — it feeds /profile, nothing else).
func (o *observer) publish(now sim.Time) {
	o.promBuf.Reset()
	o.reg.WritePrometheus(&o.promBuf)
	o.snapBuf.Reset()
	json.NewEncoder(&o.snapBuf).Encode(o.snapshot(now))
	prom := make([]byte, o.promBuf.Len())
	copy(prom, o.promBuf.Bytes())
	snap := make([]byte, o.snapBuf.Len())
	copy(snap, o.snapBuf.Bytes())
	var prof []byte
	if o.eprof != nil {
		// Sampler ticks run on the control plane at barriers, when every
		// shard is quiescent — the one safe instant to snapshot.
		o.profBuf.Reset()
		json.NewEncoder(&o.profBuf).Encode(o.eprof.Snapshot())
		prof = make([]byte, o.profBuf.Len())
		copy(prof, o.profBuf.Bytes())
	}
	var flows []byte
	if o.flow != nil {
		// Same quiescent instant; the live document carries no energy
		// join (per-channel energies exist only at the end of the run).
		o.flowBuf.Reset()
		json.NewEncoder(&o.flowBuf).Encode(o.flow.Report(o.flowChans, nil, nil))
		flows = make([]byte, o.flowBuf.Len())
		copy(flows, o.flowBuf.Bytes())
	}
	o.cfg.Inspector.publish(prom, snap, prof, flows)
}

// snapshot structures for the /snapshot JSON document. Field order is
// fixed by the struct definitions, entity order by wiring order, so
// the rendering is deterministic.
type snapLink struct {
	Link       string  `json:"link"`
	RateGbps   float64 `json:"rate_gbps"`
	State      string  `json:"state"`
	Util       float64 `json:"util"`
	QueueBytes int64   `json:"queue_bytes"`
	TxPackets  int64   `json:"tx_pkts"`
	Drops      int64   `json:"drops"`
	Failed     bool    `json:"failed,omitempty"`
}

type snapSwitch struct {
	ID         int   `json:"sw"`
	RoutedPkts int64 `json:"routed_pkts"`
	QueueBytes int64 `json:"queue_bytes"`
	Dead       bool  `json:"dead,omitempty"`
}

type snapOutage struct {
	Link    string  `json:"link"`
	SinceUs float64 `json:"since_us"`
	DownUs  float64 `json:"down_us"`
}

type snapshotDoc struct {
	TUs      float64      `json:"t_us"`
	Workload WorkloadKind `json:"workload"`
	Policy   PolicyKind   `json:"policy"`
	Seed     int64        `json:"seed"`
	Power    struct {
		Measured float64 `json:"measured"`
		Ideal    float64 `json:"ideal"`
	} `json:"power"`
	Links    []snapLink   `json:"links"`
	Switches []snapSwitch `json:"switches"`
	Outages  []snapOutage `json:"outages"`
}

// snapshot assembles the per-entity state document at sim time now.
func (o *observer) snapshot(now sim.Time) *snapshotDoc {
	doc := &snapshotDoc{
		TUs:      now.Microseconds(),
		Workload: o.cfg.Workload,
		Policy:   o.cfg.Policy,
		Seed:     o.cfg.Seed,
	}
	var rel [2]float64
	o.powerMeter().Read(now, rel[:])
	doc.Power.Measured, doc.Power.Ideal = rel[0], rel[1]
	isc := o.net.InterSwitchChannels()
	doc.Links = make([]snapLink, 0, len(isc))
	for _, ch := range isc {
		doc.Links = append(doc.Links, snapLink{
			Link:       ch.Label(),
			RateGbps:   ch.L.Rate().GbpsF(),
			State:      ch.L.State(now).String(),
			Util:       ch.L.MeanUtilization(now),
			QueueBytes: o.net.Switches[ch.Src.ID].QueueBytes(ch.Src.Port),
			TxPackets:  ch.L.TotalPackets(),
			Drops:      ch.Drops(),
			Failed:     ch.Failed(),
		})
	}
	radix := o.net.T.Radix()
	doc.Switches = make([]snapSwitch, 0, len(o.net.Switches))
	for i, s := range o.net.Switches {
		var queued int64
		for p := 0; p < radix; p++ {
			queued += s.QueueBytes(p)
		}
		doc.Switches = append(doc.Switches, snapSwitch{
			ID:         i,
			RoutedPkts: s.RoutedPackets(),
			QueueBytes: queued,
			Dead:       o.net.SwitchDead(i),
		})
	}
	doc.Outages = []snapOutage{}
	if o.inj != nil {
		for _, out := range o.inj.Outages() {
			doc.Outages = append(doc.Outages, snapOutage{
				Link:    out.Link,
				SinceUs: out.Since.Microseconds(),
				DownUs:  (now - out.Since).Microseconds(),
			})
		}
	}
	return doc
}

// finish takes the final (possibly partial-interval) samples, flushes
// and closes the metrics stream, writes the heatmap/histogram files,
// and publishes the final inspection documents. Safe on a nil observer
// and idempotent: Run calls it on error paths too, so a canceled run
// still flushes and closes everything it opened — its metrics file
// keeps every row sampled so far — and write failures (including a
// sampler that latched an earlier disk-full error) are all reported.
func (o *observer) finish(now sim.Time) error {
	if o == nil || o.done {
		return nil
	}
	o.done = true
	var errs []error
	// The sampler streamed into the metrics file, if any; Finish writes
	// its last row, takes the heatmap's partial last column and
	// publishes the final inspection documents, so it runs either way.
	err := o.sampler.Finish(now)
	errs = append(errs, o.out.write(outMetrics, "metrics", func(io.Writer) error { return err }))
	if o.heatmap != nil {
		errs = append(errs, o.out.write(outHeatmap, "heatmap", o.heatmap.WriteCSV),
			o.out.write(outHist, "utilization histogram", func(w io.Writer) error {
				hist, err := o.heatmap.UtilizationHistogram(utilBuckets)
				if err != nil {
					return err
				}
				return hist.WriteCSV(w)
			}))
	}
	return errors.Join(errs...)
}

// The run's output files, indexed in Config.outputPaths order. Every
// one is created when the run is set up, so a bad path fails before the
// first event. The metrics file streams as the run goes; collect writes
// the others when it ends.
const (
	outMetrics = iota
	outTrace
	outHeatmap
	outHist
	outProfile
	outFlows
	numOutputs
)

// outputs holds a run's open output files, nil where the config names
// no path.
type outputs [numOutputs]*os.File

// openOutputs creates every output file cfg names, closing the ones
// already created when one fails.
func openOutputs(cfg *Config) (outputs, error) {
	var out outputs
	for i, path := range cfg.outputPaths() {
		if *path == "" {
			continue
		}
		f, err := os.Create(*path)
		if err != nil {
			out.close()
			return outputs{}, fmt.Errorf("epnet: creating output: %w", err)
		}
		out[i] = f
	}
	return out, nil
}

// write renders output i into its file and closes it, reporting write
// and close errors alike; a no-op when the run has no such file. what
// names the output in the error.
func (out *outputs) write(i int, what string, render func(io.Writer) error) error {
	f := out[i]
	if f == nil {
		return nil
	}
	out[i] = nil
	err := render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("epnet: writing %s: %w", what, err)
	}
	return nil
}

// close closes every file not yet written.
func (out *outputs) close() {
	for i, f := range out {
		if f != nil {
			f.Close()
			out[i] = nil
		}
	}
}

// jsonOrCSV returns the writer an output path asks for: csv when the
// path ends in ".csv", indented JSON of v otherwise.
func jsonOrCSV(path string, v any, csv func(io.Writer) error) func(io.Writer) error {
	if strings.HasSuffix(path, ".csv") {
		return csv
	}
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}
