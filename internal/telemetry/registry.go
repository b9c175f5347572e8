// Package telemetry is the simulator's observability substrate: a
// metrics registry components register named counters and gauges into,
// a periodic sampler that streams those metrics as CSV or JSON Lines
// rows as they are taken, and an event tracer emitting Chrome
// trace_event JSON for inspection in chrome://tracing or Perfetto.
//
// The design constraint throughout is that the instrumented hot path
// pays nothing when telemetry is disabled: counters and gauges are
// nil-safe (a nil *Counter's Inc is a branch and a return), metric
// reads happen only when the sampler fires, and trace emission sits
// behind a single nil check at each instrumentation point. Increments
// and sets never allocate (see BenchmarkCounterInc and the
// zero-allocation test).
//
// Metric names are stable and hierarchical, dot-separated from coarse
// to fine: "net.delivered_pkts". Per-entity series use labeled vectors
// (CounterVec/GaugeVec): one family name plus key=value labels, e.g.
// "link.rate_gbps{link=s0p1-s1p0}". Labels are joined with semicolons
// in the flat identity string so CSV headers stay comma-free; the
// Prometheus renderer re-emits them in standard {k="v",...} syntax.
// Registering the same identity twice is an error — collisions
// indicate two components fighting over one series.
package telemetry

import (
	"fmt"
	"strings"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; a nil Counter is safe to increment (and stays zero),
// so instrumented code can hold a nil pointer when telemetry is off.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a set-to-current-value metric. Like Counter, a nil Gauge
// accepts Set calls and reads as zero.
type Gauge struct {
	v float64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the last value set.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Label is one key=value dimension attached to a metric, e.g.
// {Key: "link", Value: "s0p1-s1p0"}.
type Label struct {
	Key, Value string
}

// metricKind distinguishes how a registered scalar should be rendered
// by format-aware exporters (the CSV sampler treats them all alike).
type metricKind uint8

const (
	kindGauge metricKind = iota
	kindCounter
	// kindHistPart marks the .count/.sum scalars a Histogram registers
	// for CSV sampling; the Prometheus renderer skips them because the
	// histogram itself renders as a full _bucket/_sum/_count family.
	kindHistPart
)

// entry is one registered metric: a stable identity (family name plus
// labels) and a read function evaluated at sampling time.
type entry struct {
	name   string // family name, no labels
	labels []Label
	id     string // rendered identity: name or name{k=v;k2=v2}
	kind   metricKind
	read   func() float64
}

// Registry holds named metrics in registration order. It is not safe
// for concurrent use: like the simulation engine it serves, it is
// single-threaded by design (each engine owns its own registry).
type Registry struct {
	ids     map[string]bool
	entries []entry
	hists   []*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[string]bool)}
}

// identity renders the flat series identity used in CSV headers and
// for collision detection. Labels are ;-joined so the result never
// contains a comma: "name{k1=v1;k2=v2}".
func identity(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// checkLabels rejects label keys/values that would corrupt the flat
// identity encoding or the CSV/Prometheus output.
func checkLabels(labels []Label) error {
	for _, l := range labels {
		if l.Key == "" {
			return fmt.Errorf("telemetry: empty label key")
		}
		for _, s := range [2]string{l.Key, l.Value} {
			if strings.ContainsAny(s, ",;{}=\"\n") {
				return fmt.Errorf("telemetry: label %s=%s contains a reserved character", l.Key, l.Value)
			}
		}
	}
	return nil
}

// register validates the identity and appends the metric.
func (r *Registry) register(name string, labels []Label, kind metricKind, read func() float64) error {
	if name == "" {
		return fmt.Errorf("telemetry: empty metric name")
	}
	if err := checkLabels(labels); err != nil {
		return err
	}
	id := identity(name, labels)
	if r.ids[id] {
		return fmt.Errorf("telemetry: metric %q already registered", id)
	}
	r.ids[id] = true
	r.entries = append(r.entries, entry{name: name, labels: labels, id: id, kind: kind, read: read})
	return nil
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name string) (*Counter, error) {
	c := &Counter{}
	if err := r.register(name, nil, kindCounter, func() float64 { return float64(c.v) }); err != nil {
		return nil, err
	}
	return c, nil
}

// Gauge registers and returns a new settable gauge.
func (r *Registry) Gauge(name string) (*Gauge, error) {
	g := &Gauge{}
	if err := r.register(name, nil, kindGauge, func() float64 { return g.v }); err != nil {
		return nil, err
	}
	return g, nil
}

// GaugeFunc registers a gauge whose value is computed by fn at each
// sample — the usual form for exposing existing component state (queue
// depths, link rates) without touching the component's hot path.
func (r *Registry) GaugeFunc(name string, fn func() float64) error {
	return r.register(name, nil, kindGauge, fn)
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.entries) }

// Names returns the metric identities in registration order. Labeled
// series render as "name{k=v;k2=v2}" (comma-free, CSV-header safe).
func (r *Registry) Names() []string {
	out := make([]string, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.id
	}
	return out
}

// ReadInto evaluates every metric into dst (which must have length
// Len()), in registration order. It reuses dst so steady-state sampling
// does not allocate per metric.
func (r *Registry) ReadInto(dst []float64) {
	for i, e := range r.entries {
		dst[i] = e.read()
	}
}
