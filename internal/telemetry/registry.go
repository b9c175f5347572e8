// Package telemetry is the simulator's observability substrate: a
// metrics registry components register named counters and gauges into,
// a periodic sampler that streams those metrics as CSV or JSON Lines
// rows as they are taken, and the flow tracer, whose report renders as
// JSON, CSV, text, and Chrome trace_event JSON for chrome://tracing or
// Perfetto.
//
// The design constraint throughout is that the instrumented hot path
// pays nothing when telemetry is disabled: counters and gauges are
// nil-safe (a nil *Counter's Inc is a branch and a return), metric
// reads happen only when the sampler fires, and flow tracing sits
// behind a single nil check at each instrumentation point. Increments
// and sets never allocate (see BenchmarkCounterInc and the
// zero-allocation test).
//
// Metric names are stable and hierarchical, dot-separated from coarse
// to fine: "net.delivered_pkts". Per-entity series use labeled
// families: one family name plus key=value labels, e.g.
// "link.rate_gbps{link=s0p1-s1p0}", registered as a Block that one call
// fills (or through a CounterVec, for handles a hot path increments).
// Labels are joined with semicolons in the flat identity string so CSV
// headers stay comma-free; the Prometheus renderer re-emits them in
// standard {k="v",...} syntax.
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

// Family is one metric family of a Block: its name, and whether
// exporters type it as a counter rather than a gauge.
type Family struct {
	Name    string
	Counter bool
}

// Block is a group of metric families over the same entities — the
// per-link rate, state and utilization of every channel, say — that
// registers as one unit and is read by one call. Keys are the label
// keys every family shares; entity e's label values are
// Values[e*len(Keys) : (e+1)*len(Keys)], so a block has
// len(Values)/len(Keys) entities, or exactly one when it has no keys.
// The block's series are family-major: family f's series for entity e
// is column f*entities+e.
//
// Fill receives one column per series and must set every one. It runs
// at every read (sampler tick, Prometheus render), so a component can
// sweep its entities once and write all of an entity's families as it
// passes.
type Block struct {
	Families []Family
	Keys     []string
	Values   []string
	Fill     func(dst []float64)
}

// block is a registered Block.
type block struct {
	Block
	n int // entities
	// hist marks a histogram's .count/.sum scalars, which the
	// Prometheus renderer skips: the histogram itself renders as a full
	// _bucket/_sum/_count family.
	hist bool
}

// Registry holds named metrics in registration order, as blocks of
// columns. It is not safe for concurrent use: like the simulation
// engine it serves, it is single-threaded by design (each engine owns
// its own registry).
type Registry struct {
	ids    map[string]bool
	names  []string // every series' identity, in column order
	blocks []block
	hists  []*Histogram
	scrape []float64 // WritePrometheus's row, reused
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[string]bool)}
}

// identity renders the flat series identity used in CSV headers and
// for collision detection. Labels are ;-joined so the result never
// contains a comma: "name{k1=v1;k2=v2}".
func identity(name string, keys, values []string) string {
	if len(keys) == 0 {
		return name
	}
	n := len(name) + 1 + len(keys)
	for i, k := range keys {
		n += len(k) + 1 + len(values[i])
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// checkLabels rejects label keys/values that would corrupt the flat
// identity encoding or the CSV/Prometheus output.
func checkLabels(keys, values []string) error {
	for _, k := range keys {
		if k == "" {
			return fmt.Errorf("telemetry: empty label key")
		}
		if strings.ContainsAny(k, reserved) {
			return fmt.Errorf("telemetry: label key %s contains a reserved character", k)
		}
	}
	for i, v := range values {
		if strings.ContainsAny(v, reserved) {
			return fmt.Errorf("telemetry: label %s=%s contains a reserved character", keys[i%len(keys)], v)
		}
	}
	return nil
}

// reserved are the characters no label key or value may hold.
const reserved = ",;{}=\"\n"

// Block registers b. Every family name must be non-empty, the label
// values must come in whole entities, and no series may collide with
// one already registered; on error the registry is unchanged.
func (r *Registry) Block(b Block) error { return r.add(b, false) }

// add validates and appends one block, registering its series'
// identities family-major.
func (r *Registry) add(b Block, hist bool) error {
	if len(b.Families) == 0 || b.Fill == nil {
		return fmt.Errorf("telemetry: a block needs families and a fill function")
	}
	for _, f := range b.Families {
		if f.Name == "" {
			return fmt.Errorf("telemetry: empty metric name")
		}
	}
	nk, n := len(b.Keys), 1
	if nk > 0 {
		n = len(b.Values) / nk
	}
	if len(b.Values) != n*nk {
		return fmt.Errorf("telemetry: %s: %d label values do not divide into entities of %d keys",
			b.Families[0].Name, len(b.Values), nk)
	}
	if err := checkLabels(b.Keys, b.Values); err != nil {
		return err
	}
	start := len(r.names)
	for _, f := range b.Families {
		for e := 0; e < n; e++ {
			id := identity(f.Name, b.Keys, b.Values[e*nk:(e+1)*nk])
			if r.ids[id] {
				for _, added := range r.names[start:] {
					delete(r.ids, added)
				}
				r.names = r.names[:start]
				return fmt.Errorf("telemetry: metric %q already registered", id)
			}
			r.ids[id] = true
			r.names = append(r.names, id)
		}
	}
	r.blocks = append(r.blocks, block{Block: b, n: n, hist: hist})
	return nil
}

// scalar registers one series read by fn.
func (r *Registry) scalar(f Family, keys, values []string, fn func() float64) error {
	return r.add(Block{Families: []Family{f}, Keys: keys, Values: values,
		Fill: func(dst []float64) { dst[0] = fn() }}, false)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name string) (*Counter, error) {
	c := &Counter{}
	if err := r.scalar(Family{Name: name, Counter: true}, nil, nil, func() float64 { return float64(c.v) }); err != nil {
		return nil, err
	}
	return c, nil
}

// Gauge registers and returns a new settable gauge.
func (r *Registry) Gauge(name string) (*Gauge, error) {
	g := &Gauge{}
	if err := r.scalar(Family{Name: name}, nil, nil, func() float64 { return g.v }); err != nil {
		return nil, err
	}
	return g, nil
}

// GaugeFunc registers a gauge whose value is computed by fn at each
// sample — the usual form for exposing one piece of existing component
// state without touching the component's hot path. Per-entity state
// registers as a Block instead.
func (r *Registry) GaugeFunc(name string, fn func() float64) error {
	return r.scalar(Family{Name: name}, nil, nil, fn)
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.names) }

// Names returns the metric identities in registration order. Labeled
// series render as "name{k=v;k2=v2}" (comma-free, CSV-header safe).
func (r *Registry) Names() []string {
	return append([]string(nil), r.names...)
}

// ReadInto evaluates every metric into dst (which must have length
// Len()), in registration order: one fill call per block, so steady-
// state sampling neither allocates nor calls anything per series.
func (r *Registry) ReadInto(dst []float64) {
	for i := range r.blocks {
		b := &r.blocks[i]
		w := len(b.Families) * b.n
		b.Fill(dst[:w:w])
		dst = dst[w:]
	}
}
