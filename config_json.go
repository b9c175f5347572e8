package epnet

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"time"

	"epnet/internal/scenario"
)

// Duration is the JSON form of every Config duration: a Go duration
// string ("250us", "1.5ms") on the wire, a time.Duration in hand. Bare
// numbers are accepted on input as nanoseconds.
type Duration = scenario.Duration

// configJSON is Config's wire form: snake_case keys, durations as
// strings. It exists so Config's JSON schema is explicit and versioned
// by this one declaration rather than implied by Go field names.
// Inspector is runtime wiring and has no wire form.
type configJSON struct {
	Topology TopologyKind `json:"topology,omitempty"`
	K        int          `json:"k,omitempty"`
	N        int          `json:"n,omitempty"`
	C        int          `json:"c,omitempty"`

	Workload  WorkloadKind `json:"workload,omitempty"`
	Load      float64      `json:"load,omitempty"`
	TracePath string       `json:"trace_path,omitempty"`

	Policy     PolicyKind `json:"policy,omitempty"`
	TargetUtil float64    `json:"target_util,omitempty"`

	Independent           bool        `json:"independent,omitempty"`
	Routing               RoutingKind `json:"routing,omitempty"`
	ModeAwareReactivation bool        `json:"mode_aware_reactivation,omitempty"`

	Reactivation Duration `json:"reactivation,omitempty"`
	Epoch        Duration `json:"epoch,omitempty"`

	DynTopo bool `json:"dyn_topo,omitempty"`

	Warmup   Duration `json:"warmup,omitempty"`
	Duration Duration `json:"duration,omitempty"`

	Seed      int64 `json:"seed,omitempty"`
	Shards    int   `json:"shards,omitempty"`
	MaxPacket int   `json:"max_packet,omitempty"`

	PowerSampleEvery Duration `json:"power_sample_every,omitempty"`
	MetricsOut       string   `json:"metrics_out,omitempty"`
	SampleInterval   Duration `json:"sample_interval,omitempty"`
	TraceOut         string   `json:"trace_out,omitempty"`
	HeatmapOut       string   `json:"heatmap_out,omitempty"`
	HistOut          string   `json:"hist_out,omitempty"`
	Attribution      bool     `json:"attribution,omitempty"`
	Profile          bool     `json:"profile,omitempty"`
	ProfileOut       string   `json:"profile_out,omitempty"`
	FlowTrace        bool     `json:"flow_trace,omitempty"`
	FlowSample       float64  `json:"flow_sample,omitempty"`
	FlowsOut         string   `json:"flows_out,omitempty"`

	Faults    string   `json:"faults,omitempty"`
	FaultRate float64  `json:"fault_rate,omitempty"`
	FaultMTTR Duration `json:"fault_mttr,omitempty"`

	Scenario *Scenario `json:"scenario,omitempty"`
}

// wire converts the in-memory Config to its wire form.
func (c Config) wire() configJSON {
	return configJSON{
		Topology:              c.Topology,
		K:                     c.K,
		N:                     c.N,
		C:                     c.C,
		Workload:              c.Workload,
		Load:                  c.Load,
		TracePath:             c.TracePath,
		Policy:                c.Policy,
		TargetUtil:            c.TargetUtil,
		Independent:           c.Independent,
		Routing:               c.Routing,
		ModeAwareReactivation: c.ModeAwareReactivation,
		Reactivation:          Duration(c.Reactivation),
		Epoch:                 Duration(c.Epoch),
		DynTopo:               c.DynTopo,
		Warmup:                Duration(c.Warmup),
		Duration:              Duration(c.Duration),
		Seed:                  c.Seed,
		Shards:                c.Shards,
		MaxPacket:             c.MaxPacket,
		PowerSampleEvery:      Duration(c.PowerSampleEvery),
		MetricsOut:            c.MetricsOut,
		SampleInterval:        Duration(c.SampleInterval),
		TraceOut:              c.TraceOut,
		HeatmapOut:            c.HeatmapOut,
		HistOut:               c.HistOut,
		Attribution:           c.Attribution,
		Profile:               c.Profile,
		ProfileOut:            c.ProfileOut,
		FlowTrace:             c.FlowTrace,
		FlowSample:            c.FlowSample,
		FlowsOut:              c.FlowsOut,
		Faults:                c.Faults,
		FaultRate:             c.FaultRate,
		FaultMTTR:             Duration(c.FaultMTTR),
		Scenario:              c.Scenario,
	}
}

// unwire copies the wire form back into the Config.
func (c *Config) unwire(w configJSON) {
	c.Topology = w.Topology
	c.K = w.K
	c.N = w.N
	c.C = w.C
	c.Workload = w.Workload
	c.Load = w.Load
	c.TracePath = w.TracePath
	c.Policy = w.Policy
	c.TargetUtil = w.TargetUtil
	c.Independent = w.Independent
	c.Routing = w.Routing
	c.ModeAwareReactivation = w.ModeAwareReactivation
	c.Reactivation = time.Duration(w.Reactivation)
	c.Epoch = time.Duration(w.Epoch)
	c.DynTopo = w.DynTopo
	c.Warmup = time.Duration(w.Warmup)
	c.Duration = time.Duration(w.Duration)
	c.Seed = w.Seed
	c.Shards = w.Shards
	c.MaxPacket = w.MaxPacket
	c.PowerSampleEvery = time.Duration(w.PowerSampleEvery)
	c.MetricsOut = w.MetricsOut
	c.SampleInterval = time.Duration(w.SampleInterval)
	c.TraceOut = w.TraceOut
	c.HeatmapOut = w.HeatmapOut
	c.HistOut = w.HistOut
	c.Attribution = w.Attribution
	c.Profile = w.Profile
	c.ProfileOut = w.ProfileOut
	c.FlowTrace = w.FlowTrace
	c.FlowSample = w.FlowSample
	c.FlowsOut = w.FlowsOut
	c.Faults = w.Faults
	c.FaultRate = w.FaultRate
	c.FaultMTTR = time.Duration(w.FaultMTTR)
	c.Scenario = w.Scenario
}

// MarshalJSON implements json.Marshaler with the snake_case wire form.
func (c Config) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.wire())
}

// UnmarshalJSON implements json.Unmarshaler strictly: unknown fields
// are rejected with a *ConfigFieldError naming the offender (so typos
// in a config file fail loudly instead of silently running defaults),
// and fields absent from the document keep the receiver's values —
// partial documents are overlays, which is what lets a scenario's
// config block override just the knobs it cares about.
func (c *Config) UnmarshalJSON(data []byte) error {
	w := c.wire()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		if f := unknownJSONField(err); f != "" {
			return fieldErr(f, "unknown config field %q", f)
		}
		return fieldErr("Config", "%v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fieldErr("Config", "trailing data after the config object")
	}
	c.unwire(w)
	return nil
}

// unknownJSONField extracts the field name from encoding/json's
// DisallowUnknownFields error, which has no structured form.
func unknownJSONField(err error) string {
	const marker = `unknown field "`
	msg := err.Error()
	i := strings.Index(msg, marker)
	if i < 0 {
		return ""
	}
	rest := msg[i+len(marker):]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}
