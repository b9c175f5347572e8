// Package scenario defines the versioned JSON scenario DSL: named
// phases composing traffic (workload kind, load, diurnal/ramp load
// shapes), fault/chaos campaigns (scripted schedules, seeded-Poisson
// background faults, correlated failure groups), and policy switches
// at phase boundaries. The epnet package executes a parsed Scenario on
// the control-plane engine, where sharded runs are already quiescent,
// so scenario runs stay byte-identical across shard counts.
//
// A scenario document looks like:
//
//	{
//	  "version": 1,
//	  "name": "diurnal",
//	  "config": {"workload": "search"},
//	  "phases": [
//	    {"name": "day", "duration": "600us",
//	     "traffic": [{"workload": "search", "load": 0.12,
//	                  "shape": {"kind": "diurnal", "min_load": 0.02}}]},
//	    {"name": "night", "duration": "300us",
//	     "traffic": [{"workload": "search", "load": 0.03}],
//	     "policy": {"kind": "min-max"}}
//	  ]
//	}
//
// The "config" block carries overrides for the embedding run
// configuration (epnet.Config's strict JSON form); this package treats
// it as opaque bytes so that the dependency points from epnet to
// scenario, never back.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"epnet/internal/fault"
)

// Version is the only scenario schema version this library reads.
const Version = 1

// Duration is a time.Duration that marshals to JSON as a Go duration
// string ("250us", "1.5ms") and unmarshals from either a string or a
// bare number of nanoseconds.
type Duration time.Duration

// D converts to the standard library type.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String formats like time.Duration but ASCII-only ("µs" -> "us"), so
// scenario files round-trip through any editor or shell.
func (d Duration) String() string {
	return strings.ReplaceAll(time.Duration(d).String(), "µ", "u")
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] != '"' {
		var ns int64
		if err := json.Unmarshal(data, &ns); err != nil {
			return fmt.Errorf("duration %s: want a string like \"250us\" or nanoseconds", data)
		}
		*d = Duration(ns)
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("duration %q: %v", s, err)
	}
	*d = Duration(v)
	return nil
}

// Scenario is one parsed scenario document.
type Scenario struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	Notes   string `json:"notes,omitempty"`

	// Config carries overrides for the run configuration in
	// epnet.Config's strict JSON form. Opaque at this layer; the
	// embedding package applies it at load time.
	Config json.RawMessage `json:"config,omitempty"`

	Phases []Phase `json:"phases"`
}

// Phase is one named slice of the run's timeline. Phases execute in
// order; each phase's traffic streams inject only inside its window
// (in-flight packets drain naturally into the next phase). A phase
// with no traffic is a quiet (drain) interval.
type Phase struct {
	Name     string   `json:"name"`
	Duration Duration `json:"duration"`

	// Traffic lists the streams active during this phase. Multiple
	// entries run concurrently (mixed tenants), each on its own
	// derived seed.
	Traffic []Traffic `json:"traffic,omitempty"`

	// Policy, when set, switches the link-control policy at this
	// phase's start. Nil keeps the previous phase's policy.
	Policy *Policy `json:"policy,omitempty"`

	// Chaos, when set, runs a fault campaign inside this phase's
	// window.
	Chaos *Chaos `json:"chaos,omitempty"`
}

// Traffic is one workload stream inside a phase.
type Traffic struct {
	// Workload is a workload kind from Kinds (trace replay is not
	// available inside scenarios).
	Workload string `json:"workload"`
	// Load overrides the workload's default mean utilization when
	// positive. Shaped traffic requires it (the shape needs a peak).
	Load float64 `json:"load,omitempty"`
	// Shape modulates the load across the phase; nil or "flat" offers
	// Load for the whole phase.
	Shape *Shape `json:"shape,omitempty"`
}

// Shape kinds.
const (
	ShapeFlat    = "flat"    // constant load (the default)
	ShapeRamp    = "ramp"    // linear min_load -> load across the phase
	ShapeDiurnal = "diurnal" // raised cosine between min_load and load
)

// DefaultShapeSteps is the staircase resolution for shaped traffic
// when Steps is unset.
const DefaultShapeSteps = 8

// Shape modulates a stream's load across its phase as a staircase:
// the phase is cut into Steps equal slices and each slice offers the
// shape's load at the slice midpoint. The staircase keeps generators
// allocation-free per packet — each slice is one ordinary streaming
// generator at a fixed load.
type Shape struct {
	Kind string `json:"kind"`
	// MinLoad is the shape's trough (default 0). A slice whose load
	// rounds to zero injects nothing.
	MinLoad float64 `json:"min_load,omitempty"`
	// Period is the diurnal cycle length (default: the whole phase).
	Period Duration `json:"period,omitempty"`
	// Steps is the staircase resolution (default DefaultShapeSteps).
	Steps int `json:"steps,omitempty"`
}

// Policy switches the link-control policy at a phase boundary. Kind is
// an epnet.PolicyKind; validated by the embedding package, which owns
// the enum.
type Policy struct {
	Kind string `json:"kind"`
	// TargetUtil overrides the target channel utilization when
	// positive; zero keeps the run-level target.
	TargetUtil float64 `json:"target_util,omitempty"`
}

// Chaos is one phase's fault campaign. All three mechanisms compose;
// offsets in Script are relative to the phase start, and the random
// processes stop generating at the phase end (repairs may land later).
type Chaos struct {
	// Script is a deterministic fault schedule in internal/fault's
	// grammar ("50us fail-link s0p8; 400us repair-link s0p8").
	Script string `json:"script,omitempty"`
	// Rate, when positive, runs the seeded-Poisson single-link fault
	// process at this many expected events per simulated millisecond,
	// with mean repair time MTTR (default 200us).
	Rate float64  `json:"rate,omitempty"`
	MTTR Duration `json:"mttr,omitempty"`
	// Groups declares correlated failure domains; GroupRate, when
	// positive, fails whole groups at this expected rate per
	// simulated millisecond, repairing each after a mean GroupMTTR
	// (default 2x MTTR's default).
	Groups    []Group  `json:"groups,omitempty"`
	GroupRate float64  `json:"group_rate,omitempty"`
	GroupMTTR Duration `json:"group_mttr,omitempty"`
}

// Group kinds.
const (
	// GroupRackPower partitions switches into domains of Size
	// consecutive switches — a shared rack power feed.
	GroupRackPower = "rack-power"
	// GroupOpticsBundle partitions inter-switch links into bundles of
	// Size consecutive pairs (wiring order) — fibers sharing one
	// ribbon/amplifier.
	GroupOpticsBundle = "optics-bundle"
	// GroupSwitches is an explicit switch list.
	GroupSwitches = "switches"
)

// Group declares one class of correlated failure domains.
type Group struct {
	Kind string `json:"kind"`
	// Size is the domain size for rack-power / optics-bundle kinds.
	Size int `json:"size,omitempty"`
	// Switches is the explicit member list for the "switches" kind.
	Switches []int `json:"switches,omitempty"`
}

// Error is a scenario parse or validation error, carrying a JSON-ish
// path to the offending element.
type Error struct {
	Path   string // e.g. "phases[2].traffic[0].workload"
	Reason string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Path == "" {
		return "scenario: " + e.Reason
	}
	return fmt.Sprintf("scenario: %s: %s", e.Path, e.Reason)
}

func errf(path, format string, args ...any) error {
	return &Error{Path: path, Reason: fmt.Sprintf(format, args...)}
}

// Parse decodes a scenario document strictly — unknown fields anywhere
// in the document are rejected — and validates it.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		if f, ok := unknownField(err); ok {
			return nil, errf(f, "unknown field")
		}
		return nil, errf("", "%v", err)
	}
	// Trailing garbage after the document is a malformed file, not a
	// second scenario.
	if _, err := dec.Token(); err != io.EOF {
		return nil, errf("", "trailing data after scenario document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// unknownField extracts the field name from encoding/json's
// DisallowUnknownFields error, which is only exposed as text.
func unknownField(err error) (string, bool) {
	const marker = `unknown field "`
	msg := err.Error()
	i := strings.Index(msg, marker)
	if i < 0 {
		return "", false
	}
	rest := msg[i+len(marker):]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j], true
	}
	return "", false
}

// Validate checks the scenario's structure: version, unique non-empty
// phase names (seed derivation keys on them), positive durations,
// known workload kinds and shapes, and parsable chaos campaigns.
// Policy kinds are validated by the embedding package, which owns that
// enum.
func (s *Scenario) Validate() error {
	if s.Version != Version {
		return errf("version", "unsupported version %d (this library reads %d)", s.Version, Version)
	}
	if len(s.Phases) == 0 {
		return errf("phases", "at least one phase is required")
	}
	seen := make(map[string]bool, len(s.Phases))
	for i := range s.Phases {
		p := &s.Phases[i]
		path := fmt.Sprintf("phases[%d]", i)
		if p.Name == "" {
			return errf(path+".name", "phase names are required (seeds derive from them)")
		}
		if seen[p.Name] {
			return errf(path+".name", "duplicate phase name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Duration <= 0 {
			return errf(path+".duration", "must be positive, got %v", p.Duration)
		}
		for j := range p.Traffic {
			if err := p.Traffic[j].validate(fmt.Sprintf("%s.traffic[%d]", path, j)); err != nil {
				return err
			}
		}
		if p.Chaos != nil {
			if err := p.Chaos.validate(path + ".chaos"); err != nil {
				return err
			}
		}
		if p.Policy != nil {
			if p.Policy.Kind == "" {
				return errf(path+".policy.kind", "policy switches need a kind")
			}
			if p.Policy.TargetUtil < 0 || p.Policy.TargetUtil > 1 {
				return errf(path+".policy.target_util", "%v out of [0,1]", p.Policy.TargetUtil)
			}
		}
	}
	return nil
}

func (t *Traffic) validate(path string) error {
	if !KnownKind(t.Workload) {
		return errf(path+".workload", "unknown workload %q (have %s)",
			t.Workload, strings.Join(Kinds(), " | "))
	}
	if t.Load < 0 || t.Load >= 1 {
		return errf(path+".load", "%v out of [0,1)", t.Load)
	}
	if sh := t.Shape; sh != nil {
		switch sh.Kind {
		case ShapeFlat, ShapeRamp, ShapeDiurnal, "":
		default:
			return errf(path+".shape.kind", "unknown shape %q (have flat | ramp | diurnal)", sh.Kind)
		}
		if sh.Kind == ShapeRamp || sh.Kind == ShapeDiurnal {
			if t.Load <= 0 {
				return errf(path+".load", "shaped traffic needs an explicit peak load")
			}
			if sh.MinLoad < 0 || sh.MinLoad > t.Load {
				return errf(path+".shape.min_load", "%v out of [0, load=%v]", sh.MinLoad, t.Load)
			}
		}
		if sh.Steps < 0 {
			return errf(path+".shape.steps", "must be >= 0, got %d", sh.Steps)
		}
		if sh.Period < 0 {
			return errf(path+".shape.period", "must be >= 0, got %v", sh.Period)
		}
	}
	return nil
}

func (c *Chaos) validate(path string) error {
	if c.Script == "" && c.Rate <= 0 && c.GroupRate <= 0 {
		return errf(path, "empty chaos campaign (set script, rate, or group_rate)")
	}
	if c.Script != "" {
		if _, err := fault.ParseSchedule(c.Script); err != nil {
			return errf(path+".script", "%v", err)
		}
	}
	if c.Rate < 0 {
		return errf(path+".rate", "must be >= 0, got %v", c.Rate)
	}
	if c.MTTR < 0 {
		return errf(path+".mttr", "must be >= 0, got %v", c.MTTR)
	}
	if c.GroupRate < 0 {
		return errf(path+".group_rate", "must be >= 0, got %v", c.GroupRate)
	}
	if c.GroupMTTR < 0 {
		return errf(path+".group_mttr", "must be >= 0, got %v", c.GroupMTTR)
	}
	if c.GroupRate > 0 && len(c.Groups) == 0 {
		return errf(path+".group_rate", "needs at least one group declaration")
	}
	for i := range c.Groups {
		g := &c.Groups[i]
		gp := fmt.Sprintf("%s.groups[%d]", path, i)
		switch g.Kind {
		case GroupRackPower, GroupOpticsBundle:
			if g.Size < 1 {
				return errf(gp+".size", "must be >= 1, got %d", g.Size)
			}
		case GroupSwitches:
			if len(g.Switches) == 0 {
				return errf(gp+".switches", "explicit switch groups need members")
			}
		default:
			return errf(gp+".kind", "unknown group kind %q (have rack-power | optics-bundle | switches)", g.Kind)
		}
	}
	return nil
}

// TotalDuration sums the phase durations.
func (s *Scenario) TotalDuration() time.Duration {
	var total time.Duration
	for _, p := range s.Phases {
		total += p.Duration.D()
	}
	return total
}
