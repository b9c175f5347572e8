package telemetry

import "fmt"

// CounterVec is a family of counters sharing one metric name and a
// fixed set of label keys, distinguished by label values — e.g.
// "ctrl.retunes" keyed by "dir". With resolves one labeled series to
// a plain *Counter handle up front, so the instrumented hot path pays
// exactly what an unlabeled counter costs: a nil check and an
// increment, zero allocations and zero map lookups per event.
type CounterVec struct {
	reg  *Registry
	name string
	keys []string
}

// CounterVec returns a counter family with the given label keys. The
// family itself is cheap; series are created by With.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	return &CounterVec{reg: r, name: name, keys: keys}
}

// With registers and returns the series for the given label values.
// Each distinct value tuple may be resolved once; a second resolution
// is a collision error, like any duplicate registration.
func (v *CounterVec) With(values ...string) (*Counter, error) {
	if len(values) != len(v.keys) {
		return nil, fmt.Errorf("telemetry: %s expects %d label values, got %d", v.name, len(v.keys), len(values))
	}
	c := &Counter{}
	if err := v.reg.scalar(Family{Name: v.name, Counter: true}, v.keys, values, func() float64 { return float64(c.v) }); err != nil {
		return nil, err
	}
	return c, nil
}
