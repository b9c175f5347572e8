package epnet

import (
	"errors"
	"fmt"
	"time"
)

// Sentinel errors for configuration problems. Every error returned by
// Config.Validate (and therefore by Run for a bad configuration)
// matches ErrInvalidConfig with errors.Is; the enum-typo sentinels
// additionally match when the corresponding field names an unknown
// variant:
//
//	cfg.Policy = "magick"
//	_, err := epnet.Run(cfg)
//	errors.Is(err, epnet.ErrInvalidConfig) // true
//	errors.Is(err, epnet.ErrUnknownPolicy) // true
//	var fe *epnet.ConfigFieldError
//	errors.As(err, &fe)                    // fe.Field == "Policy"
var (
	// ErrInvalidConfig is the umbrella sentinel every configuration
	// error wraps.
	ErrInvalidConfig = errors.New("invalid configuration")
	// ErrUnknownTopology marks a Topology value outside the TopologyKind
	// enum.
	ErrUnknownTopology = errors.New("unknown topology")
	// ErrUnknownWorkload marks a Workload value outside the WorkloadKind
	// enum.
	ErrUnknownWorkload = errors.New("unknown workload")
	// ErrUnknownPolicy marks a Policy value outside the PolicyKind enum.
	ErrUnknownPolicy = errors.New("unknown policy")
	// ErrUnknownRouting marks a Routing value outside the RoutingKind
	// enum.
	ErrUnknownRouting = errors.New("unknown routing")
)

// ConfigFieldError reports which Config field failed validation and
// why. It wraps ErrInvalidConfig (and, for enum fields, the matching
// ErrUnknown* sentinel), so callers can route on errors.Is while
// errors.As recovers the offending field name for messages or forms.
type ConfigFieldError struct {
	// Field is the Go field name within Config ("Policy", "TargetUtil",
	// ...). Combined validations name the primary field.
	Field string
	// Reason is a human-readable description including the offending
	// value.
	Reason string

	sentinel error // optional extra sentinel (ErrUnknownPolicy, ...)
}

// Error implements error.
func (e *ConfigFieldError) Error() string {
	return fmt.Sprintf("epnet: invalid Config.%s: %s", e.Field, e.Reason)
}

// Unwrap exposes the wrapped sentinels to errors.Is/As.
func (e *ConfigFieldError) Unwrap() []error {
	if e.sentinel != nil {
		return []error{ErrInvalidConfig, e.sentinel}
	}
	return []error{ErrInvalidConfig}
}

// fieldErr builds a ConfigFieldError for field with a formatted reason.
func fieldErr(field, format string, args ...any) error {
	return &ConfigFieldError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// clockErr reports a duration past the simulator clock's range.
func clockErr(field string, d time.Duration) error {
	return fieldErr(field, "%v exceeds the simulator clock's range of %v", d, maxSimDuration)
}

// enumErr is fieldErr plus an extra sentinel for unknown enum values.
func enumErr(sentinel error, field, format string, args ...any) error {
	return &ConfigFieldError{
		Field:    field,
		Reason:   fmt.Sprintf(format, args...),
		sentinel: sentinel,
	}
}
