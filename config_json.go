package epnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"time"

	"epnet/internal/scenario"
)

// Duration is the JSON form of every Config duration: a Go duration
// string ("250us", "1.5ms") on the wire, a time.Duration in hand. Bare
// numbers are accepted on input as nanoseconds.
type Duration = scenario.Duration

// wireType is Config's JSON form, derived from Config itself: the same
// fields in the same order under their json tags, except that each
// time.Duration is carried as Duration so that it reads and writes as
// "250us". Inspector's "-" tag keeps it off the wire.
var wireType = func() reflect.Type {
	t := reflect.TypeOf(Config{})
	fields := make([]reflect.StructField, t.NumField())
	for i := range fields {
		fields[i] = t.Field(i)
		if fields[i].Type == reflect.TypeOf(time.Duration(0)) {
			fields[i].Type = reflect.TypeOf(Duration(0))
		}
	}
	return reflect.StructOf(fields)
}()

// copyFields copies src into dst field by field; one is a Config, the
// other a wireType value.
func copyFields(dst, src reflect.Value) {
	for i := 0; i < src.NumField(); i++ {
		dst.Field(i).Set(src.Field(i).Convert(dst.Field(i).Type()))
	}
}

// MarshalJSON implements json.Marshaler with the snake_case wire form.
func (c Config) MarshalJSON() ([]byte, error) {
	w := reflect.New(wireType).Elem()
	copyFields(w, reflect.ValueOf(c))
	return json.Marshal(w.Interface())
}

// UnmarshalJSON implements json.Unmarshaler strictly: unknown fields
// are rejected with a *ConfigFieldError naming the offender (so typos
// in a config file fail loudly instead of silently running defaults),
// and fields absent from the document keep the receiver's values —
// partial documents are overlays, which is what lets a scenario's
// config block override just the knobs it cares about.
func (c *Config) UnmarshalJSON(data []byte) error {
	w := reflect.New(wireType)
	copyFields(w.Elem(), reflect.ValueOf(c).Elem())
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(w.Interface()); err != nil {
		return decodeErr(err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fieldErr("Config", "trailing data after the config object")
	}
	copyFields(reflect.ValueOf(c).Elem(), w.Elem())
	return nil
}

// decodeErr names the field a decoding error is about. An unknown key
// is named as written. A value of the wrong JSON type is named by the
// Go field its top-level key belongs to, so keys nested under
// "scenario" name Scenario. Other errors carry no key and name Config;
// a malformed duration is one.
func decodeErr(err error) error {
	if f := unknownJSONField(err); f != "" {
		return fieldErr(f, "unknown config field %q", f)
	}
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) {
		key, _, _ := strings.Cut(te.Field, ".")
		for i := 0; i < wireType.NumField(); i++ {
			f := wireType.Field(i)
			if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == key {
				return fieldErr(f.Name, "%q: want %v, got JSON %s", te.Field, te.Type, te.Value)
			}
		}
	}
	return fieldErr("Config", "%v", err)
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
