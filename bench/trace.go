package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Times are Unix nanoseconds, so spans recorded in
// child processes line up with the parent's on one timeline.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Rep    int    `json:"rep"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one pointer test per call.
type tracer struct {
	rep   int
	spans []span
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep, Name: name, Start: time.Now().UnixNano()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Now().UnixNano()
}

// timed runs fn inside a span named name and returns how long it took.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// adopt appends spans recorded elsewhere (a child process) under parent,
// renumbering them after the spans already held.
func (t *tracer) adopt(spans []span, parent, rep int) {
	if t == nil {
		return
	}
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Rep = rep
		t.spans = append(t.spans, s)
	}
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, one thread per repetition), loadable in chrome://tracing or
// ui.perfetto.dev.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var origin int64
	for i, s := range t.spans {
		if i == 0 || s.Start < origin {
			origin = s.Start
		}
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Rep,
			Ts:   float64(s.Start-origin) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "rep": s.Rep},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
