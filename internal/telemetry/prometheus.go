package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promName sanitizes a dotted metric family name into the Prometheus
// name charset [a-zA-Z0-9_:], mapping dots (and anything else) to
// underscores: "link.rate_gbps" -> "link_rate_gbps".
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writeLabels renders {k="v",k2="v2"}, with extra appended last (used
// for histogram "le" bounds). Values are %q-escaped.
func writeLabels(bw *bufio.Writer, labels []Label, extra ...Label) {
	if len(labels)+len(extra) == 0 {
		return
	}
	bw.WriteByte('{')
	n := 0
	for _, l := range labels {
		if n > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%s=%q", l.Key, l.Value)
		n++
	}
	for _, l := range extra {
		if n > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%s=%q", l.Key, l.Value)
		n++
	}
	bw.WriteByte('}')
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per family followed by its
// series. Families appear in first-registration order; series within a
// family are grouped together regardless of interleaved registration,
// so scrapers see contiguous TYPE blocks. Histograms render as full
// _bucket/_sum/_count families with cumulative le bounds; their scalar
// .count/.sum sampler entries are skipped here to avoid duplication.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	seen := make(map[string]bool, len(r.entries))
	order := make([]string, 0, len(r.entries))
	byName := make(map[string][]entry, len(r.entries))
	for _, e := range r.entries {
		if e.kind == kindHistPart {
			continue
		}
		if !seen[e.name] {
			seen[e.name] = true
			order = append(order, e.name)
		}
		byName[e.name] = append(byName[e.name], e)
	}
	for _, name := range order {
		series := byName[name]
		typ := "gauge"
		if series[0].kind == kindCounter {
			typ = "counter"
		}
		pn := promName(name)
		fmt.Fprintf(bw, "# TYPE %s %s\n", pn, typ)
		for _, e := range series {
			bw.WriteString(pn)
			writeLabels(bw, e.labels)
			bw.WriteByte(' ')
			bw.Write(appendValue(bw.AvailableBuffer(), e.read()))
			bw.WriteByte('\n')
		}
	}
	for _, h := range r.hists {
		h.sync()
		pn := promName(h.name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", pn)
		var cum int64
		for i, c := range h.counts {
			upper := "+Inf"
			if i < len(h.uppers) {
				upper = string(appendValue(nil, h.uppers[i]))
			}
			cum += c
			bw.WriteString(pn)
			bw.WriteString("_bucket")
			writeLabels(bw, h.labels, Label{Key: "le", Value: upper})
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(cum, 10))
			bw.WriteByte('\n')
		}
		bw.WriteString(pn)
		bw.WriteString("_sum")
		writeLabels(bw, h.labels)
		bw.WriteByte(' ')
		bw.Write(appendValue(bw.AvailableBuffer(), h.sum))
		bw.WriteByte('\n')
		bw.WriteString(pn)
		bw.WriteString("_count")
		writeLabels(bw, h.labels)
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatInt(h.n, 10))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
