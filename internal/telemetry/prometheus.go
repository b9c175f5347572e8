package telemetry

import (
	"bufio"
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

// writeLabels renders {k="v",k2="v2"} from parallel keys and values,
// with le, when non-empty, appended last (a histogram bucket's bound).
// Values are quoted as %q quotes them.
func writeLabels(bw *bufio.Writer, keys, values []string, le string) {
	if len(keys) == 0 && le == "" {
		return
	}
	b := append(bw.AvailableBuffer(), '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(append(b, k...), '='), values[i])
	}
	if le != "" {
		if len(keys) > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(b, "le="...), le)
	}
	bw.Write(append(b, '}'))
}

// famPart is one block's share of a family: the block, whether the
// family is a counter there, and the column its first series reads.
type famPart struct {
	b       *block
	counter bool
	col     int
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per family followed by its
// series. Families appear in first-registration order; series within a
// family are grouped together regardless of interleaved registration,
// so scrapers see contiguous TYPE blocks. Values are read through the
// same block fills a sampler tick uses. Histograms render as full
// _bucket/_sum/_count families with cumulative le bounds; their scalar
// .count/.sum sampler entries are skipped here to avoid duplication.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if len(r.scrape) != len(r.names) {
		r.scrape = make([]float64, len(r.names))
	}
	vals := r.scrape
	r.ReadInto(vals)
	var order []string
	parts := make(map[string][]famPart)
	col := 0
	for i := range r.blocks {
		b := &r.blocks[i]
		for _, f := range b.Families {
			if !b.hist && b.n > 0 {
				if _, ok := parts[f.Name]; !ok {
					order = append(order, f.Name)
				}
				parts[f.Name] = append(parts[f.Name], famPart{b, f.Counter, col})
			}
			col += b.n
		}
	}
	bw := bufio.NewWriter(w)
	for _, name := range order {
		fp := parts[name]
		typ := " gauge\n"
		if fp[0].counter {
			typ = " counter\n"
		}
		pn := promName(name)
		bw.WriteString("# TYPE " + pn + typ)
		for _, p := range fp {
			nk := len(p.b.Keys)
			for e := 0; e < p.b.n; e++ {
				bw.WriteString(pn)
				writeLabels(bw, p.b.Keys, p.b.Values[e*nk:(e+1)*nk], "")
				bw.WriteByte(' ')
				bw.Write(appendValue(bw.AvailableBuffer(), vals[p.col+e]))
				bw.WriteByte('\n')
			}
		}
	}
	for _, h := range r.hists {
		h.sync()
		pn := promName(h.name)
		bw.WriteString("# TYPE " + pn + " histogram\n")
		var cum int64
		for i, c := range h.counts {
			upper := "+Inf"
			if i < len(h.uppers) {
				upper = string(appendValue(nil, h.uppers[i]))
			}
			cum += c
			bw.WriteString(pn)
			bw.WriteString("_bucket")
			writeLabels(bw, h.keys, h.values, upper)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(cum, 10))
			bw.WriteByte('\n')
		}
		bw.WriteString(pn)
		bw.WriteString("_sum")
		writeLabels(bw, h.keys, h.values, "")
		bw.WriteByte(' ')
		bw.Write(appendValue(bw.AvailableBuffer(), h.sum))
		bw.WriteByte('\n')
		bw.WriteString(pn)
		bw.WriteString("_count")
		writeLabels(bw, h.keys, h.values, "")
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatInt(h.n, 10))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
