package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4): one HELP/TYPE header
// per family, then one sample line per series, histograms expanded into
// cumulative le-labeled buckets plus _sum and _count. Families are written
// in lexical name order and children in registration order, so scrapes are
// stable and diffable.

// ExpositionContentType is the Content-Type of the /metrics payload.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered metric in exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	names := r.sortedNames()
	for _, name := range names {
		f := r.families[name]
		bw.WriteString("# HELP ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, key := range f.order {
			writeChild(bw, f, f.children[key])
		}
	}
	r.mu.Unlock()
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry in exposition
// format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ExpositionContentType)
		_ = r.WritePrometheus(w)
	})
}

// value reads a counter or gauge series.
func (c *child) value() float64 {
	switch {
	case c.gaugeF != nil:
		return c.gaugeF()
	case c.ctr != nil:
		return float64(c.ctr.Value())
	case c.gauge != nil:
		return c.gauge.Value()
	}
	return 0
}

func writeChild(bw *bufio.Writer, f *family, c *child) {
	switch f.kind {
	case kindCounter, kindGauge:
		writeSample(bw, f.name, "", f.labelNames, c.labels, "", "", c.value())
	case kindHistogram:
		h := c.hist
		if h == nil {
			return
		}
		counts := h.snapshot()
		cum := int64(0)
		for i, n := range counts {
			cum += n
			le := "+Inf"
			if i < len(h.bounds) {
				le = formatFloat(h.bounds[i])
			}
			writeSample(bw, f.name, "_bucket", f.labelNames, c.labels, "le", le, float64(cum))
		}
		writeSample(bw, f.name, "_sum", f.labelNames, c.labels, "", "", h.Sum())
		writeSample(bw, f.name, "_count", f.labelNames, c.labels, "", "", float64(cum))
	}
}

// textWriter is what series keys are written to: the exposition's buffered
// writer or the JSON snapshot's key builder.
type textWriter interface {
	WriteString(string) (int, error)
	WriteByte(byte) error
}

// writeSample emits one `name{labels} value` line.
func writeSample(bw *bufio.Writer, name, suffix string, labelNames, labelValues []string, extraName, extraValue string, v float64) {
	writeSeries(bw, name, suffix, labelNames, labelValues, extraName, extraValue)
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(v))
	bw.WriteByte('\n')
}

// writeSeries emits a series identity, `name{labels}`, appending the
// optional extra label (the histogram le) after the family labels.
func writeSeries(w textWriter, name, suffix string, labelNames, labelValues []string, extraName, extraValue string) {
	w.WriteString(name)
	w.WriteString(suffix)
	if len(labelNames) == 0 && extraName == "" {
		return
	}
	w.WriteByte('{')
	first := true
	for i, ln := range labelNames {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteString(ln)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(labelValues[i]))
		w.WriteByte('"')
	}
	if extraName != "" {
		if !first {
			w.WriteByte(',')
		}
		w.WriteString(extraName)
		w.WriteString(`="`)
		w.WriteString(extraValue)
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// Snapshot renders every registered series for JSON, walking the same
// families WritePrometheus walks, so a metric registered anywhere appears
// in both views. Keys are the exposition series identity, `name{labels}`.
// Counters and gauges map to their value (non-finite values as their
// exposition spelling, "+Inf"/"-Inf"/"NaN", which JSON numbers cannot
// carry); histograms map to their count/sum/p50/p95/p99 summary.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	var key strings.Builder
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.names {
		f := r.families[name]
		for _, k := range f.order {
			c := f.children[k]
			key.Reset()
			writeSeries(&key, f.name, "", f.labelNames, c.labels, "", "")
			switch {
			case f.kind == kindHistogram && c.hist != nil:
				out[key.String()] = c.hist.Summary()
			case f.kind != kindHistogram:
				v := c.value()
				if math.IsInf(v, 0) || math.IsNaN(v) {
					out[key.String()] = formatFloat(v)
				} else {
					out[key.String()] = v
				}
			}
		}
	}
	return out
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
