package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"harmony/internal/stats"
)

// MetricType is the Prometheus family type of an exported series.
type MetricType uint8

const (
	Gauge MetricType = iota
	Counter
	summaryMetric
)

func (t MetricType) String() string {
	switch t {
	case Counter:
		return "counter"
	case summaryMetric:
		return "summary"
	default:
		return "gauge"
	}
}

// Label is one name="value" pair on a series.
type Label struct {
	Name  string
	Value string
}

// Metric is one exported series sample. family, when non-empty, names the
// metric family the series belongs to for # TYPE purposes — summaries use
// it so name_sum/name_count attach to the quantile family.
type Metric struct {
	Name   string
	family string
	Help   string
	Type   MetricType
	Labels []Label
	Value  float64
}

// Collector emits a subsystem's current metrics. Collectors run on every
// scrape, so one collector should snapshot its subsystem once and emit all
// derived series, rather than re-snapshotting per series.
type Collector func(emit func(Metric))

// Registry gathers collectors and renders them in the Prometheus text
// exposition format. It is safe for concurrent use; registration typically
// happens at assembly time and scraping afterward.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a collector.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// gather runs every collector and returns the samples sorted by family,
// then name, then label values — the deterministic order writeProm (and the
// golden tests) rely on.
func (r *Registry) gather() []Metric {
	r.mu.Lock()
	cs := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()
	var out []Metric
	for _, c := range cs {
		c(func(m Metric) {
			if m.family == "" {
				m.family = m.Name
			}
			out = append(out, m)
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family < out[j].family
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelKey(out[i].Labels) < labelKey(out[j].Labels)
	})
	return out
}

func labelKey(ls []Label) string {
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// writeProm renders the gathered metrics in the Prometheus text exposition
// format (version 0.0.4): one # HELP/# TYPE pair per family, then each
// series as name{labels} value.
func (r *Registry) writeProm(w io.Writer) error {
	var lastFamily string
	for _, m := range r.gather() {
		if m.family != lastFamily {
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.family, m.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.family, m.Type); err != nil {
				return err
			}
			lastFamily = m.family
		}
		if _, err := io.WriteString(w, m.Name); err != nil {
			return err
		}
		if len(m.Labels) > 0 {
			if _, err := io.WriteString(w, "{"); err != nil {
				return err
			}
			for i, l := range m.Labels {
				sep := ","
				if i == 0 {
					sep = ""
				}
				if _, err := fmt.Fprintf(w, `%s%s="%s"`, sep, l.Name, escapeLabel(l.Value)); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, "}"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, " %v\n", m.Value); err != nil {
			return err
		}
	}
	return nil
}

// summaryQuantiles are the quantile series a histogram exports.
var summaryQuantiles = []struct {
	q     float64
	label string
}{
	{0.5, "0.5"},
	{0.95, "0.95"},
	{0.99, "0.99"},
	{1.0, "1"},
}

// emitHistogram emits one stats.Histogram as a Prometheus summary family:
// quantile series in seconds, plus _sum and _count. labels are the base
// labels every series carries (quantile is appended to them).
func emitHistogram(emit func(Metric), family, help string, labels []Label, h *stats.Histogram) {
	if h.Count() == 0 {
		return
	}
	for _, sq := range summaryQuantiles {
		ql := make([]Label, 0, len(labels)+1)
		ql = append(ql, labels...)
		ql = append(ql, Label{Name: "quantile", Value: sq.label})
		emit(Metric{
			Name: family, family: family, Help: help, Type: summaryMetric,
			Labels: ql, Value: h.Quantile(sq.q).Seconds(),
		})
	}
	emit(Metric{
		Name: family + "_sum", family: family, Type: summaryMetric,
		Labels: labels, Value: h.Sum().Seconds(),
	})
	emit(Metric{
		Name: family + "_count", family: family, Type: summaryMetric,
		Labels: labels, Value: float64(h.Count()),
	})
}

// OpLatencyCollector exports an OpLevelHist as the
// harmony_op_latency_seconds summary family, one series set per populated
// (op, level) cell. A nil hist collects nothing.
func OpLatencyCollector(hist *OpLevelHist, extra ...Label) Collector {
	return func(emit func(Metric)) {
		for _, cell := range hist.Snapshot() {
			labels := make([]Label, 0, len(extra)+2)
			labels = append(labels, extra...)
			labels = append(labels,
				Label{Name: "op", Value: cell.Op.String()},
				Label{Name: "level", Value: cell.Level.String()},
			)
			h := cell.Hist
			emitHistogram(emit, "harmony_op_latency_seconds",
				"Coordinated operation latency by operation kind and consistency level.",
				labels, &h)
		}
	}
}
