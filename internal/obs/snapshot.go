package obs

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Label is one metric label. Labels are an ordered slice, not a map,
// so exposition output is deterministic and byte-stable across
// processes.
type Label struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Metric is one series in a snapshot: a counter or gauge with Value
// set, or a histogram with Hist set. Snapshots are plain data — they
// marshal to JSON for cluster federation and render to Prometheus text
// via WriteProm.
type Metric struct {
	Name   string    `json:"name"`
	Type   string    `json:"type"` // "counter", "gauge", or "histogram"
	Help   string    `json:"help,omitempty"`
	Labels []Label   `json:"labels,omitempty"`
	Value  float64   `json:"value,omitempty"`
	Hist   *HistData `json:"hist,omitempty"`
}

// Snapshot is an ordered list of metrics. Series sharing a name must
// be contiguous (Prometheus exposition requires it); builders keep
// them so, and Merge preserves it.
type Snapshot []Metric

// Counter builds a counter metric.
func Counter(name, help string, v float64) Metric {
	return Metric{Name: name, Type: "counter", Help: help, Value: v}
}

// Gauge builds a gauge metric.
func Gauge(name, help string, v float64) Metric {
	return Metric{Name: name, Type: "gauge", Help: help, Value: v}
}

// HistogramMetric builds a histogram metric from a snapshot.
func HistogramMetric(name, help string, h *HistData) Metric {
	return Metric{Name: name, Type: "histogram", Help: help, Hist: h}
}

// With returns a copy of the metric with the given label pairs
// (k1, v1, k2, v2, ...) appended.
func (m Metric) With(kv ...string) Metric {
	labels := make([]Label, 0, len(m.Labels)+len(kv)/2)
	labels = append(labels, m.Labels...)
	for i := 0; i+1 < len(kv); i += 2 {
		labels = append(labels, Label{K: kv[i], V: kv[i+1]})
	}
	m.Labels = labels
	return m
}

// Value returns the value of the first counter or gauge series named
// name that carries every given label pair (k1, v1, k2, v2, ...). The
// boolean is false when the snapshot holds no such series.
func (s Snapshot) Value(name string, kv ...string) (float64, bool) {
next:
	for _, m := range s {
		if m.Name != name || m.Type == "histogram" {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if !slices.Contains(m.Labels, Label{K: kv[i], V: kv[i+1]}) {
				continue next
			}
		}
		return m.Value, true
	}
	return 0, false
}

func (m Metric) labelKey() string {
	var b strings.Builder
	for _, l := range m.Labels {
		fmt.Fprintf(&b, "%s=%q,", l.K, l.V)
	}
	return b.String()
}

func formatLabels(labels []Label, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.K, l.V)
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). HELP/TYPE headers are emitted once per
// metric name, on first occurrence.
func WriteProm(w io.Writer, snap Snapshot) {
	seen := make(map[string]bool)
	for _, m := range snap {
		if !seen[m.Name] {
			seen[m.Name] = true
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.Name, m.Help, m.Name, m.Type)
		}
		if m.Type == "histogram" && m.Hist != nil {
			cum := uint64(0)
			for i, b := range m.Hist.Bounds {
				cum += m.Hist.Counts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, formatLabels(m.Labels, fmt.Sprintf("le=%q", fmt.Sprintf("%g", b))), cum)
			}
			if len(m.Hist.Counts) > len(m.Hist.Bounds) {
				cum += m.Hist.Counts[len(m.Hist.Bounds)]
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, formatLabels(m.Labels, `le="+Inf"`), cum)
			fmt.Fprintf(w, "%s_sum%s %g\n", m.Name, formatLabels(m.Labels, ""), m.Hist.Sum)
			fmt.Fprintf(w, "%s_count%s %d\n", m.Name, formatLabels(m.Labels, ""), m.Hist.Count)
			continue
		}
		fmt.Fprintf(w, "%s%s %g\n", m.Name, formatLabels(m.Labels, ""), m.Value)
	}
}

// NodeSnapshot pairs a node identity with its metric snapshot — the
// JSON body of GET /internal/v1/metrics and the unit of cluster
// federation.
type NodeSnapshot struct {
	Node    string   `json:"node"`
	Metrics Snapshot `json:"metrics"`
}

// Merge federates per-node snapshots into one cluster-wide snapshot:
// counters are summed and histograms bucket-merged across nodes (keyed
// by name + labels), while gauges — point-in-time per-node state —
// keep one series per node, tagged with a node label. Metric order
// follows first appearance across the input, and series of one name
// stay contiguous.
func Merge(nodes []NodeSnapshot) Snapshot {
	type group struct {
		order   []string
		agg     map[string]*Metric
		entries []Metric
	}
	var names []string
	groups := make(map[string]*group)
	for _, ns := range nodes {
		for _, m := range ns.Metrics {
			g := groups[m.Name]
			if g == nil {
				g = &group{agg: make(map[string]*Metric)}
				groups[m.Name] = g
				names = append(names, m.Name)
			}
			switch m.Type {
			case "gauge":
				g.entries = append(g.entries, m.With("node", ns.Node))
			default:
				key := m.labelKey()
				a := g.agg[key]
				if a == nil {
					cp := m
					if cp.Hist != nil {
						cp.Hist = cp.Hist.Clone()
					}
					g.agg[key] = &cp
					g.order = append(g.order, key)
					continue
				}
				if a.Hist != nil {
					a.Hist.Merge(m.Hist)
				} else {
					a.Value += m.Value
				}
			}
		}
	}
	var out Snapshot
	for _, name := range names {
		g := groups[name]
		for _, key := range g.order {
			out = append(out, *g.agg[key])
		}
		out = append(out, g.entries...)
	}
	return out
}
