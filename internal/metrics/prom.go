package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promQuantiles label the summary quantiles WriteSummary exports: a
// Snapshot's P50, P90, P95 and P99.
var promQuantiles = [...]string{"0.5", "0.9", "0.95", "0.99"}

// promSeries is one exportable series, split into metric family name
// and label set.
type promSeries struct {
	base   string // sanitized metric family name
	labels string // label set without braces ("" when unlabeled)
	ctr    bool   // a counter, whose value is val
	val    int64
	gauge  *Gauge
	hist   *Histogram
}

// WritePrometheus renders every registered counter, gauge and histogram
// in the Prometheus text exposition format (text/plain; version 0.0.4).
// Histograms are rendered as summaries: one line per quantile plus
// `_sum` and `_count`. Series sharing a metric family name (same name,
// different label sets) are grouped under one # TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	series := make([]promSeries, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, reads := range r.counters {
		s := splitSeries(name)
		s.ctr, s.val = true, counterValue(reads)
		series = append(series, s)
	}
	for name, g := range r.gauges {
		s := splitSeries(name)
		s.gauge = g
		series = append(series, s)
	}
	for name, h := range r.hists {
		s := splitSeries(name)
		s.hist = h
		series = append(series, s)
	}
	expos := append([]func(io.Writer) error(nil), r.expos...)
	r.mu.Unlock()

	sort.Slice(series, func(i, j int) bool {
		if series[i].base != series[j].base {
			return series[i].base < series[j].base
		}
		return series[i].labels < series[j].labels
	})

	prevFamily := ""
	for _, s := range series {
		if s.base != prevFamily {
			prevFamily = s.base
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.base, s.kind()); err != nil {
				return err
			}
		}
		if err := s.write(w); err != nil {
			return err
		}
	}
	for _, fn := range expos {
		if err := fn(w); err != nil {
			return err
		}
	}
	return nil
}

func (s promSeries) kind() string {
	switch {
	case s.ctr:
		return "counter"
	case s.gauge != nil:
		return "gauge"
	default:
		return "summary"
	}
}

func (s promSeries) write(w io.Writer) error {
	switch {
	case s.ctr:
		_, err := fmt.Fprintf(w, "%s %d\n", s.name(""), s.val)
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s %d\n", s.name(""), s.gauge.Value())
		return err
	default:
		return WriteSummary(w, s.base, s.labels, s.hist.Snapshot())
	}
}

// WriteSummary renders one summary series from one snapshot: a line per
// exported quantile, then _sum and _count. base is the metric family
// name and labels the series' label set without braces ("" when
// unlabeled). It is the one summary writer: the registry's histograms
// and the flight recorder's windows both render through it.
func WriteSummary(w io.Writer, base, labels string, snap Snapshot) error {
	s := promSeries{base: base, labels: labels}
	quants := [...]float64{snap.P50, snap.P90, snap.P95, snap.P99}
	for i, label := range promQuantiles {
		if _, err := fmt.Fprintf(w, "%s %s\n",
			s.name(`quantile="`+label+`"`), promFloat(quants[i])); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.base, s.braced(), promFloat(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.base, s.braced(), snap.Count)
	return err
}

// name renders the full series name, merging extra into the label set.
func (s promSeries) name(extra string) string {
	labels := s.labels
	if extra != "" {
		if labels != "" {
			labels += ","
		}
		labels += extra
	}
	if labels == "" {
		return s.base
	}
	return s.base + "{" + labels + "}"
}

// braced renders the stored label set with braces ("" when unlabeled).
func (s promSeries) braced() string {
	if s.labels == "" {
		return ""
	}
	return "{" + s.labels + "}"
}

// splitSeries separates `name{label="v"}` into family name and labels,
// sanitizing the family name to the Prometheus charset.
func splitSeries(name string) promSeries {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base = name[:i]
		labels = strings.TrimSuffix(name[i+1:], "}")
	}
	return promSeries{base: sanitizeMetricName(base), labels: labels}
}

// sanitizeMetricName maps an arbitrary name onto [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	ok := true
	for i := 0; i < len(name); i++ {
		if !validMetricByte(name[i], i) {
			ok = false
			break
		}
	}
	if ok {
		return name
	}
	b := []byte(name)
	for i := range b {
		if !validMetricByte(b[i], i) {
			b[i] = '_'
		}
	}
	return string(b)
}

func validMetricByte(c byte, pos int) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return pos > 0
	default:
		return false
	}
}

// promFloat renders a float in exposition format.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
