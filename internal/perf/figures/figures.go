// Package figures regenerates every table and figure of the QTLS paper's
// evaluation (§5) on the discrete-event model (internal/perf) and — for
// Table 1 — on the real minitls stack. Each generator returns a Table
// whose series correspond to the lines/bars of the original figure.
package figures

import (
	"fmt"
	"strings"
	"time"

	"qtls/internal/perf"
)

// Table is a rendered experiment result: one row per series, one column
// per x-axis point.
type Table struct {
	ID      string
	Title   string
	XLabel  string
	YLabel  string
	Columns []string
	Series  []Series
	Notes   string
}

// Series is one line/bar group of a figure.
type Series struct {
	Name   string
	Values []float64
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "  y: %s;  x: %s\n", t.YLabel, t.XLabel)
	width := 12
	for _, c := range t.Columns {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	fmt.Fprintf(&b, "  %-16s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	for _, s := range t.Series {
		fmt.Fprintf(&b, "  %-16s", s.Name)
		for _, v := range s.Values {
			fmt.Fprintf(&b, "%*s", width, formatValue(v))
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "  note: %s\n", t.Notes)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (one header row, one
// row per series) for plotting.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString("series")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, s := range t.Series {
		b.WriteString(s.Name)
		for _, v := range s.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.1fK", v/1000)
	case v >= 10:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Opts scales experiment durations (benches and tests shrink them; the
// full qtlsbench run uses defaults).
type Opts struct {
	// Warmup precedes measurement (default 600 ms; slow software
	// baselines use a multiple of it).
	Warmup time.Duration
	// Measure is the measurement window (default 800 ms).
	Measure time.Duration
}

func (o Opts) withDefaults() Opts {
	if o.Warmup <= 0 {
		o.Warmup = 600 * time.Millisecond
	}
	if o.Measure <= 0 {
		o.Measure = 800 * time.Millisecond
	}
	return o
}

// Quick returns options for fast smoke runs (unit tests, -bench smoke).
func Quick() Opts {
	return Opts{Warmup: 150 * time.Millisecond, Measure: 200 * time.Millisecond}
}

// clientsFor sizes the closed-loop client pool to saturate the fastest
// configuration at the given worker count.
func clientsFor(workers int) int { return 100 + 40*workers }

func runCPS(o Opts, cfg perf.Config, spec perf.ScriptSpec, clients int, resume float64) float64 {
	res := perf.Run(perf.RunOptions{
		Config:  cfg,
		Warmup:  o.Warmup,
		Measure: o.Measure,
		Install: func(m *perf.Model) {
			perf.STimeWorkload{Clients: clients, Spec: spec, ResumeFraction: resume}.Install(m)
		},
	})
	return res.CPS
}

// cpsFigure sweeps worker counts for the five configurations.
func cpsFigure(o Opts, id, title string, spec perf.ScriptSpec, workerCounts []int, resume float64) Table {
	o = o.withDefaults()
	t := Table{
		ID:     id,
		Title:  title,
		XLabel: "Nginx workers (HT cores)",
		YLabel: "connections per second",
	}
	for _, w := range workerCounts {
		t.Columns = append(t.Columns, fmt.Sprintf("%dHT", w))
	}
	for _, mk := range []func(int) perf.Config{perf.SW, perf.QATS, perf.QATA, perf.QATAH, perf.QTLS} {
		name := mk(1).Name
		s := Series{Name: name}
		for _, w := range workerCounts {
			cfg := mk(w)
			oo := o
			if name == "SW" || name == "QAT+S" {
				// Slow baselines need longer settling (queues are long).
				oo.Warmup = o.Warmup * 2
			}
			s.Values = append(s.Values, runCPS(oo, cfg, spec, clientsFor(w), resume))
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// Fig7a: TLS 1.2 TLS-RSA (2048) full handshake CPS vs workers.
func Fig7a(o Opts) Table {
	t := cpsFigure(o, "fig7a", "Full handshake, TLS 1.2 TLS-RSA (2048-bit)",
		perf.ScriptSpec{Suite: perf.SuiteRSA}, []int{2, 4, 8, 16, 24, 32}, 0)
	t.Notes = "paper anchors: SW 4.3K @8HT; QAT+A 29.5K; QAT+AH 35.8K; QTLS 38.8K (9x SW); ~100K card limit @32HT"
	return t
}

// Fig7b: TLS 1.2 ECDHE-RSA (2048, P-256) full handshake CPS vs workers.
func Fig7b(o Opts) Table {
	t := cpsFigure(o, "fig7b", "Full handshake, TLS 1.2 ECDHE-RSA (2048-bit, P-256)",
		perf.ScriptSpec{Suite: perf.SuiteECDHERSA}, []int{2, 4, 8, 12, 16, 20}, 0)
	t.Notes = "paper anchors: QAT+S ≈ SW (blocking); QTLS 5.5x SW; 40K card limit from 16 workers"
	return t
}

// Fig7c: TLS 1.2 ECDHE-ECDSA CPS across six NIST curves, 4 workers.
func Fig7c(o Opts) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "fig7c",
		Title:  "Full handshake, TLS 1.2 ECDHE-ECDSA, six NIST curves, 4 workers",
		XLabel: "curve",
		YLabel: "connections per second",
		Notes:  "paper anchors: SW P-256 beats QAT+S (Montgomery-friendly); QTLS +70% on P-256, 14x on P-384, >12x on B/K curves",
	}
	curves := perf.Curves()
	for _, c := range curves {
		t.Columns = append(t.Columns, c.Name)
	}
	for _, mk := range []func(int) perf.Config{perf.SW, perf.QATS, perf.QATA, perf.QATAH, perf.QTLS} {
		name := mk(1).Name
		s := Series{Name: name}
		for _, c := range curves {
			oo := o
			if name == "SW" || name == "QAT+S" {
				oo.Warmup = o.Warmup * 4 // multi-ms handshakes settle slowly
			}
			spec := perf.ScriptSpec{Suite: perf.SuiteECDHEECDSA, Curve: c}
			s.Values = append(s.Values, runCPS(oo, mk(4), spec, clientsFor(4), 0))
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// Fig8: TLS 1.3 ECDHE-RSA full handshake CPS vs workers.
func Fig8(o Opts) Table {
	t := cpsFigure(o, "fig8", "Full handshake, TLS 1.3 ECDHE-RSA (2048-bit)",
		perf.ScriptSpec{Suite: perf.SuiteTLS13}, []int{2, 4, 8, 12, 16, 20}, 0)
	t.Notes = "paper anchor: QTLS 3.5x SW — lower than TLS 1.2 because HKDF cannot be offloaded"
	return t
}

// Fig9a: session resumption, 100% abbreviated handshakes.
func Fig9a(o Opts) Table {
	t := cpsFigure(o, "fig9a", "Session resumption, 100% abbreviated handshakes (ECDHE-RSA)",
		perf.ScriptSpec{Suite: perf.SuiteECDHERSA}, []int{2, 4, 8, 12, 16, 20}, 1.0)
	t.Notes = "paper anchors: QTLS 30-40% over SW; QAT+S clearly below SW"
	return t
}

// Fig9b: full:abbreviated = 1:9 mix.
func Fig9b(o Opts) Table {
	t := cpsFigure(o, "fig9b", "Session resumption, full:abbreviated = 1:9 (ECDHE-RSA 2048)",
		perf.ScriptSpec{Suite: perf.SuiteECDHERSA}, []int{2, 4, 8, 12, 16, 20}, 0.9)
	t.Notes = "paper anchor: QTLS more than 2x SW at this mix"
	return t
}

// Fig10: secure data transfer throughput vs requested file size.
func Fig10(o Opts) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "fig10",
		Title:  "Secure data transfer throughput, AES128-SHA, 8 workers, 400 keepalive clients",
		XLabel: "requested file size (KB)",
		YLabel: "throughput (Gbps)",
		Notes:  "paper anchors: parity at 4KB; QTLS >2x SW from 128KB up",
	}
	sizes := []int{4, 16, 32, 64, 128, 256, 512, 1024}
	for _, kb := range sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%dKB", kb))
	}
	for _, mk := range []func(int) perf.Config{perf.SW, perf.QATS, perf.QATA, perf.QATAH, perf.QTLS} {
		s := Series{Name: mk(1).Name}
		for _, kb := range sizes {
			res := perf.Run(perf.RunOptions{
				Config:  mk(8),
				Warmup:  o.Warmup,
				Measure: o.Measure,
				Install: func(m *perf.Model) {
					perf.ABWorkload{Clients: 400, FileBytes: kb * 1024}.Install(m)
				},
			})
			s.Values = append(s.Values, res.Gbps)
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// Fig11: average response time vs number of concurrent end clients,
// one worker, full TLS-RSA handshake per request.
func Fig11(o Opts) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "fig11",
		Title:  "Average response time, TLS-RSA full handshake per request, 1 worker",
		XLabel: "concurrent end clients",
		YLabel: "average response time (ms)",
		Notes:  "paper anchors: QAT+S lowest at concurrency 1 (busy loop); SW grows steeply; QTLS ~85% below SW at high concurrency",
	}
	concs := []int{1, 2, 4, 6, 8, 12, 16, 32, 64, 128, 256}
	for _, c := range concs {
		t.Columns = append(t.Columns, fmt.Sprintf("%d", c))
	}
	for _, mk := range []func(int) perf.Config{perf.SW, perf.QATS, perf.QATA, perf.QTLS} {
		name := mk(1).Name
		s := Series{Name: name}
		for _, c := range concs {
			oo := o
			if name == "SW" && c >= 32 {
				oo.Warmup = o.Warmup * 3 // deep queues settle slowly
			}
			res := perf.Run(perf.RunOptions{
				Config:  mk(1),
				Warmup:  oo.Warmup,
				Measure: oo.Measure,
				Install: func(m *perf.Model) {
					perf.LatencyWorkload{Concurrency: c, PerClientRate: 6}.Install(m)
				},
			})
			s.Values = append(s.Values, float64(res.AvgLatency)/float64(time.Millisecond))
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// timer returns an async configuration with a fixed-interval polling
// thread, for the Fig. 12 polling comparison.
func timer(workers int, interval time.Duration) perf.Config {
	cfg := perf.QATA(workers)
	cfg.Poll.Interval = interval
	cfg.Name = interval.String()
	return cfg
}

func heuristic(workers int) perf.Config {
	cfg := perf.QATAH(workers)
	cfg.Name = "Heuristic"
	return cfg
}

// fig12Configs are the three §5.6 scenarios: 10 µs timer, 1 ms timer,
// heuristic — all on the async framework with FD notification.
func fig12Configs(workers int) []perf.Config {
	return []perf.Config{
		timer(workers, 10*time.Microsecond),
		timer(workers, time.Millisecond),
		heuristic(workers),
	}
}

// Fig12a: polling comparison — TLS-RSA full handshake CPS vs workers.
func Fig12a(o Opts) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "fig12a",
		Title:  "Polling thread vs heuristic polling: TLS-RSA full handshake CPS",
		XLabel: "Nginx workers",
		YLabel: "connections per second",
		Notes:  "paper anchors: 10µs polling ~20% below heuristic; 1ms collapses at low load, trails at high load",
	}
	workerCounts := []int{2, 4, 8, 12, 16, 20, 24, 28, 32}
	for _, w := range workerCounts {
		t.Columns = append(t.Columns, fmt.Sprintf("%d", w))
	}
	for i := 0; i < 3; i++ {
		var s Series
		for _, w := range workerCounts {
			cfg := fig12Configs(w)[i]
			if s.Name == "" {
				s.Name = cfg.Name
			}
			s.Values = append(s.Values, runCPS(o, cfg, perf.ScriptSpec{Suite: perf.SuiteRSA}, clientsFor(w), 0))
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// Fig12b: polling comparison — 64 KB transfer throughput vs concurrent
// end clients.
func Fig12b(o Opts) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "fig12b",
		Title:  "Polling thread vs heuristic polling: 64 KB transfer throughput, 8 workers",
		XLabel: "concurrent end clients",
		YLabel: "throughput (Gbps)",
		Notes:  "paper anchor: 1ms polling collapses throughput at low client counts",
	}
	clients := []int{16, 32, 48, 64, 96, 128, 192, 256, 512}
	for _, c := range clients {
		t.Columns = append(t.Columns, fmt.Sprintf("%d", c))
	}
	for i := 0; i < 3; i++ {
		var s Series
		for _, c := range clients {
			cfg := fig12Configs(8)[i]
			if s.Name == "" {
				s.Name = cfg.Name
			}
			res := perf.Run(perf.RunOptions{
				Config:  cfg,
				Warmup:  o.Warmup,
				Measure: o.Measure,
				Install: func(m *perf.Model) {
					perf.ABWorkload{Clients: c, FileBytes: 64 * 1024}.Install(m)
				},
			})
			s.Values = append(s.Values, res.Gbps)
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// Fig12c: polling comparison — response time vs concurrency, 1 worker.
func Fig12c(o Opts) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "fig12c",
		Title:  "Polling thread vs heuristic polling: average response time, 1 worker",
		XLabel: "concurrent end clients",
		YLabel: "average response time (ms)",
		Notes:  "paper anchor: 1ms polling adds ~ms-scale latency at low concurrency; heuristic lowest everywhere",
	}
	concs := []int{1, 2, 4, 6, 8, 12, 16, 32, 64}
	for _, c := range concs {
		t.Columns = append(t.Columns, fmt.Sprintf("%d", c))
	}
	for i := 0; i < 3; i++ {
		var s Series
		for _, c := range concs {
			cfg := fig12Configs(1)[i]
			if s.Name == "" {
				s.Name = cfg.Name
			}
			res := perf.Run(perf.RunOptions{
				Config:  cfg,
				Warmup:  o.Warmup,
				Measure: o.Measure,
				Install: func(m *perf.Model) {
					perf.LatencyWorkload{Concurrency: c, PerClientRate: 6}.Install(m)
				},
			})
			s.Values = append(s.Values, float64(res.AvgLatency)/float64(time.Millisecond))
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// ByID returns the generator for one experiment id.
func ByID(id string) (func(Opts) Table, bool) {
	gens := map[string]func(Opts) Table{
		"table1": func(Opts) Table { return Table1() },
		"fig7a":  Fig7a, "fig7b": Fig7b, "fig7c": Fig7c,
		"fig8": Fig8, "fig9a": Fig9a, "fig9b": Fig9b,
		"fig10": Fig10, "fig11": Fig11,
		"fig12a": Fig12a, "fig12b": Fig12b, "fig12c": Fig12c,
		"blackbox":      Blackbox,
		"notify-parity": func(Opts) Table { return NotifyParity() },
	}
	g, ok := gens[id]
	return g, ok
}

// IDs lists all experiment identifiers in paper order.
func IDs() []string {
	return []string{"table1", "fig7a", "fig7b", "fig7c", "fig8",
		"fig9a", "fig9b", "fig10", "fig11", "fig12a", "fig12b", "fig12c",
		"blackbox", "notify-parity"}
}
