package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"qtls/internal/trace"
)

// DumpHeader is the first line of a flight dump: what fired, when, and
// the windowed phase summaries at that moment.
type DumpHeader struct {
	Reason string                  `json:"reason"`
	AtNs   int64                   `json:"at_ns"`
	Events int                     `json:"events"`
	Window string                  `json:"window"`
	Phases map[string]PhaseSummary `json:"phases,omitempty"`
}

// PhaseSummary is one phase's windowed latency summary inside a dump
// header (nanoseconds).
type PhaseSummary struct {
	Count int64   `json:"count"`
	Rate  float64 `json:"rate"`
	P50   float64 `json:"p50_ns"`
	P95   float64 `json:"p95_ns"`
	P99   float64 `json:"p99_ns"`
	Max   float64 `json:"max_ns"`
}

// headerLine wraps DumpHeader so a dump file's first line is
// self-identifying: {"flight":{...}}.
type headerLine struct {
	Flight *DumpHeader `json:"flight"`
}

// WriteDump renders a JSON-lines dump: one header line followed by up
// to n journaled events (n <= 0 writes everything retained). It reads
// the live journals; pass events to WriteDumpEvents when the snapshot
// was already taken (the trigger path).
func (r *Recorder) WriteDump(w io.Writer, reason string, n int) error {
	if r == nil {
		return fmt.Errorf("flight: recorder not configured")
	}
	return r.WriteDumpEvents(w, reason, r.Events(n))
}

// WriteDumpEvents renders a JSON-lines dump from an already captured
// event snapshot.
func (r *Recorder) WriteDumpEvents(w io.Writer, reason string, events []Event) error {
	if r == nil {
		return fmt.Errorf("flight: recorder not configured")
	}
	nowNs := r.now()
	hdr := DumpHeader{
		Reason: reason,
		AtNs:   nowNs,
		Events: len(events),
		Window: r.suffix(),
		Phases: make(map[string]PhaseSummary, trace.NumPhases),
	}
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		s := r.phaseWin[p].Snapshot(nowNs)
		if s.Count == 0 {
			continue
		}
		hdr.Phases[p.String()] = PhaseSummary{
			Count: s.Count, Rate: s.Rate, P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max,
		}
	}
	b, err := json.Marshal(headerLine{Flight: &hdr})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
		return err
	}
	for _, e := range events {
		line, err := e.MarshalJSON()
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}

// DumpEvent is one parsed dump line, with the symbolic names a reader
// tool works in.
type DumpEvent struct {
	TimeNs int64  `json:"t_ns"`
	Kind   string `json:"kind"`
	Worker int    `json:"worker"`
	Code   string `json:"code"`
	Op     string `json:"op"`
	DurNs  int64  `json:"dur_ns"`
	Arg    int64  `json:"arg"`
}

// Dump is one parsed flight dump.
type Dump struct {
	Header DumpHeader
	Events []DumpEvent
}

// ReadDump parses a JSON-lines dump produced by WriteDump. A missing
// header line is tolerated (the dump then has a zero Header), so event
// fragments paste-ably round-trip.
func ReadDump(r io.Reader) (*Dump, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	d := &Dump{}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			var hl headerLine
			if err := json.Unmarshal([]byte(line), &hl); err == nil && hl.Flight != nil {
				d.Header = *hl.Flight
				continue
			}
		}
		var e DumpEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("flight: bad dump line %q: %v", line, err)
		}
		d.Events = append(d.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// Report pretty-prints a parsed dump: the header summary, a per-second
// phase/event timeline, and the top-k slowest spans. This backs
// `qatinfo -flight <file>`.
func (d *Dump) Report(w io.Writer, topK int) {
	if topK <= 0 {
		topK = 10
	}
	if d.Header.Reason != "" {
		fmt.Fprintf(w, "flight dump: reason=%s at=%s window=%s events=%d\n",
			d.Header.Reason, time.Unix(0, d.Header.AtNs).UTC().Format(time.RFC3339),
			d.Header.Window, d.Header.Events)
	} else {
		fmt.Fprintf(w, "flight dump: %d events (no header)\n", len(d.Events))
	}
	if len(d.Header.Phases) > 0 {
		fmt.Fprintf(w, "\nwindowed phase latency (%s):\n", d.Header.Window)
		names := make([]string, 0, len(d.Header.Phases))
		for n := range d.Header.Phases {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			p := d.Header.Phases[n]
			fmt.Fprintf(w, "  %-9s n=%-7d rate=%-8.1f p50=%-10v p95=%-10v p99=%-10v max=%v\n",
				n, p.Count, p.Rate,
				time.Duration(p.P50).Round(time.Microsecond),
				time.Duration(p.P95).Round(time.Microsecond),
				time.Duration(p.P99).Round(time.Microsecond),
				time.Duration(p.Max).Round(time.Microsecond))
		}
	}
	if len(d.Events) == 0 {
		fmt.Fprintf(w, "\nno events\n")
		return
	}

	// Timeline: one row per second containing events, oldest first,
	// counting events by kind (slow spans keyed by phase).
	t0, t1 := d.Events[0].TimeNs, d.Events[0].TimeNs
	for _, e := range d.Events {
		if e.TimeNs < t0 {
			t0 = e.TimeNs
		}
		if e.TimeNs > t1 {
			t1 = e.TimeNs
		}
	}
	counts := map[int64]map[string]int{}
	for _, e := range d.Events {
		sec := (e.TimeNs - t0) / int64(time.Second)
		key := e.Kind
		if e.Kind == "slowspan" {
			key = "slow:" + e.Code
		} else if e.Code != "" {
			key = e.Kind + ":" + e.Code
		}
		m, ok := counts[sec]
		if !ok {
			m = map[string]int{}
			counts[sec] = m
		}
		m[key]++
	}
	fmt.Fprintf(w, "\ntimeline (%s span, t0=%s):\n",
		time.Duration(t1-t0).Round(time.Millisecond),
		time.Unix(0, t0).UTC().Format("15:04:05.000"))
	secs := make([]int64, 0, len(counts))
	for s := range counts {
		secs = append(secs, s)
	}
	sort.Slice(secs, func(i, j int) bool { return secs[i] < secs[j] })
	for _, s := range secs {
		keys := make([]string, 0, len(counts[s]))
		for k := range counts[s] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s×%d", k, counts[s][k]))
		}
		fmt.Fprintf(w, "  +%3ds  %s\n", s, strings.Join(parts, " "))
	}

	// Placement flips and device-lifecycle transitions, pretty-printed:
	// these are low-frequency, high-signal events and the generic
	// kind:code×N timeline hides the fields that matter (which device,
	// which states, why).
	var moves []DumpEvent
	for _, e := range d.Events {
		if e.Kind == "placement" || e.Kind == "lifecycle" {
			moves = append(moves, e)
		}
	}
	if len(moves) > 0 {
		fmt.Fprintf(w, "\nplacement / lifecycle events:\n")
		for _, e := range moves {
			at := time.Duration(e.TimeNs - t0).Round(time.Millisecond)
			switch e.Kind {
			case "placement":
				// Code is the op class, DurNs the previous device, Arg the new.
				fmt.Fprintf(w, "  +%-8v placement  worker=%-3d class=%-4s dev%d → dev%d\n",
					at, e.Worker, e.Code, e.DurNs, e.Arg)
			case "lifecycle":
				// Code is the reason, DurNs packs from<<8|to, Arg the device.
				from, to := LifecycleStates(e.DurNs)
				fmt.Fprintf(w, "  +%-8v lifecycle  dev%d %s → %s (%s)\n",
					at, e.Arg, from, to, e.Code)
			}
		}
	}

	// Top-k slow spans by duration.
	slow := make([]DumpEvent, 0, len(d.Events))
	for _, e := range d.Events {
		if e.Kind == "slowspan" {
			slow = append(slow, e)
		}
	}
	if len(slow) > 0 {
		sort.Slice(slow, func(i, j int) bool { return slow[i].DurNs > slow[j].DurNs })
		if len(slow) > topK {
			slow = slow[:topK]
		}
		fmt.Fprintf(w, "\ntop %d slow spans:\n", len(slow))
		for _, e := range slow {
			fmt.Fprintf(w, "  %-9s op=%-7s worker=%-3d dur=%-10v arg=%d t=+%v\n",
				e.Code, e.Op, e.Worker,
				time.Duration(e.DurNs).Round(time.Microsecond), e.Arg,
				time.Duration(e.TimeNs-t0).Round(time.Millisecond))
		}
	}
}
