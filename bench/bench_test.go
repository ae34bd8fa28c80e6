//go:build linux

package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary in the
// server role: the smoke tests spawn os.Executable() with childArgs, and
// that invocation lands here instead of in the test runner.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArgs("", false)[0] {
		fs := flag.NewFlagSet("bench", flag.ExitOnError)
		fs.String("role", "", "")
		config, tracer := serverFlags(fs)
		fs.Parse(os.Args[1:])
		os.Exit(serverMain(*config, *tracer, os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.99, 9.91}, {1, 10}} {
		if got := percentile(asc, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5 (input must not need sorting)", got)
	}
}

func TestSliceStatistics(t *testing.T) {
	// One stalled slice out of five must not move the median rate.
	if m := median([]float64{100, 101, 3, 99, 100}); m != 100 {
		t.Errorf("median slice rate = %v, want 100", m)
	}
	if got := cv([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !near(got, 40) {
		t.Errorf("cv = %v, want 40", got)
	}
	// Two slices at different host speeds: the same work reads the same
	// once scaled. The second slice ran on a host half as fast.
	t0 := time.Now()
	op := func(start time.Time, ttfb time.Duration) opSample {
		return opSample{start: start, firstByte: start.Add(ttfb), end: start.Add(ttfb)}
	}
	win := window{slices: []slice{
		{speed: refSpeed, srvCPUUs: 1000, srvOps: 10,
			load: loadResult{t0: t0, wall: time.Second, samples: []opSample{op(t0, 2*time.Millisecond), op(t0, 2*time.Millisecond)}}},
		{speed: refSpeed / 2, srvCPUUs: 2000, srvOps: 10,
			load: loadResult{t0: t0, wall: 2 * time.Second, samples: []opSample{op(t0, 4*time.Millisecond), op(t0, 4*time.Millisecond)}}},
	}}
	for name, got := range map[string][]float64{
		"rates": win.rates(), "srvCPUPerOp": win.srvCPUPerOp(), "ttfbMs": win.ttfbMs(),
	} {
		for _, x := range got[1:] {
			if !near(x, got[0]) {
				t.Errorf("%s = %v: slices of equal work must agree after scaling", name, got)
			}
		}
	}
	if r := win.rates(); !near(r[0], 2) || !near(win.srvCPUPerOp()[0], 100) || !near(win.ttfbMs()[0], 2) {
		t.Errorf("at the reference speed scaled values are the raw ones: rates %v cpu %v ttfb %v", r, win.srvCPUPerOp(), win.ttfbMs())
	}
}

// TestSummarizeMatchesPython pins the quartile rule to Python's
// statistics.quantiles(v, n=4), which the pipeline applies to the runs.
func TestSummarizeMatchesPython(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(s.Q1, 2.75) || !near(s.Median, 5.5) || !near(s.Q3, 8.25) || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v, want q1 2.75 median 5.5 q3 8.25", s)
	}
	if !near(s.iqrShare(), 1) || !near(s.rangeShare(), 9/5.5) {
		t.Errorf("iqrShare %v rangeShare %v, want 1 and %v", s.iqrShare(), s.rangeShare(), 9/5.5)
	}
	// quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); !near(s.Q1, 1) || !near(s.Q3, 4) {
		t.Errorf("summarize(1,2,4) = %+v, want q1 1 q3 4", s)
	}
	if s := summarize([]float64{3}); s.Q1 != 3 || s.Q3 != 3 || s.iqrShare() != 0 {
		t.Errorf("summarize of one value = %+v", s)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON mirrors the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and spec.go one list.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, spec.go runSeconds %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go %s / %s", i, bj.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad or repeated name, or why too long", w.name)
		}
		seen[w.name] = true
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec.go %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.name)
			}
			seen[d.name] = true
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: better = %q", d.name, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json %v, spec.go %v (want equal, in (0, 0.25])", d.name, g.Bound, d.bound)
			case !bounded && (g.Bound != nil || d.bound != 0):
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, d := range endToEnd[1:] {
		if d.bound > endToEnd[0].bound {
			t.Errorf("%s has a larger bound than setup_s", d.name)
		}
	}
}

// TestResultJSONRoundTrip checks the last output line against the
// contract: exactly four keys, every metric of the list with value and
// unit.
func TestResultJSONRoundTrip(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		res := newResult()
		vals := map[string]float64{}
		for i, d := range defs {
			vals[d.name] = 1.5 + float64(i)
		}
		res.set(defs, vals)
		res.Attempted, res.Correct = 7, len(res.problems) == 0
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]json.RawMessage
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		if len(back) != 4 {
			t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", back)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(back["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if string(back["correct"]) != "true" || string(back["attempted"]) != "7" || string(back["failed"]) != "0" || len(metrics) != len(defs) {
			t.Errorf("round trip lost something: %s", line)
		}
		for i, d := range defs {
			if m := metrics[d.name]; m.Unit != d.unit || m.Value != 1.5+float64(i) {
				t.Errorf("%s: got %+v", d.name, m)
			}
		}
	}
	res := newResult()
	res.set(endToEnd, map[string]float64{"setup_s": 1})
	if len(res.problems) != len(endToEnd)-1 {
		t.Errorf("unmeasured metrics must fail the run, got %v", res.problems)
	}
}

func TestLoadIdentity(t *testing.T) {
	id, ticket, err := loadIdentity()
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := id.Leaf()
	if err != nil {
		t.Fatal(err)
	}
	if leaf.NotAfter.Before(time.Now().AddDate(10, 0, 0)) {
		t.Errorf("committed certificate expires %s: too soon for a committed fixture", leaf.NotAfter)
	}
	if *ticket == ([32]byte{}) {
		t.Error("ticket key is all zeroes")
	}
}

// smoke returns w with a warm-up short enough for a test.
func smoke(w workload) workload {
	w.warmupOps = 100
	return w
}

// TestSmokeWorkloads runs each workload for one second through the real
// child and applies every output check.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server children and drives real sockets")
	}
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := newResult()
			s, err := openSession(smoke(w), 1, false, ref, res)
			if err != nil {
				t.Fatal(err)
			}
			win, err := s.measure(time.Second, res)
			s.close(res)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Error(p)
			}
			vals := endToEndValues(win)
			for _, d := range endToEnd[1:] {
				if !(vals[d.name] > 0) {
					t.Errorf("%s = %v, want > 0", d.name, vals[d.name])
				}
			}
			if res.Failed != 0 || res.Attempted <= smoke(w).warmupOps {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
		})
	}
}

// TestSmokeTracedPass runs the reference window and the traced pass on
// both kinds of workload and checks that every per-layer metric comes out
// and the span file is written.
func TestSmokeTracedPass(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server children and drives real sockets")
	}
	probes, err := runProbes(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	for _, name := range []string{"hs_resumed_qtls", "bulk_256k_qtls"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			res := newResult()
			s, err := openSession(smoke(w), 2, true, ref, res)
			if err != nil {
				t.Fatal(err)
			}
			ref, traced, setups, err := tracedPasses(s, time.Second, res)
			s.close(res)
			if err != nil {
				t.Fatal(err)
			}
			res.set(perLayer, layerValues(w, ref, traced, setups, probes))
			for _, p := range res.problems {
				t.Error(p)
			}
			if traced.after.Spans == traced.before.Spans {
				t.Error("traced pass recorded no server spans")
			}
			for _, n := range []string{"loadgen.dial_p50_us", "loadgen.handshake_p50_us", "loadgen.request_ttfb_p50_us",
				"engine.submits_per_op", "server.loop_iters_per_op", "trace.phase_retrieve_p50_us", "minitls.hs_full_pair_us"} {
				if !(res.Metrics[n].Value > 0) {
					t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
				}
			}
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := writeSpans(path, traced.samples(), setups); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) < 3*len(traced.samples()) {
				t.Errorf("%d span lines for %d operations", len(lines), len(traced.samples()))
			}
			var sp span
			if err := json.Unmarshal([]byte(lines[0]), &sp); err != nil || sp.Name != "op" || sp.End < sp.Start {
				t.Errorf("first span %q: %v", lines[0], err)
			}
		})
	}
}
