//go:build linux

// Command bench is the live-stack benchmark of the QTLS reproduction: the
// real epoll server under a real closed-loop TLS load generator, measured
// end to end and layer by layer. README.md in this directory defines
// every workload and metric.
//
//	go run ./bench                      all four workloads, end-to-end metrics
//	go run ./bench -layers              plus the traced pass and layer probes
//	go run ./bench -selfcheck           two full sets, fail if they disagree
//	go run ./bench --workload hs_full_sw --seed 3 --seconds 20 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, the result
// as one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		role      = flag.String("role", "bench", "bench (load generator, the default) or server (the child under test)")
		name      = flag.String("workload", "", "run this one workload and print its result as the last line (default: all)")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Int("seconds", runSeconds, "measured seconds of one run")
		traced    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics (traced pass and probes)")
		layers    = flag.Bool("layers", false, "all-workload mode: add the traced pass and the layer probes")
		repeat    = flag.Int("repeat", 1, "all-workload mode: run this many full sets and print the spread")
		selfcheck = flag.Bool("selfcheck", false, "all-workload mode: -repeat 2, and fail if the sets differ by more than a metric's bound")
		traceOut  = flag.String("trace-out", filepath.Join(".bench_build", "trace"), "directory for the traced pass's span files")
	)
	config, tracer := serverFlags(flag.CommandLine)
	flag.Parse()
	if *role == "server" {
		os.Exit(serverMain(*config, *tracer, os.Stdin, os.Stdout))
	}
	if *seconds < 1 || flag.NArg() > 0 || *role != "bench" || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	printHeader(os.Stdout, *seed, dur)
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		var res *result
		if *traced == 1 {
			res = runLayers(w, *seed, dur, spanFile(*traceOut, w))
		} else {
			res = runEndToEnd(w, *seed, dur)
		}
		printResult(os.Stdout, w, res)
		if !emit(os.Stdout, res) || !res.Correct {
			os.Exit(1)
		}
		return
	}
	if *selfcheck {
		*repeat = max(*repeat, 2)
	}
	if !runSets(os.Stdout, *seed, dur, *repeat, *layers, *selfcheck, *traceOut) {
		os.Exit(1)
	}
}

// serverFlags declares the flags only the server role reads.
func serverFlags(fs *flag.FlagSet) (config *string, tracer *bool) {
	return fs.String("config", "QTLS", "server role: offload configuration, QTLS or SW"),
		fs.Bool("tracer", false, "server role: own a span recorder, switched by 'trace on' / 'trace off'")
}

func spanFile(dir string, w workload) string { return filepath.Join(dir, w.name+".spans.jsonl") }

// emit prints a JSON value as one line; false when it cannot.
func emit(out io.Writer, v any) bool {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encode result:", err)
		return false
	}
	fmt.Fprintf(out, "%s\n", line)
	return true
}

// printHeader records what a later reader needs to judge the numbers.
func printHeader(out io.Writer, seed int64, dur time.Duration) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(out, "# qtls live-stack benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d, cpu %q\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), model)
	fmt.Fprintf(out, "# seed %d, clients %d (closed loop, loopback), workers %d, measured window %s, set-ups per run %d\n",
		seed, clients, workers, dur, setupRounds)
}

// printResult prints every metric of one run by name with its unit, then
// the notes and the failed checks.
func printResult(out io.Writer, w workload, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%s/%s %.6g %s\n", w.name, n, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "# %s: %d operations attempted, %d failed, %d timed samples, elapsed %s\n",
		w.name, res.Attempted, res.Failed, res.samples, res.elapsed.Round(time.Millisecond))
	for _, f := range res.notes {
		fmt.Fprintf(out, "# %s: %s\n", w.name, f)
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "# %s: CHECK FAILED: %s\n", w.name, p)
	}
}

// suiteResult is the last line of the all-workload mode.
type suiteResult struct {
	Correct   bool                              `json:"correct"`
	Attempted int                               `json:"attempted"`
	Failed    int                               `json:"failed"`
	Workloads map[string]map[string]metricValue `json:"workloads"`
}

// runSets runs every workload `sets` times and prints, per metric and
// workload, the spread across the sets. With gate set it fails when two
// sets of an end-to-end metric lie further apart than the metric's bound.
func runSets(out io.Writer, seed int64, dur time.Duration, sets int, layers, gate bool, traceOut string) bool {
	sr := suiteResult{Correct: true, Workloads: make(map[string]map[string]metricValue)}
	values := make(map[string]map[string][]float64) // workload → metric → one value per set
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			runs := []*result{runEndToEnd(w, seed+int64(set), dur)}
			if layers {
				runs = append(runs, runLayers(w, seed+int64(set), dur, spanFile(traceOut, w)))
			}
			for _, res := range runs {
				printResult(out, w, res)
				sr.Correct = sr.Correct && res.Correct
				sr.Attempted += res.Attempted
				sr.Failed += res.Failed
				if sr.Workloads[w.name] == nil {
					sr.Workloads[w.name] = make(map[string]metricValue)
					values[w.name] = make(map[string][]float64)
				}
				for n, m := range res.Metrics {
					sr.Workloads[w.name][n] = m
					values[w.name][n] = append(values[w.name][n], m.Value)
				}
			}
		}
	}
	if layers {
		// The closure percentages ROADMAP #1 asks for, under their own names.
		for _, n := range []string{"hs_full_sw", "hs_full_qtls"} {
			if m, ok := sr.Workloads[n]["closure.pct"]; ok {
				fmt.Fprintf(out, "closure.%s_pct %.6g %s\n", n, m.Value, m.Unit)
			}
		}
	}
	if sets > 1 {
		fmt.Fprintf(out, "# spread over %d sets: workload/metric median q1 q3 min max iqr/median range/median bound\n", sets)
		for _, w := range workloads {
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				v, ok := values[w.name][d.name]
				if !ok {
					continue
				}
				s := summarize(v)
				verdict := ""
				if d.bound > 0 {
					verdict = fmt.Sprintf(" %.3f", d.bound)
					if gate && s.rangeShare() > d.bound {
						verdict += " DISAGREE"
						sr.Correct = false
					}
				}
				fmt.Fprintf(out, "# %s/%s %.6g %.6g %.6g %.6g %.6g %.3f %.3f%s\n",
					w.name, d.name, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.iqrShare(), s.rangeShare(), verdict)
			}
		}
	}
	return emit(out, sr) && sr.Correct
}
