package metrics

import (
	"errors"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestMetricsPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("qat_sw_fallbacks", func() int64 { return 7 })
	r.CounterFunc(`qtls_polls{cause="heuristic"}`, func() int64 { return 3 })
	r.CounterFunc(`qtls_polls{cause="timer"}`, func() int64 { return 2 })
	r.Gauge(`qtls_inflight{worker="0"}`).Set(5)
	h := r.Histogram(`qtls_phase_ns{phase="pre"}`)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i * 1000))
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE qat_sw_fallbacks counter\n",
		"qat_sw_fallbacks 7\n",
		"# TYPE qtls_polls counter\n",
		`qtls_polls{cause="heuristic"} 3` + "\n",
		`qtls_polls{cause="timer"} 2` + "\n",
		"# TYPE qtls_inflight gauge\n",
		`qtls_inflight{worker="0"} 5` + "\n",
		"# TYPE qtls_phase_ns summary\n",
		`qtls_phase_ns{phase="pre",quantile="0.5"}`,
		`qtls_phase_ns{phase="pre",quantile="0.9"}`,
		`qtls_phase_ns{phase="pre",quantile="0.99"}`,
		`qtls_phase_ns_sum{phase="pre"} 5.05e+06` + "\n",
		`qtls_phase_ns_count{phase="pre"} 100` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// One TYPE line per family, emitted before that family's samples.
	if strings.Count(out, "# TYPE qtls_polls ") != 1 {
		t.Fatalf("duplicate TYPE line for labeled family:\n%s", out)
	}

	// Every line must be a comment or `name{labels} value`.
	line := regexp.MustCompile(`^(# .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+)$`)
	for _, l := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !line.MatchString(l) {
			t.Errorf("malformed exposition line: %q", l)
		}
	}
}

func TestMetricsPrometheusSanitizesNames(t *testing.T) {
	r := NewRegistry()
	one := func() int64 { return 1 }
	r.CounterFunc("bad-name.with spaces", one)
	r.CounterFunc("0starts_with_digit", one)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"bad_name_with_spaces 1\n", "_starts_with_digit 1\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsPrometheusEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty_ns")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "empty_ns_count 0\n") {
		t.Fatalf("empty histogram not exported:\n%s", out)
	}
}

func TestMetricsPrometheusAddExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("a_counter", func() int64 { return 1 })
	r.AddExposition(func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "# TYPE custom_series gauge\ncustom_series 42\n")
		return err
	})
	r.AddExposition(nil) // ignored
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "custom_series 42\n") {
		t.Fatalf("exposition hook output missing:\n%s", out)
	}
	if strings.Index(out, "custom_series") < strings.Index(out, "a_counter") {
		t.Fatalf("exposition hooks must run after built-in series:\n%s", out)
	}
	wantErr := errors.New("boom")
	r.AddExposition(func(io.Writer) error { return wantErr })
	if err := r.WritePrometheus(&sb); err != wantErr {
		t.Fatalf("exposition error not propagated: %v", err)
	}
}

// A summary's _sum and _count come from one moment: a scrape racing
// observations of a constant must never report a sum that is not that
// constant times the count.
func TestPrometheusSummarySumMatchesCount(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("const_ns")
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				h.Observe(1000)
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		sb.Reset()
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		var sum float64
		var count int64
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "const_ns_sum "); ok {
				sum, _ = strconv.ParseFloat(v, 64)
			}
			if v, ok := strings.CutPrefix(line, "const_ns_count "); ok {
				count, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		if sum != 1000*float64(count) {
			t.Fatalf("scrape %d: _sum = %v, _count = %d: not one moment", i, sum, count)
		}
	}
}
