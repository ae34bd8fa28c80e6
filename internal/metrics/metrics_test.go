package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestCounterAddNegativePanics(t *testing.T) {
	var c Counter
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Inc()
	g.Add(-6)
	if g.Value() != 5 {
		t.Fatalf("Value = %d, want 5", g.Value())
	}
}

func TestHistogramExactStats(t *testing.T) {
	h := NewHistogram(100)
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 10 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 5.5 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 10 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	// The nearest-rank p50 of 1..10 is 5.
	if got := h.Quantile(0.5); math.Abs(got-5) > RelErr*5 {
		t.Fatalf("P50 = %v", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("Q0 = %v", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("Q1 = %v", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0)
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	s := h.Snapshot()
	if s.Count != 0 {
		t.Fatalf("Snapshot.Count = %d", s.Count)
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	h := NewHistogram(8)
	h.Observe(3)
	if h.Quantile(-1) != 3 || h.Quantile(2) != 3 {
		t.Fatal("quantile should clamp q to [0,1]")
	}
}

// Property: mean always lies between min and max, and quantiles are
// monotonic in q.
func TestHistogramInvariants(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			// Durations in practice; avoid float summation overflow for
			// astronomically large generated values.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e15 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		h := NewHistogram(1024)
		for _, v := range clean {
			h.Observe(v)
		}
		const eps = 1e-6
		mean, lo, hi := h.Mean(), h.Min(), h.Max()
		span := math.Max(1, math.Abs(lo)+math.Abs(hi))
		if mean < lo-eps*span || mean > hi+eps*span {
			return false
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The fault/degradation counters surfaced in stub_status are reads of
// counts their owners keep: registered names list sorted, and a snapshot
// reflects the sources' current values.
func TestRegistryFaultCounterRegistration(t *testing.T) {
	r := NewRegistry()
	var fallbacks Counter
	names := []string{
		"qat_faults_injected",
		"qat_op_timeouts",
		"qat_sw_fallbacks",
		"qat_instance_trips",
	}
	for _, name := range names {
		read := func() int64 { return 0 }
		if name == "qat_sw_fallbacks" {
			read = fallbacks.Value
		}
		r.CounterFunc(name, read)
	}
	got := r.Names()
	if len(got) != len(names) {
		t.Fatalf("Names = %v", got)
	}
	for i, name := range []string{"qat_faults_injected", "qat_instance_trips", "qat_op_timeouts", "qat_sw_fallbacks"} {
		if got[i] != name {
			t.Fatalf("Names = %v, want %s at %d", got, name, i)
		}
	}
	fallbacks.Add(3)
	fallbacks.Inc()
	snap := r.Snapshot()
	if snap["qat_sw_fallbacks"] != 4 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap["qat_op_timeouts"] != 0 {
		t.Fatalf("untouched counter = %d", snap["qat_op_timeouts"])
	}
}

// Registrations and scrapes from many goroutines at once: every
// registration lands, and each counts once.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var src Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				src.Inc()
				if j%100 == 0 {
					r.CounterFunc("shared", func() int64 { return 1 })
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	r.CounterFunc("shared", src.Value)
	if v := r.Snapshot()["shared"]; v != 8080 {
		t.Fatalf("shared = %d, want 8000 + 80 registrations", v)
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram(8)
	h.ObserveDuration(time.Millisecond)
	s := h.Snapshot().String()
	if s == "" {
		t.Fatal("empty snapshot string")
	}
}

// Get-or-create must return one stable instance per (kind, name), and
// every counter registration must land, under concurrent first use across
// all three kinds.
func TestMetricsRegistryKindsConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.CounterFunc("kinds_shared", func() int64 { return 1 })
				r.Gauge("kinds_shared").Add(1)
				r.Histogram("kinds_shared").Observe(1)
			}
		}()
	}
	wg.Wait()
	if v := r.Snapshot()["kinds_shared"]; v != 4000 {
		t.Fatalf("counter = %d", v)
	}
	if v := r.Gauge("kinds_shared").Value(); v != 4000 {
		t.Fatalf("gauge = %d", v)
	}
	if n := r.Histogram("kinds_shared").Count(); n != 4000 {
		t.Fatalf("histogram count = %d", n)
	}
	if _, ok := r.LookupHistogram("kinds_shared"); !ok {
		t.Fatal("histogram not registered")
	}
	if _, ok := r.LookupHistogram("absent"); ok {
		t.Fatal("phantom histogram")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(64)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 || h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("pre-reset state wrong: n=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
		t.Fatalf("reset did not clear: n=%d sum=%v min=%v max=%v p99=%v",
			h.Count(), h.Sum(), h.Min(), h.Max(), h.Quantile(0.99))
	}
	if s := h.Snapshot(); s.Count != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("reset snapshot not empty: %+v", s)
	}
	// The min/max sentinels must be restored, not left at the previous
	// window's extremes.
	h.Observe(50)
	if h.Min() != 50 || h.Max() != 50 {
		t.Fatalf("post-reset extremes leak: min=%v max=%v", h.Min(), h.Max())
	}
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 50 || s.Max != 50 || s.P95 != 50 {
		t.Fatalf("post-reset snapshot wrong: %+v", s)
	}
}

func TestSnapshotCarriesP95(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if math.Abs(s.P95-950) > RelErr*950 {
		t.Fatalf("p95 = %v, want 950 within %v", s.P95, RelErr)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

// A counter another object keeps is read at scrape time: reads under one
// name add up, and every read sees the source's current value — there is
// no copy to fall behind.
func TestRegistryCounterFuncReadsAtScrape(t *testing.T) {
	r := NewRegistry()
	var a, b atomic.Int64
	r.CounterFunc("shared_total", a.Load)
	r.CounterFunc("shared_total", b.Load)
	a.Store(10)
	b.Store(5)
	if got := r.Snapshot()["shared_total"]; got != 15 {
		t.Fatalf("snapshot = %d, want 15", got)
	}
	a.Add(4)
	if got := r.Snapshot()["shared_total"]; got != 19 {
		t.Fatalf("snapshot after the source moved = %d, want 19", got)
	}
	if names := r.Names(); len(names) != 1 || names[0] != "shared_total" {
		t.Fatalf("Names = %v", names)
	}
}
