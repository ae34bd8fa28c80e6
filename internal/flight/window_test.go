package flight

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"qtls/internal/metrics"
)

func TestWindowObserveAndSnapshot(t *testing.T) {
	w := NewWindow(4, time.Second)
	base := int64(100 * time.Second)
	for i := 0; i < 100; i++ {
		w.Observe(1000, base+int64(i)*int64(10*time.Millisecond))
	}
	s := w.Snapshot(base + int64(time.Second))
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Min != 1000 || s.Max != 1000 || s.Mean != 1000 {
		t.Fatalf("min/mean/max = %v/%v/%v, want 1000", s.Min, s.Mean, s.Max)
	}
	// Quantiles clamp into [min, max], so a constant stream reports the
	// constant exactly despite the log-bucket approximation.
	if s.P50 != 1000 || s.P95 != 1000 || s.P99 != 1000 {
		t.Fatalf("quantiles = %v/%v/%v, want 1000", s.P50, s.P95, s.P99)
	}
	if s.Rate < 50 || s.Rate > 150 {
		t.Fatalf("rate = %v, want ~100/s", s.Rate)
	}
}

func TestWindowEmpty(t *testing.T) {
	w := NewWindow(4, time.Second)
	if s := w.Snapshot(int64(time.Hour)); s.Count != 0 || s.P99 != 0 || s.Max != 0 || s.Rate != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

// Bucket rotation: observations older than the window must fall out as
// the injected clock advances, bucket by bucket.
func TestWindowBucketRotation(t *testing.T) {
	w := NewWindow(4, time.Second) // 4 s window
	base := int64(50 * time.Second)
	w.Observe(100, base)                    // bucket epoch 50
	w.Observe(200, base+int64(time.Second)) // epoch 51

	if s := w.Snapshot(base + int64(time.Second)); s.Count != 2 {
		t.Fatalf("both buckets live: count = %d, want 2", s.Count)
	}
	// At t=54s the window is [51, 54]: epoch 50 must have rotated out.
	if s := w.Snapshot(base + 4*int64(time.Second)); s.Count != 1 || s.Min != 200 {
		t.Fatalf("after one rotation: count=%d min=%v, want 1/200", s.Count, s.Min)
	}
	// At t=55s everything is stale.
	if s := w.Snapshot(base + 5*int64(time.Second)); s.Count != 0 {
		t.Fatalf("after full rotation: count = %d, want 0", s.Count)
	}
	// A write into a recycled ring slot must reset the stale bucket, not
	// merge with it.
	w.Observe(300, base+4*int64(time.Second)) // epoch 54, same slot as 50
	if s := w.Snapshot(base + 4*int64(time.Second)); s.Count != 2 || s.Min != 200 || s.Max != 300 {
		t.Fatalf("recycled bucket: %+v", s)
	}
}

// The acceptance property: a latency step is visible in the windowed
// p99 within one bucket rotation, while a lifetime histogram would
// still be dominated by the old regime.
func TestWindowLatencyStepDetectedWithinOneBucket(t *testing.T) {
	w := NewWindow(12, 5*time.Second) // the default 60 s window
	base := int64(1000 * time.Second)
	healthy := float64(100 * time.Microsecond)
	slow := float64(10 * time.Millisecond)

	// 55 s of healthy traffic, 100 observations per bucket.
	now := base
	for b := 0; b < 11; b++ {
		for i := 0; i < 100; i++ {
			w.Observe(healthy, now)
			now += int64(50 * time.Millisecond)
		}
	}
	before := w.Snapshot(now)
	if before.P99 > 2*healthy {
		t.Fatalf("healthy p99 = %v, want ~%v", before.P99, healthy)
	}

	// The step: one bucket's worth of slow observations.
	stepStart := now
	for i := 0; i < 100; i++ {
		w.Observe(slow, now)
		now += int64(50 * time.Millisecond)
	}
	after := w.Snapshot(now)
	if now-stepStart > int64(5*time.Second)+int64(50*time.Millisecond) {
		t.Fatalf("step spanned %v, exceeds one bucket", time.Duration(now-stepStart))
	}
	if after.P99 < slow/2 {
		t.Fatalf("windowed p99 = %v after step, want >= %v (did not react within one bucket)",
			time.Duration(int64(after.P99)), time.Duration(int64(slow/2)))
	}
	if after.Max != slow {
		t.Fatalf("windowed max = %v, want %v", after.Max, slow)
	}
}

func TestWindowQuantileSpread(t *testing.T) {
	w := NewWindow(12, 5*time.Second)
	base := int64(10 * time.Second)
	// 99 fast + 1 slow: p50 fast, p99 picks up the tail once rank
	// reaches it.
	for i := 0; i < 99; i++ {
		w.Observe(1e5, base)
	}
	w.Observe(1e8, base)
	s := w.Snapshot(base)
	if s.P50 > 2e5 {
		t.Fatalf("p50 = %v, want ~1e5", s.P50)
	}
	if s.P99 > 2e5 {
		t.Fatalf("p99 = %v should still be fast at 1%% tail", s.P99)
	}
	if math.Abs(s.Max-1e8) > 1 {
		t.Fatalf("max = %v, want 1e8", s.Max)
	}
	// Push the tail past 1%: p99 must move to the slow mode.
	for i := 0; i < 4; i++ {
		w.Observe(1e8, base)
	}
	if s := w.Snapshot(base); s.P99 < 5e7 {
		t.Fatalf("p99 = %v after 5%% tail, want ~1e8", s.P99)
	}
}

// One estimator: a metrics.Histogram and a one-slice Window fed the same
// seeded values report the same snapshot field for field, and every
// quantile lies in the exact [min, max] and within metrics.RelErr of the
// exact nearest-rank quantile (the ceil(q·n)-th smallest value).
func TestHistogramAndWindowShareOneEstimator(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 1))
	shapes := []func() float64{
		func() float64 { return math.Exp2(2 + 30*rng.Float64()) },                        // log-uniform over [4, 2^32)
		func() float64 { return 80e3 + 80e3*rng.Float64() },                              // one narrow mode
		func() float64 { return []float64{1e5, 2e7}[rng.IntN(2)] * (1 + rng.Float64()) }, // two modes
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(3000)
		next := shapes[trial%len(shapes)]
		h := new(metrics.Histogram)
		w := NewWindow(1, time.Hour)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = next()
			h.Observe(vals[i])
			w.Observe(vals[i], 0)
		}
		slices.Sort(vals)
		hs, ws := h.Snapshot(), w.Snapshot(0)
		if hs != ws.Snapshot {
			t.Fatalf("trial %d: histogram %+v != window %+v", trial, hs, ws.Snapshot)
		}
		if hs.Count != int64(n) || hs.Min != vals[0] || hs.Max != vals[n-1] {
			t.Fatalf("trial %d: exact stats %+v, want n=%d min=%v max=%v", trial, hs, n, vals[0], vals[n-1])
		}
		qs := []float64{0.5, 0.9, 0.95, 0.99, rng.Float64(), rng.Float64()}
		for i, q := range qs {
			got := h.Quantile(q)
			if i < 4 && got != [...]float64{hs.P50, hs.P90, hs.P95, hs.P99}[i] {
				t.Fatalf("trial %d: Quantile(%v) = %v disagrees with Snapshot %+v", trial, q, got, hs)
			}
			exact := vals[max(int(math.Ceil(q*float64(n))), 1)-1]
			if got < hs.Min || got > hs.Max {
				t.Fatalf("trial %d: q%v = %v outside [%v, %v]", trial, q, got, hs.Min, hs.Max)
			}
			if math.Abs(got-exact) > metrics.RelErr*exact {
				t.Fatalf("trial %d (n=%d): q%v = %v, exact %v: error %.1f%% above %.1f%%",
					trial, n, q, got, exact, 100*math.Abs(got-exact)/exact, 100*metrics.RelErr)
			}
		}
	}
}
