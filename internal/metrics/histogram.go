package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"
)

// Quarter-log2 value buckets. Values are nanoseconds (any non-negative
// magnitude works; values below 2 share bucket 0). From 4 up, octave
// [2^e, 2^(e+1)) splits into four equal-width buckets, and a quantile reads as the
// geometric midpoint 2^((i+0.5)/4) of its bucket i. For values >= 4
// that midpoint lies within [-13.6 %, +9.1 %] of every value in the
// bucket, so a quantile is within RelErr of the exact nearest-rank
// quantile of the same observations. 160 buckets reach 2^40 ns (~18
// minutes), far past any span this stack can produce; larger values
// share the last bucket.
const numBuckets = 160

// RelErr bounds |estimate - exact| / exact for every quantile of values
// >= 4, where exact is the nearest-rank quantile (the ceil(q·n)-th
// smallest value).
const RelErr = 0.136

// valueBucket maps v onto its quarter-log2 bucket without calling
// math.Log2.
func valueBucket(v float64) int {
	if v < 1 {
		return 0
	}
	u := uint64(v)
	e := bits.Len64(u) - 1 // floor(log2 u)
	sub := 0
	if e >= 2 {
		sub = int(u>>(e-2)) & 3 // quarter of [2^e, 2^(e+1))
	}
	return min(e*4+sub, numBuckets-1)
}

// bucketMid returns the geometric midpoint of value bucket i.
func bucketMid(i int) float64 {
	return math.Exp2((float64(i) + 0.5) / 4)
}

// Dist is the one distribution estimator: exact count, sum, min and max
// plus quarter-log2 bucket counts. The zero value is an empty
// distribution. It is not safe for concurrent use: Histogram puts a
// mutex around one, and flight.Window keeps a ring of them.
type Dist struct {
	count    int64
	sum      float64
	min, max float64
	buckets  [numBuckets]int64
}

// Observe records one value.
func (d *Dist) Observe(v float64) {
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if d.count == 0 || v > d.max {
		d.max = v
	}
	d.count++
	d.sum += v
	d.buckets[valueBucket(v)]++
}

// Merge folds o's observations into d.
func (d *Dist) Merge(o *Dist) {
	if o.count == 0 {
		return
	}
	if d.count == 0 || o.min < d.min {
		d.min = o.min
	}
	if d.count == 0 || o.max > d.max {
		d.max = o.max
	}
	d.count += o.count
	d.sum += o.sum
	for i, c := range o.buckets {
		d.buckets[i] += c
	}
}

// Count returns the number of observations.
func (d *Dist) Count() int64 { return d.count }

// Quantile returns the q-quantile: the midpoint of the bucket holding
// the ceil(q·n)-th smallest value, clamped into the exact [min, max] so
// narrow distributions report real values. q <= 0 and q >= 1 return the
// exact min and max. An empty distribution reports 0.
func (d *Dist) Quantile(q float64) float64 {
	switch {
	case d.count == 0:
		return 0
	case q <= 0:
		return d.min
	case q >= 1:
		return d.max
	}
	rank := max(int64(math.Ceil(q*float64(d.count))), 1)
	var cum int64
	for i, c := range d.buckets {
		if cum += c; cum >= rank {
			return min(max(bucketMid(i), d.min), d.max)
		}
	}
	return d.max
}

// Snapshot summarizes the distribution.
func (d *Dist) Snapshot() Snapshot {
	if d.count == 0 {
		return Snapshot{}
	}
	return Snapshot{
		Count: d.count,
		Sum:   d.sum,
		Mean:  d.sum / float64(d.count),
		Min:   d.min,
		Max:   d.max,
		P50:   d.Quantile(0.50),
		P90:   d.Quantile(0.90),
		P95:   d.Quantile(0.95),
		P99:   d.Quantile(0.99),
	}
}

// Histogram records a distribution of values (typically durations in
// nanoseconds): a mutex around one Dist. Memory is fixed, Observe never
// allocates, and the zero value is ready to use.
type Histogram struct {
	mu sync.Mutex
	d  Dist
}

// NewHistogram returns an empty histogram, the same as new(Histogram).
// Its argument is ignored; it stays only until the benchmark's call
// site drops it.
func NewHistogram(int) *Histogram { return &Histogram{} }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.d.Observe(v)
	h.mu.Unlock()
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d)) }

// Reset discards every observation.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.d = Dist{}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.Snapshot().Count }

// Mean returns the arithmetic mean of all observations (0 if none).
func (h *Histogram) Mean() float64 { return h.Snapshot().Mean }

// Min returns the smallest observation (0 if none).
func (h *Histogram) Min() float64 { return h.Snapshot().Min }

// Max returns the largest observation (0 if none).
func (h *Histogram) Max() float64 { return h.Snapshot().Max }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.Snapshot().Sum }

// Quantile returns the q-quantile (see Dist.Quantile).
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d.Quantile(q)
}

// Snapshot returns a summary of the histogram, taken under one lock
// acquisition so Count and Sum describe the same moment.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d.Snapshot()
}

// Snapshot is a point-in-time summary of a distribution. Count, Sum,
// Mean, Min and Max are exact; the quantiles carry the bucket layout's
// RelErr.
type Snapshot struct {
	Count int64
	Sum   float64
	Mean  float64
	Min   float64
	Max   float64
	P50   float64
	P90   float64
	P95   float64
	P99   float64
}

// String renders the snapshot treating values as nanoseconds.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p90=%s p99=%s max=%s",
		s.Count,
		time.Duration(s.Mean),
		time.Duration(s.P50),
		time.Duration(s.P90),
		time.Duration(s.P99),
		time.Duration(s.Max))
}
