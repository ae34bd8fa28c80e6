package flight

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

// Quarter-log2 value buckets. Values are nanoseconds; bucket i covers
// [2^(i/4), 2^((i+1)/4)), so quantiles interpolated from bucket counts
// carry at most ~±9% relative error — plenty for a telemetry p99 whose
// job is to move when the workload does. 160 buckets reach 2^40 ns
// (~18 minutes), far past any span this stack can produce.
const numValueBuckets = 160

// windowBucket is one time slice of a Window. epoch stamps which slice
// of absolute time the bucket currently holds; a bucket whose epoch is
// stale is logically empty and is recycled in place on the next write.
type windowBucket struct {
	epoch    int64 // nowNs / bucketNs when last written; -1 = never used
	count    int64
	sum      float64
	min, max float64
	vals     [numValueBuckets]int32
}

func (b *windowBucket) reset(epoch int64) {
	b.epoch = epoch
	b.count = 0
	b.sum = 0
	b.min = math.Inf(1)
	b.max = math.Inf(-1)
	b.vals = [numValueBuckets]int32{}
}

// Window is a sliding-window histogram: a ring of time-bucketed
// sub-histograms (default 12 × 5 s) merged on read. Unlike
// metrics.Histogram, whose reservoir remembers the whole process
// lifetime, a Window forgets — its p99 is the p99 of the last minute,
// which is the signal an anomaly trigger (or a future adaptive
// ShouldPoll) actually needs.
//
// The clock is injected: every method takes nowNs, so the hot path
// never calls time.Now (span-fed observations reuse the span's own
// timestamps) and tests drive bucket rotation deterministically.
type Window struct {
	mu       sync.Mutex
	bucketNs int64
	buckets  []windowBucket
}

// NewWindow builds a window of n time buckets of width each. n <= 0
// selects 12 and width <= 0 selects 5s (a 60 s window).
func NewWindow(n int, width time.Duration) *Window {
	if n <= 0 {
		n = 12
	}
	if width <= 0 {
		width = 5 * time.Second
	}
	w := &Window{bucketNs: int64(width), buckets: make([]windowBucket, n)}
	for i := range w.buckets {
		w.buckets[i].epoch = -1
	}
	return w
}

// Span returns the total window duration (buckets × width).
func (w *Window) Span() time.Duration {
	return time.Duration(w.bucketNs * int64(len(w.buckets)))
}

// valueBucket maps v (nanoseconds, clamped to >= 1) onto its
// quarter-log2 bucket without calling math.Log2.
func valueBucket(v float64) int {
	u := uint64(v)
	if u < 1 {
		u = 1
	}
	e := bits.Len64(u) - 1 // floor(log2 u)
	sub := 0
	if e >= 2 {
		sub = int(u>>(e-2)) & 3 // quartile of [2^e, 2^(e+1))
	}
	i := e*4 + sub
	if i >= numValueBuckets {
		i = numValueBuckets - 1
	}
	return i
}

// bucketMid returns the geometric midpoint of value bucket i.
func bucketMid(i int) float64 {
	return math.Exp2((float64(i) + 0.5) / 4)
}

// Observe records one value at nowNs. Allocation-free; the only cost is
// the window mutex (held for a handful of stores).
func (w *Window) Observe(v float64, nowNs int64) {
	epoch := nowNs / w.bucketNs
	idx := int(epoch % int64(len(w.buckets)))
	if idx < 0 {
		idx += len(w.buckets)
	}
	w.mu.Lock()
	b := &w.buckets[idx]
	if b.epoch != epoch {
		b.reset(epoch)
	}
	b.count++
	b.sum += v
	if v < b.min {
		b.min = v
	}
	if v > b.max {
		b.max = v
	}
	b.vals[valueBucket(v)]++
	w.mu.Unlock()
}

// WindowSnapshot is a point-in-time merge of a Window's live buckets.
// Min, Max and Mean are exact over the window; the quantiles are
// interpolated from the quarter-log2 buckets.
type WindowSnapshot struct {
	Count int64
	// Rate is events/second over the live portion of the window.
	Rate float64
	Min  float64
	Max  float64
	Mean float64
	P50  float64
	P95  float64
	P99  float64
}

// Snapshot merges every bucket still inside the window ending at nowNs.
func (w *Window) Snapshot(nowNs int64) WindowSnapshot {
	curEpoch := nowNs / w.bucketNs
	minEpoch := curEpoch - int64(len(w.buckets)) + 1

	var s WindowSnapshot
	var vals [numValueBuckets]int64
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	oldest := curEpoch

	w.mu.Lock()
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.epoch < minEpoch || b.epoch > curEpoch || b.count == 0 {
			continue
		}
		s.Count += b.count
		s.sumInto(b)
		for j, c := range b.vals {
			vals[j] += int64(c)
		}
		if b.epoch < oldest {
			oldest = b.epoch
		}
	}
	w.mu.Unlock()

	if s.Count == 0 {
		return WindowSnapshot{}
	}
	s.Mean = s.Mean / float64(s.Count) // sumInto accumulated the sum here
	// Live span: from the start of the oldest contributing bucket to
	// now, clamped to at least one bucket so early rates aren't inflated.
	spanNs := nowNs - oldest*w.bucketNs
	if spanNs < w.bucketNs {
		spanNs = w.bucketNs
	}
	s.Rate = float64(s.Count) / (float64(spanNs) / 1e9)
	s.P50 = quantileFromBuckets(vals[:], s.Count, 0.50, s.Min, s.Max)
	s.P95 = quantileFromBuckets(vals[:], s.Count, 0.95, s.Min, s.Max)
	s.P99 = quantileFromBuckets(vals[:], s.Count, 0.99, s.Min, s.Max)
	return s
}

// sumInto folds one bucket's exact aggregates into the snapshot (the
// running sum is parked in Mean until Snapshot divides it).
func (s *WindowSnapshot) sumInto(b *windowBucket) {
	s.Mean += b.sum
	if b.min < s.Min {
		s.Min = b.min
	}
	if b.max > s.Max {
		s.Max = b.max
	}
}

// quantileFromBuckets finds the q-quantile from merged value-bucket
// counts, clamped into the exact observed [min, max] so single-sample
// and narrow windows report real values instead of bucket midpoints
// outside the data.
func quantileFromBuckets(vals []int64, count int64, q, min, max float64) float64 {
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range vals {
		cum += c
		if cum >= rank {
			v := bucketMid(i)
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
	}
	return max
}
