package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestValueBucketMonotone(t *testing.T) {
	prev := -1
	for _, v := range []float64{0, 1, 2, 3, 4, 7, 8, 1000, 1e6, 1e9, 1e12, 1e15} {
		b := valueBucket(v)
		if b < prev {
			t.Fatalf("valueBucket not monotone at %v: %d < %d", v, b, prev)
		}
		if b < 0 || b >= numBuckets {
			t.Fatalf("valueBucket(%v) = %d out of range", v, b)
		}
		prev = b
	}
	// The midpoint of a value's bucket is within one quarter-octave.
	for _, v := range []float64{100, 1e5, 3e6, 7e8} {
		mid := bucketMid(valueBucket(v))
		if r := mid / v; r < 0.8 || r > 1.25 {
			t.Fatalf("bucketMid(valueBucket(%v)) = %v, ratio %v out of quarter-octave", v, mid, r)
		}
	}
}

// RelErr is the worst case of the layout: a bucket's geometric midpoint
// against either edge of the bucket, over the four quarters of an octave.
func TestRelErrCoversEveryBucket(t *testing.T) {
	worst := 0.0
	for i := 8; i < 12; i++ { // the quarters of [4, 8)
		lo := math.Ldexp(1+float64(i-8)/4, 2)
		hi := lo + 1
		mid := bucketMid(i)
		if valueBucket(lo) != i || valueBucket(math.Nextafter(hi, 0)) != i {
			t.Fatalf("bucket %d is not [%v, %v)", i, lo, hi)
		}
		worst = max(worst, mid/lo-1, 1-mid/hi)
	}
	if worst > RelErr || worst < RelErr-0.001 {
		t.Fatalf("layout error %v, RelErr %v", worst, RelErr)
	}
}

// The quantiles track every observation, including ones made after a read,
// within RelErr of the nearest-rank quantile; q = 1 is the exact max.
func TestHistogramQuantileBound(t *testing.T) {
	h := NewHistogram(0)
	for i := 0; i < 100000; i++ {
		h.Observe(float64(i))
	}
	if med := h.Quantile(0.5); math.Abs(med-49999) > RelErr*49999 {
		t.Fatalf("median = %v, want 49999 within %v", med, RelErr)
	}
	h.Reset()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("max quantile = %v", q)
	}
	if q := h.Quantile(0.5); math.Abs(q-50) > RelErr*50 {
		t.Fatalf("p50 = %v", q)
	}
	h.Observe(1000)
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("quantile after a new max = %v, want 1000", q)
	}
	snap := h.Snapshot()
	if snap.Count != 101 || snap.Max != 1000 || math.Abs(snap.P99-100) > RelErr*100 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// Observe is on every span's commit path: it must not allocate.
func TestHistogramObserveAllocations(t *testing.T) {
	h := NewHistogram(0)
	v := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		v += 997
		h.Observe(v)
	}); n != 0 {
		t.Fatalf("Observe allocates %v per call", n)
	}
}

// Observers, scrapes and resets race on one histogram: every snapshot is
// one moment, so its quantiles lie in its own [min, max] and its sum is
// the constant times its count.
func TestHistogramConcurrentObserveSnapshotReset(t *testing.T) {
	h := NewHistogram(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(1000)
				if i%1000 == 0 {
					h.Reset()
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		if s.Sum != 1000*float64(s.Count) {
			t.Fatalf("snapshot %d: sum %v for count %d", i, s.Sum, s.Count)
		}
		if s.Count > 0 && (s.Min != 1000 || s.Max != 1000 || s.P50 != 1000 || s.P99 != 1000) {
			t.Fatalf("snapshot %d: %+v", i, s)
		}
	}
	wg.Wait()
}
