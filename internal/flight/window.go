package flight

import (
	"sync"
	"time"

	"qtls/internal/metrics"
)

// windowSlot is one time slice of a Window. epoch stamps which slice of
// absolute time the slot currently holds; a slot whose epoch is stale is
// logically empty and is recycled in place on the next write.
type windowSlot struct {
	epoch int64 // nowNs / bucketNs when last written; -1 = never used
	metrics.Dist
}

// Window is a sliding-window histogram: a ring of time-sliced
// metrics.Dist (default 12 × 5 s) merged on read, so its quantiles carry
// the same bucket layout and metrics.RelErr as metrics.Histogram. Unlike
// a Histogram, which remembers everything since its last Reset, a Window
// forgets — its p99 is the p99 of the last minute, which is the signal
// the anomaly trigger needs.
//
// The clock is injected: every method takes nowNs, so the hot path
// never calls time.Now (span-fed observations reuse the span's own
// timestamps) and tests drive slot rotation deterministically.
type Window struct {
	mu       sync.Mutex
	bucketNs int64
	slots    []windowSlot
}

// NewWindow builds a window of n time slices of width each. n <= 0
// selects 12 and width <= 0 selects 5s (a 60 s window).
func NewWindow(n int, width time.Duration) *Window {
	if n <= 0 {
		n = 12
	}
	if width <= 0 {
		width = 5 * time.Second
	}
	w := &Window{bucketNs: int64(width), slots: make([]windowSlot, n)}
	for i := range w.slots {
		w.slots[i].epoch = -1
	}
	return w
}

// Span returns the total window duration (slices × width).
func (w *Window) Span() time.Duration {
	return time.Duration(w.bucketNs * int64(len(w.slots)))
}

// Observe records one value at nowNs. Allocation-free; the only cost is
// the window mutex (held for a handful of stores).
func (w *Window) Observe(v float64, nowNs int64) {
	epoch := nowNs / w.bucketNs
	idx := int(epoch % int64(len(w.slots)))
	if idx < 0 {
		idx += len(w.slots)
	}
	w.mu.Lock()
	s := &w.slots[idx]
	if s.epoch != epoch {
		*s = windowSlot{epoch: epoch}
	}
	s.Observe(v)
	w.mu.Unlock()
}

// WindowSnapshot is a point-in-time merge of a Window's live slices: the
// metrics summary of everything still inside the window, plus its rate.
type WindowSnapshot struct {
	metrics.Snapshot
	// Rate is events/second over the live portion of the window.
	Rate float64
}

// Snapshot merges every slice still inside the window ending at nowNs.
func (w *Window) Snapshot(nowNs int64) WindowSnapshot {
	curEpoch := nowNs / w.bucketNs
	minEpoch := curEpoch - int64(len(w.slots)) + 1
	var merged metrics.Dist
	oldest := curEpoch
	w.mu.Lock()
	for i := range w.slots {
		s := &w.slots[i]
		if s.epoch < minEpoch || s.epoch > curEpoch || s.Count() == 0 {
			continue
		}
		merged.Merge(&s.Dist)
		oldest = min(oldest, s.epoch)
	}
	w.mu.Unlock()

	if merged.Count() == 0 {
		return WindowSnapshot{}
	}
	// Live span: from the start of the oldest contributing slice to now,
	// clamped to at least one slice so early rates aren't inflated.
	spanNs := max(nowNs-oldest*w.bucketNs, w.bucketNs)
	return WindowSnapshot{
		Snapshot: merged.Snapshot(),
		Rate:     float64(merged.Count()) / (float64(spanNs) / 1e9),
	}
}
