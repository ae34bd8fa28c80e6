// Package metrics provides lightweight counters, gauges and latency
// histograms used by both the functional QTLS stack and the discrete-event
// performance model. All types are safe for concurrent use unless noted.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which must be >= 0) to the counter.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores n as the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds delta (possibly negative) to the current value.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records a distribution of values (typically durations in
// nanoseconds). It keeps exact samples up to a cap, after which it
// reservoir-samples, and it always tracks exact count/sum/min/max.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	count   int64
	sum     float64
	min     float64
	max     float64
	capN    int
	rng     uint64 // xorshift state for reservoir sampling

	// sorted caches the sorted view of samples for quantile queries;
	// Observe invalidates it, so repeated scrapes of an idle histogram
	// never re-sort and the scrape path stays off the Observe critical
	// section for all but one sort per batch of observations.
	sorted []float64
	dirty  bool
}

// NewHistogram returns a histogram that retains at most capN samples for
// percentile estimation. capN <= 0 selects a default of 16384.
func NewHistogram(capN int) *Histogram {
	if capN <= 0 {
		capN = 16384
	}
	return &Histogram{
		samples: make([]float64, 0, min(capN, 1024)),
		min:     math.Inf(1),
		max:     math.Inf(-1),
		capN:    capN,
		rng:     0x9e3779b97f4a7c15,
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < h.capN {
		h.samples = append(h.samples, v)
		h.dirty = true
		return
	}
	// Reservoir sampling: replace a random existing sample with
	// probability capN/count.
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	idx := h.rng % uint64(h.count)
	if idx < uint64(h.capN) {
		h.samples[idx] = v
		h.dirty = true
	}
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d)) }

// Reset discards every observation, returning the histogram to its
// freshly constructed state (min/max sentinels included) while keeping
// the sample capacity. Windowed consumers that merge-and-reset between
// intervals depend on the sentinels being restored: a stale min/max
// would leak the previous window's extremes into the next Snapshot.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = h.samples[:0]
	h.count = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
	h.sorted = h.sorted[:0]
	h.dirty = false
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of all observations (0 if none).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (0 if none).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 if none).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// sortedLocked returns the sorted view of the retained samples,
// rebuilding the cache only when observations arrived since the last
// query. Callers must hold h.mu.
func (h *Histogram) sortedLocked() []float64 {
	if h.dirty || h.sorted == nil {
		h.sorted = append(h.sorted[:0], h.samples...)
		sort.Float64s(h.sorted)
		h.dirty = false
	}
	return h.sorted
}

// quantileOf interpolates the q-quantile from a sorted, non-empty view.
func quantileOf(sorted []float64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantile returns the q-quantile (0 <= q <= 1) estimated from the retained
// samples. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return quantileOf(h.sortedLocked(), q)
}

// Snapshot is a point-in-time summary of a histogram.
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

// Snapshot returns a summary of the histogram. All fields come from one
// lock acquisition, so Count and Sum describe the same moment, and from at
// most one sort (reusing the cached sorted view), so a scrape does not
// stall concurrent Observe callers the way per-quantile copy+sort calls
// would.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Snapshot{Count: h.count, Sum: h.sum}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.count)
	s.Min = h.min
	s.Max = h.max
	if len(h.samples) > 0 {
		sorted := h.sortedLocked()
		s.P50 = quantileOf(sorted, 0.50)
		s.P90 = quantileOf(sorted, 0.90)
		s.P95 = quantileOf(sorted, 0.95)
		s.P99 = quantileOf(sorted, 0.99)
	} else {
		// All samples evicted (e.g. Reset raced a merge): the exact
		// extremes still bound the distribution, so report them instead
		// of zeros — windowed merge paths read Min/Max from here.
		s.P50, s.P90, s.P95, s.P99 = s.Max, s.Max, s.Max, s.Max
	}
	return s
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

// Registry is a set of named counters, gauges and histograms — the
// export surface behind the server's stub_status output and the
// Prometheus-format /metrics endpoint. Gauge and Histogram are
// get-or-create, so independent components can share one registry
// without coordination. A counter is never copied in: CounterFunc
// registers a read of a count its owner keeps, taken at scrape time. A
// name may carry a Prometheus label set (`qtls_inflight{worker="0"}`);
// the exposition writer groups such series under one metric family.
// Counters, gauges and histograms live in separate namespaces; reusing
// one name across kinds is allowed but makes for a confusing scrape, so
// don't.
type Registry struct {
	mu       sync.Mutex
	counters map[string][]func() int64 // reads per name, summed at scrape
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	expos    []func(io.Writer) error
}

// counterValue sums the reads registered under one name. Callers hold the
// registry lock.
func counterValue(reads []func() int64) int64 {
	var v int64
	for _, read := range reads {
		v += read()
	}
	return v
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string][]func() int64),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// AddExposition appends a custom exposition section: fn is invoked at
// the end of every WritePrometheus call with the same writer, so
// subsystems with their own series shapes (the flight recorder's
// windowed summaries) can extend /metrics without the registry learning
// their types. fn must write complete, well-formed exposition lines.
func (r *Registry) AddExposition(fn func(io.Writer) error) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expos = append(r.expos, fn)
}

// CounterFunc exports a monotonic count owned elsewhere under name: read
// is called at every scrape, from whichever goroutine scrapes, so it must
// be safe for concurrent use (an atomic load). Reads registered under one
// name add up, so per-worker counts export as one server-wide counter.
func (r *Registry) CounterFunc(name string, read func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = append(r.counters[name], read)
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it on first use
// with the default sample cap.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(0)
		r.hists[name] = h
	}
	return h
}

// LookupHistogram returns the named histogram if it has been registered.
func (r *Registry) LookupHistogram(name string) (*Histogram, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	return h, ok
}

// Names returns the registered counter names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the current value of every registered counter.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, reads := range r.counters {
		out[name] = counterValue(reads)
	}
	return out
}
