// Package metrics provides lightweight counters, gauges and latency
// histograms used by both the functional QTLS stack and the discrete-event
// performance model. All types are safe for concurrent use unless noted.
package metrics

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
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

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
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
