// Package sim is a small deterministic discrete-event simulation kernel.
//
// A Simulation owns a virtual clock and a pending-event heap. Events are
// callbacks scheduled at absolute virtual times; ties are broken by
// scheduling order so runs are fully deterministic for a given seed.
// The kernel is single-threaded by design: model code runs inside event
// callbacks and must not block.
package sim

import (
	"math/rand"
	"time"
)

// Time is virtual time measured in nanoseconds since simulation start.
type Time int64

// Duration re-exports time.Duration for readability in model code.
type Duration = time.Duration

// ToDuration converts a virtual timestamp to a time.Duration offset.
func (t Time) ToDuration() time.Duration { return time.Duration(t) }

// Seconds returns the timestamp in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	fn  func()
}

// eventHeap is a binary min-heap on (at, seq). seq is unique, so the pop
// order is a total order: any correct heap fires the same sequence.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q
	return ev
}

// Simulation is a deterministic event-driven virtual-time executor.
type Simulation struct {
	now    Time
	seq    uint64
	events eventHeap
	rng    *rand.Rand
}

// New returns a simulation with the given RNG seed.
func New(seed int64) *Simulation {
	return &Simulation{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulation) Rand() *rand.Rand { return s.rng }

// At schedules fn at absolute virtual time at. Scheduling in the past
// (before Now) panics: that is always a model bug.
func (s *Simulation) At(at Time, fn func()) {
	if at < s.now {
		panic("sim: scheduling event in the past")
	}
	s.events.push(&event{at: at, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn after delay d (clamped to >= 0).
func (s *Simulation) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+Time(d), fn)
}

// Step executes the next pending event, advancing the clock. It reports
// whether an event was executed.
func (s *Simulation) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	ev := s.events.pop()
	s.now = ev.at
	ev.fn()
	return true
}

// RunUntil executes events until the clock would pass the deadline or no
// events remain, then advances the clock to the deadline.
func (s *Simulation) RunUntil(deadline Time) {
	for len(s.events) > 0 && s.events[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d virtual time.
func (s *Simulation) RunFor(d Duration) { s.RunUntil(s.now + Time(d)) }
