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

// Timer is a scheduled event; its handle can cancel it.
type Timer struct {
	at     Time
	seq    uint64 // tie-breaker: FIFO among same-time events
	fn     func()
	dead   bool // cancelled
	popped bool // left the heap (fired or discarded)
}

// Stop cancels the timer. It reports whether the event had not yet fired
// or been stopped.
func (t *Timer) Stop() bool {
	if t == nil || t.fn == nil || t.dead || t.popped {
		return false
	}
	t.dead = true
	return true
}

// eventHeap is a binary min-heap on (at, seq). seq is unique, so the pop
// order is a total order: any correct heap fires the same sequence.
type eventHeap []*Timer

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev *Timer) {
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

func (h *eventHeap) pop() *Timer {
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
	ev.popped = true
	return ev
}

// Simulation is a deterministic event-driven virtual-time executor.
type Simulation struct {
	now    Time
	seq    uint64
	events eventHeap
	rng    *rand.Rand
	fired  uint64
}

// New returns a simulation with the given RNG seed.
func New(seed int64) *Simulation {
	return &Simulation{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulation) Rand() *rand.Rand { return s.rng }

// EventsFired returns the number of events executed so far.
func (s *Simulation) EventsFired() uint64 { return s.fired }

// Pending returns the number of scheduled (uncancelled popped excluded)
// events still in the heap, including cancelled ones not yet discarded.
func (s *Simulation) Pending() int { return len(s.events) }

// At schedules fn at absolute virtual time at. Scheduling in the past
// (before Now) panics: that is always a model bug.
func (s *Simulation) At(at Time, fn func()) *Timer {
	if at < s.now {
		panic("sim: scheduling event in the past")
	}
	ev := &Timer{at: at, seq: s.seq, fn: fn}
	s.seq++
	s.events.push(ev)
	return ev
}

// After schedules fn after delay d (clamped to >= 0).
func (s *Simulation) After(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+Time(d), fn)
}

// Step executes the next pending event, advancing the clock. It reports
// whether an event was executed.
func (s *Simulation) Step() bool {
	for len(s.events) > 0 {
		ev := s.events.pop()
		if ev.dead {
			continue
		}
		s.now = ev.at
		s.fired++
		ev.fn()
		return true
	}
	return false
}

// RunUntil executes events until the clock would pass the deadline or no
// events remain. The clock is left at the time of the last executed event
// (or advanced to deadline when drained earlier and advance is true).
func (s *Simulation) RunUntil(deadline Time) {
	for len(s.events) > 0 {
		// Peek.
		next := s.events[0]
		if next.dead {
			s.events.pop()
			continue
		}
		if next.at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d virtual time.
func (s *Simulation) RunFor(d Duration) { s.RunUntil(s.now + Time(d)) }

// Drain runs events until none remain or the safety cap of maxEvents is
// reached; it reports whether the heap was fully drained.
func (s *Simulation) Drain(maxEvents uint64) bool {
	for i := uint64(0); i < maxEvents; i++ {
		if !s.Step() {
			return true
		}
	}
	return len(s.events) == 0
}
