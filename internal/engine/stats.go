package engine

import "qtls/internal/qat"

// This file is the engine's observable surface: the per-class in-flight
// counters that feed the heuristic polling scheme (§4.3), the response
// polling entry points, and the health/statistics snapshots consumed by
// qatinfo and the server's stub_status endpoint.

func (e *Engine) onSubmit(class Class) {
	e.inflight[class].Add(1)
	e.submitted.Add(1)
}

func (e *Engine) onResponse(class Class) {
	e.inflight[class].Add(-1)
	e.retrieved.Add(1)
}

// Poll retrieves up to max QAT responses (0 = all available), running
// response callbacks on the calling goroutine. It returns the number
// retrieved.
func (e *Engine) Poll(max int) int {
	n := e.pollAll(max)
	e.polls.Add(1)
	if n == 0 {
		e.pollsEmpty.Add(1)
	}
	return n
}

// pollAll drains responses from every assigned instance.
func (e *Engine) pollAll(max int) int {
	n := 0
	for _, inst := range e.insts {
		n += inst.Poll(max)
	}
	return n
}

// InflightTotal returns Rtotal — the number of submitted-but-unretrieved
// crypto requests across all classes (§4.3).
func (e *Engine) InflightTotal() int {
	var t int64
	for i := range e.inflight {
		t += e.inflight[i].Load()
	}
	return int(t)
}

// InflightAsym returns Rasym, the in-flight asymmetric requests.
func (e *Engine) InflightAsym() int { return int(e.inflight[ClassAsym].Load()) }

// Inflight returns the in-flight count for one class.
func (e *Engine) Inflight(c Class) int { return int(e.inflight[c].Load()) }

// InstanceHealth is one crypto instance's degradation view: its breaker
// state plus the device-level slot accounting.
type InstanceHealth struct {
	// Index is the instance's position in the engine's rotation.
	Index int
	// Endpoint is the QAT endpoint the instance's rings belong to.
	Endpoint int
	// State is the instance's circuit state (closed when health
	// management is off).
	State qat.BreakerState
	// Breaker is the circuit's outcome snapshot (zero when health
	// management is off).
	Breaker qat.BreakerSnapshot
	// Inflight is the instance's occupied ring slots.
	Inflight int
	// Leaked is the ring slots currently leaked by stalled requests.
	Leaked int
}

// Health reports per-instance breaker and slot state (for qatinfo and the
// server's stub_status).
func (e *Engine) Health() []InstanceHealth {
	out := make([]InstanceHealth, len(e.insts))
	for i, inst := range e.insts {
		b := inst.Breaker()
		out[i] = InstanceHealth{
			Index:    i,
			Endpoint: inst.Endpoint(),
			State:    b.State,
			Breaker:  b,
			Inflight: inst.Inflight(),
			Leaked:   inst.Leaked(),
		}
	}
	return out
}

// Stats is a snapshot of engine counters.
type Stats struct {
	Submitted  int64
	Retrieved  int64
	RingFulls  int64
	Polls      int64
	PollsEmpty int64

	// Degradation counters (zero unless hardening knobs are set and the
	// device misbehaves).
	Timeouts    int64
	SWFallbacks int64
	Retries     int64
	VerifyFails int64
	Trips       int64
	Cancels     int64

	// PlacementFlips counts ops routed to a different device than their
	// predecessor (zero with a single device).
	PlacementFlips int64
}

// Stats returns cumulative counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Submitted:      e.submitted.Load(),
		Retrieved:      e.retrieved.Load(),
		RingFulls:      e.ringFulls.Load(),
		Polls:          e.polls.Load(),
		PollsEmpty:     e.pollsEmpty.Load(),
		Timeouts:       e.timeouts.Load(),
		SWFallbacks:    e.fallbacks.Load(),
		Retries:        e.retries.Load(),
		VerifyFails:    e.verifyFails.Load(),
		Trips:          e.trips.Load(),
		Cancels:        e.cancels.Load(),
		PlacementFlips: e.placementFlips.Load(),
	}
}
