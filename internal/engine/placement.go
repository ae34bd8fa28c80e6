package engine

import (
	"errors"

	"qtls/internal/flight"
	"qtls/internal/offload"
	"qtls/internal/qat"
	"qtls/internal/trace"
)

// This file is the engine's routing: the one function that puts a request
// on a ring (route), and the device-placement state that orders the
// instances it tries. The engine prefers a device set: every device under
// offload.PlacementSingle — the only mode the paper's five configurations
// use — and in a one-device pool, the worker's home device under
// conn-hash. A submission tries the preferred instances first,
// round-robin, and spills to the rest of the pool when the preferred set
// is circuit-broken, quarantined or its rings are full; every time an op
// lands on a different device than its predecessor the engine counts a
// placement flip and journals it (flight.KindPlacement, coded with the
// op's class), so an incident dump shows the re-route that absorbed a
// dying device. Breaker state and inflight accounting stay per-instance,
// and therefore per-device.

// initPlacement derives the preferred and spill instance lists from the
// instance→device mapping. Called from New.
func (e *Engine) initPlacement(cfg Config) error {
	e.placement = cfg.Placement
	e.devOf = make([]int, len(e.insts))
	if cfg.InstanceDevices != nil {
		if len(cfg.InstanceDevices) != len(e.insts) {
			return errors.New("engine: InstanceDevices must parallel the combined instance list")
		}
		copy(e.devOf, cfg.InstanceDevices)
	}
	e.numDevs = 1
	for _, d := range e.devOf {
		if d < 0 {
			return errors.New("engine: negative device index in InstanceDevices")
		}
		if d+1 > e.numDevs {
			e.numDevs = d + 1
		}
	}
	e.routeDev.Store(-1)
	e.homeDev = cfg.HomeDevice
	if e.homeDev < 0 || e.homeDev >= e.numDevs {
		e.homeDev = 0
	}
	e.buildPreferred()
	return nil
}

// buildPreferred (re)derives the preferred and spill instance lists.
// Single placement round-robins over whatever instances the engine was
// given, so every device is preferred; conn-hash prefers the worker's home
// device and treats the rest of the pool as spill. Worker-goroutine only
// (Rehome reuses it live).
func (e *Engine) buildPreferred() {
	e.preferred, e.other = e.preferred[:0], e.other[:0]
	for idx, d := range e.devOf {
		if e.placement == offload.PlacementSingle || d == e.homeDev {
			e.preferred = append(e.preferred, idx)
		} else {
			e.other = append(e.other, idx)
		}
	}
}

// HomeDevice returns the conn-hash home device.
func (e *Engine) HomeDevice() int { return e.homeDev }

// Rehome moves a conn-hash engine's home device: existing in-flight work
// and instances stay where they are, and subsequent submissions prefer
// dev. Must be called from the worker goroutine (it rebuilds the instance
// lists the submission path reads). No-op for other placements,
// out-of-range devices or when the home is unchanged; reports whether a
// move happened.
func (e *Engine) Rehome(dev int) bool {
	if e.placement != offload.PlacementConnHash {
		return false
	}
	if dev < 0 || dev >= e.numDevs || dev == e.homeDev {
		return false
	}
	e.homeDev = dev
	e.buildPreferred()
	return true
}

// route is the one way onto a ring: it places the request on an instance
// and returns that instance's index. The preferred instances are tried
// first, then the rest of the pool, each list rotated by the engine's
// round-robin cursor (which advances once per instance examined) so load
// spreads within a list and a full or unadmitted instance hands over to
// its successor. When every admitted ring is full it returns
// qat.ErrRingFull; when the health manager admits no instance at all it
// returns ErrNoInstance.
func (e *Engine) route(class Class, req qat.Request) (int, error) {
	err := ErrNoInstance
	c := e.next
	for _, set := range [2][]int{e.preferred, e.other} {
		for i := range set {
			idx := set[(c+i)%len(set)]
			e.next++
			if e.lc != nil && !e.lc.Admit(e.insts[idx]) {
				continue
			}
			err = e.insts[idx].Submit(req)
			if err == nil {
				e.noteRoute(class, e.devOf[idx])
				return idx, nil
			}
			if !errors.Is(err, qat.ErrRingFull) {
				// A device-level submission failure (e.g. endpoint reset) is
				// a health signal; ring-full is mere backpressure and is not:
				// its admission is handed back.
				e.recordResult(idx, false)
				return idx, err
			}
			if e.lc != nil {
				e.lc.Refused(e.insts[idx])
			}
		}
	}
	return -1, err
}

// noteRoute records where an op landed, journaling a placement flip, coded
// with the op's class, when the device changed. The first route is not a
// flip, and an engine with one device has nowhere to flip to.
func (e *Engine) noteRoute(class Class, dev int) {
	if e.numDevs == 1 {
		return
	}
	prev := e.routeDev.Swap(int64(dev))
	if prev == int64(dev) || prev < 0 {
		return
	}
	e.placementFlips.Add(1)
	code := flight.PlacementSym
	if class == ClassAsym {
		code = flight.PlacementAsym
	}
	e.fl.Note(flight.KindPlacement, code, trace.OpNone, prev, int64(dev))
}

// RouteDevice returns the device the engine's last op was routed to (-1
// before the first route).
func (e *Engine) RouteDevice() int { return int(e.routeDev.Load()) }
