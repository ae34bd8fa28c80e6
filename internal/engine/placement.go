package engine

import (
	"errors"
	"slices"

	"qtls/internal/flight"
	"qtls/internal/offload"
	"qtls/internal/qat"
	"qtls/internal/trace"
)

// This file is the engine's routing: the one function that puts a request
// on a ring (route), and the device-placement state that orders the
// instances it tries. Each op class maps to a *lane* (asym or sym, the
// same split the heuristic polling thresholds use) and each lane prefers
// a device set: every device under offload.PlacementSingle — the only mode
// the paper's five configurations use — and in a one-device pool, the sets
// offload.Placement.AsymDevices/SymDevices select under class-shard, the
// worker's home device under conn-hash. A submission tries the preferred
// devices' instances first, round-robin, and spills to the rest of the
// pool when the preferred set is circuit-broken, quarantined or its rings
// are full; every time a lane's op lands on a different device than its
// predecessor the engine counts a placement flip and journals it
// (flight.KindPlacement), so an incident dump shows the re-route that
// absorbed a dying device. Breaker state and inflight accounting stay
// per-instance, and therefore per-device.

// numLanes is the number of placement lanes (asym, sym).
const numLanes = 2

// laneOf maps an engine class to its placement lane: the asymmetric
// handshake ops form one lane, the symmetric-leaning PRF and cipher ops
// the other. Codes match flight.PlacementAsym/PlacementSym.
func laneOf(class Class) uint8 {
	if class == ClassAsym {
		return flight.PlacementAsym
	}
	return flight.PlacementSym
}

// initPlacement derives the per-lane instance partitions from the
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
	for lane := 0; lane < numLanes; lane++ {
		e.routeDev[lane].Store(-1)
	}
	e.homeDev = cfg.HomeDevice
	if e.homeDev < 0 || e.homeDev >= e.numDevs {
		e.homeDev = 0
	}
	e.buildLanes()
	return nil
}

// prefers reports whether a lane prefers a device. Single placement
// round-robins over whatever instances the engine was given, so both lanes
// prefer every device. Conn-hash narrows both lanes to the worker's home
// device and treats the rest of the pool as spill (the placement decision
// is per-connection, so offload.PlacementConnHash's own device sets cover
// the whole pool). Class-shard takes its sets from offload.Placement.
func (e *Engine) prefers(lane uint8, dev int) bool {
	switch e.placement {
	case offload.PlacementSingle:
		return true
	case offload.PlacementConnHash:
		return dev == e.homeDev
	}
	if lane == flight.PlacementAsym {
		return slices.Contains(e.placement.AsymDevices(e.numDevs), dev)
	}
	return slices.Contains(e.placement.SymDevices(e.numDevs), dev)
}

// buildLanes (re)derives the per-lane instance partitions from the lanes'
// device preferences. Worker-goroutine only (Rehome reuses it live).
func (e *Engine) buildLanes() {
	for lane := uint8(0); lane < numLanes; lane++ {
		e.laneInsts[lane] = e.laneInsts[lane][:0]
		e.laneOther[lane] = e.laneOther[lane][:0]
		for idx, d := range e.devOf {
			if e.prefers(lane, d) {
				e.laneInsts[lane] = append(e.laneInsts[lane], idx)
			} else {
				e.laneOther[lane] = append(e.laneOther[lane], idx)
			}
		}
	}
}

// HomeDevice returns the conn-hash home device.
func (e *Engine) HomeDevice() int { return e.homeDev }

// Rehome moves a conn-hash engine's home device: both lanes re-prefer
// dev, existing in-flight work and instances stay where they are, and
// subsequent submissions land on the new home. Must be called from the
// worker goroutine (it rebuilds the lane partitions the submission path
// reads). No-op for other placements, out-of-range devices or when the
// home is unchanged; reports whether a move happened.
func (e *Engine) Rehome(dev int) bool {
	if e.placement != offload.PlacementConnHash {
		return false
	}
	if dev < 0 || dev >= e.numDevs || dev == e.homeDev {
		return false
	}
	e.homeDev = dev
	e.buildLanes()
	return true
}

// route is the one way onto a ring: it places the request on an instance
// chosen for the op's class and returns that instance's index. The lane's
// preferred-device instances are tried first, then the rest of the pool,
// each set rotated by the engine's round-robin cursor (which advances once
// per instance examined) so load spreads within a set and a full or
// unadmitted instance hands over to its successor. When every admitted
// ring is full it returns qat.ErrRingFull; when breakers and lifecycle
// admit no instance at all it returns ErrNoInstance.
func (e *Engine) route(class Class, req qat.Request) (int, error) {
	lane := laneOf(class)
	err := ErrNoInstance
	c := e.next
	for _, set := range [2][]int{e.laneInsts[lane], e.laneOther[lane]} {
		for i := range set {
			idx := set[(c+i)%len(set)]
			e.next++
			if !e.instAllowed(idx) {
				continue
			}
			err = e.insts[idx].Submit(req)
			if err == nil {
				e.noteRoute(lane, e.devOf[idx])
				return idx, nil
			}
			if !errors.Is(err, qat.ErrRingFull) {
				// A device-level submission failure (e.g. endpoint reset) is
				// a health signal; ring-full is mere backpressure and is not.
				e.recordResult(idx, false)
				return idx, err
			}
		}
	}
	return -1, err
}

// noteRoute records where a lane's op landed, journaling a placement flip
// when the device changed. The first route of a lane is not a flip, and an
// engine with one device has nowhere to flip to.
func (e *Engine) noteRoute(lane uint8, dev int) {
	if e.numDevs == 1 {
		return
	}
	prev := e.routeDev[lane].Swap(int64(dev))
	if prev == int64(dev) {
		return
	}
	if prev >= 0 {
		e.placementFlips.Add(1)
		e.fl.Note(flight.KindPlacement, lane, trace.OpNone, prev, int64(dev))
	}
}

// Placement returns the engine's placement mode.
func (e *Engine) Placement() offload.Placement { return e.placement }

// DeviceInflight sums the occupied ring slots of the engine's instances
// on one device (per-device pressure for qatinfo and admission views).
func (e *Engine) DeviceInflight(dev int) int {
	n := 0
	for i, inst := range e.insts {
		if e.devOf[i] == dev {
			n += inst.Inflight()
		}
	}
	return n
}

// LaneDevice returns the device a lane's last op was routed to (-1 before
// the first route). Lanes are flight.PlacementAsym / flight.PlacementSym.
func (e *Engine) LaneDevice(lane uint8) int {
	if lane >= numLanes {
		return -1
	}
	return int(e.routeDev[lane].Load())
}
