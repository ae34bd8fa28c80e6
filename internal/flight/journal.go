package flight

import (
	"sync/atomic"
	"time"

	"qtls/internal/trace"
)

// SystemWorker is the journal index used for events not owned by one
// worker goroutine: fault injections (device goroutines), signal-driven
// dump markers, and anything wired before workers exist.
const SystemWorker = 256

// Slot layout: [generation, time, meta, dur, arg]. Identical seqlock
// discipline to trace.Buffer: the generation word is 2*index+1 while
// the slot is being written and 2*index+2 once stable, so readers
// detect both in-progress writes and wrap-around overwrites.
const slotWords = 5

// Journal is one worker's private event journal: two rings of the same
// geometry, one for data-plane events (slow spans, faults, fallbacks,
// sheds, deadline expiries) and one for control-plane events (see
// Kind.ControlPlane). An incident produces data-plane events by the
// thousand — every span of a stalled device is a slow span — and they
// must not overwrite the handful of decisions the system took about it.
// The zero/nil Journal is inert: Active reports false and Note is a
// no-op, so producers hold a plain *Journal and never nil-check — the
// same contract as trace.Buffer, and the property the package's
// zero-alloc benchmark guards.
type Journal struct {
	rec     *Recorder
	worker  uint16
	data    ring
	control ring
}

// ring is one seqlock event ring.
type ring struct {
	mask   uint64
	cursor atomic.Uint64
	slots  []atomic.Int64
}

func newRing(size int) ring {
	return ring{mask: uint64(size) - 1, slots: make([]atomic.Int64, size*slotWords)}
}

// Active reports whether events noted now would be kept.
func (j *Journal) Active() bool {
	return j != nil && j.rec.enabled.Load()
}

// Note journals one event stamped with the recorder's clock. Safe (one
// branch + one atomic load, no allocation) on a nil or disabled
// journal. Breaker-open events and the shed/fault/deadline counter
// windows are fed from here, so producers call Note once and the
// recorder fans the event out.
func (j *Journal) Note(k Kind, code uint8, op trace.Op, dur, arg int64) {
	if !j.Active() {
		return
	}
	j.noteAt(j.rec.now(), k, code, op, dur, arg)
}

// noteAt journals one event with an explicit timestamp (the span-fed
// path reuses the span's own clock; Note stamps with the recorder's).
// Callers must have checked Active.
func (j *Journal) noteAt(tNs int64, k Kind, code uint8, op trace.Op, dur, arg int64) {
	r := &j.data
	if k.ControlPlane() {
		r = &j.control
	}
	idx := r.cursor.Add(1) - 1
	base := int(idx&r.mask) * slotWords
	gen := int64(idx) * 2
	r.slots[base].Store(gen + 1)
	r.slots[base+1].Store(tNs)
	r.slots[base+2].Store(int64(k) | int64(code)<<8 | int64(op)<<16 | int64(j.worker)<<24)
	r.slots[base+3].Store(dur)
	r.slots[base+4].Store(arg)
	r.slots[base].Store(gen + 2)
	j.rec.onEvent(k, code, tNs)
}

// journaled returns how many events were ever noted (overwritten ones
// included).
func (j *Journal) journaled() int64 {
	return int64(j.data.cursor.Load() + j.control.cursor.Load())
}

// snapshot appends every readable event of both rings to out (each ring
// oldest first; callers sort the merge). Torn slots (a writer raced the
// read) are skipped.
func (j *Journal) snapshot(out []Event) []Event {
	if j == nil {
		return out
	}
	return j.control.snapshot(j.data.snapshot(out))
}

func (r *ring) snapshot(out []Event) []Event {
	cur := r.cursor.Load()
	n := cur
	if size := r.mask + 1; n > size {
		n = size
	}
	for i := cur - n; i < cur; i++ {
		base := int(i&r.mask) * slotWords
		want := int64(i)*2 + 2
		if r.slots[base].Load() != want {
			continue // being written, or overwritten by a wrap
		}
		e := Event{
			Time: r.slots[base+1].Load(),
			Dur:  r.slots[base+3].Load(),
			Arg:  r.slots[base+4].Load(),
		}
		meta := r.slots[base+2].Load()
		if r.slots[base].Load() != want {
			continue // torn: a wrap-around writer got in between
		}
		e.Kind = Kind(meta & 0xff)
		e.Code = uint8(meta >> 8 & 0xff)
		e.Op = trace.Op(meta >> 16 & 0xff)
		e.Worker = uint16(meta >> 24 & 0xffff)
		out = append(out, e)
	}
	return out
}

// sortEvents orders by time (shellsort, allocation-free, same rationale
// as trace.sortSpans).
func sortEvents(s []Event) {
	for gap := len(s) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(s); i++ {
			v := s[i]
			j := i
			for ; j >= gap && s[j-gap].Time > v.Time; j -= gap {
				s[j] = s[j-gap]
			}
			s[j] = v
		}
	}
}

// nowNano is the default recorder clock.
func nowNano() int64 { return time.Now().UnixNano() }
