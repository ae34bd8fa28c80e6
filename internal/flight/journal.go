package flight

import (
	"time"

	"qtls/internal/trace"
)

// SystemWorker is the journal index used for events not owned by one
// worker goroutine: fault injections (device goroutines), signal-driven
// dump markers, and anything wired before workers exist.
const SystemWorker = 256

// Journal is one worker's private event journal: two seqlock rings
// (trace.Ring) of the same geometry, one for data-plane events (slow
// spans, faults, fallbacks, sheds, deadline expiries) and one for
// control-plane events (see Kind.ControlPlane). An incident produces
// data-plane events by the thousand — every span of a stalled device is a
// slow span — and they must not overwrite the handful of decisions the
// system took about it. A slot holds [time, meta, dur, arg]. The nil
// Journal is inert: Note is a no-op, so producers hold a plain *Journal
// and never nil-check — the same contract as trace.Buffer, and the
// property the package's zero-alloc benchmark guards.
type Journal struct {
	rec     *Recorder
	worker  uint16
	data    *trace.Ring
	control *trace.Ring
}

// Note journals one event stamped with the recorder's clock. Safe (one
// branch, no allocation) on a nil journal. Breaker-open events and the
// shed/fault/deadline counter windows are fed from here, so producers
// call Note once and the recorder fans the event out.
func (j *Journal) Note(k Kind, code uint8, op trace.Op, dur, arg int64) {
	if j == nil {
		return
	}
	j.noteAt(j.rec.now(), k, code, op, dur, arg)
}

// noteAt journals one event with an explicit timestamp (the span-fed
// path reuses the span's own clock; Note stamps with the recorder's).
func (j *Journal) noteAt(tNs int64, k Kind, code uint8, op trace.Op, dur, arg int64) {
	r := j.data
	if k.ControlPlane() {
		r = j.control
	}
	r.Put(tNs, int64(k)|int64(code)<<8|int64(op)<<16|int64(j.worker)<<24, dur, arg)
	j.rec.onEvent(k, code, tNs)
}

// journaled returns how many events were ever noted (overwritten ones
// included).
func (j *Journal) journaled() int64 {
	return j.data.Written() + j.control.Written()
}

// snapshot appends every readable event of both rings to out (each ring
// oldest first; callers sort the merge).
func (j *Journal) snapshot(out []Event) []Event {
	each := func(tNs, meta, dur, arg int64) {
		out = append(out, Event{
			Time:   tNs,
			Kind:   Kind(meta & 0xff),
			Code:   uint8(meta >> 8 & 0xff),
			Op:     trace.Op(meta >> 16 & 0xff),
			Worker: uint16(meta >> 24 & 0xffff),
			Dur:    dur,
			Arg:    arg,
		})
	}
	j.data.Each(each)
	j.control.Each(each)
	return out
}

// nowNano is the default recorder clock.
func nowNano() int64 { return time.Now().UnixNano() }
