//go:build linux

package server

import (
	"time"
)

// The deadline wheel: a coarse-ticked hashed timer wheel giving every
// connection its lifecycle deadlines (handshake, request-header,
// keepalive-idle, write-stall — see offload.DeadlinePolicy) without a
// heap or a per-connection timer. Nginx hashes its event timers for the
// same reason: a worker re-arms a deadline on every request of every
// keepalive connection, so arming must cost an append, and cancellation
// must cost nothing.
//
// Cancellation is lazy: entries carry the generation the connection had
// when armed, and closing or re-arming to an earlier deadline bumps the
// generation, so stale entries are simply skipped when their slot comes
// around. A re-arm to a later deadline keeps the live entry, and
// deadlines beyond the wheel horizon are clamped to the last slot: either
// way an entry that comes due early is re-inserted until its connection's
// real deadline is due, so a connection holds one live entry. Expiry fires up to one
// tick late — lifecycle deadlines are seconds-coarse, so a 25 ms tick
// (offload.DefaultDeadlineTick) is far below their noise floor.
type deadlineWheel struct {
	tick  time.Duration
	slots [][]wheelEntry
	cur   int       // index of the slot containing `base`
	base  time.Time // start of the current tick
	live  int       // armed entries, stale (lazily cancelled) included
}

// wheelEntry pins one armed deadline: the connection plus the generation
// it had when armed. A mismatching generation marks the entry stale.
type wheelEntry struct {
	c   *conn
	gen uint64
}

// wheelSlots is the wheel size; with the default 25 ms tick the horizon
// is 256 × 25 ms = 6.4 s, and longer deadlines re-insert from the rim.
const wheelSlots = 256

func newDeadlineWheel(tick time.Duration, now time.Time) *deadlineWheel {
	if tick <= 0 {
		tick = time.Millisecond
	}
	return &deadlineWheel{
		tick:  tick,
		slots: make([][]wheelEntry, wheelSlots),
		base:  now,
	}
}

// add arms c's current deadline (c.dlAt, under generation c.dlGen) and
// records when the entry comes due in c.dlDue. Deadlines are rounded up
// to the next tick boundary so an entry never fires before its time;
// deadlines beyond the horizon land in the rim slot and re-insert on
// expiry.
func (dw *deadlineWheel) add(c *conn) {
	ticks := int((c.dlAt.Sub(dw.base) + dw.tick - 1) / dw.tick)
	if ticks < 1 {
		ticks = 1
	}
	if ticks > len(dw.slots)-1 {
		ticks = len(dw.slots) - 1
	}
	idx := (dw.cur + ticks) % len(dw.slots)
	dw.slots[idx] = append(dw.slots[idx], wheelEntry{c: c, gen: c.dlGen})
	dw.live++
	c.dlDue = dw.base.Add(time.Duration(ticks) * dw.tick)
}

// advance walks the ticks elapsed since the last call, invoking expire
// for every due entry. Stale entries (closed or re-armed connections)
// are dropped; live entries whose true deadline lies beyond this tick
// (horizon clamp) are re-inserted instead of fired.
func (dw *deadlineWheel) advance(now time.Time, expire func(*conn)) {
	elapsed := int(now.Sub(dw.base) / dw.tick)
	if elapsed <= 0 {
		return
	}
	if elapsed > len(dw.slots) {
		// The loop stalled for more than a full rotation: every slot is
		// due at most once, and the dlAt re-insert check keeps entries
		// that are genuinely not due yet.
		skip := elapsed - len(dw.slots)
		dw.cur = (dw.cur + skip) % len(dw.slots)
		dw.base = dw.base.Add(time.Duration(skip) * dw.tick)
		elapsed = len(dw.slots)
	}
	for i := 0; i < elapsed; i++ {
		dw.cur = (dw.cur + 1) % len(dw.slots)
		dw.base = dw.base.Add(dw.tick)
		slot := dw.slots[dw.cur]
		if len(slot) == 0 {
			continue
		}
		dw.slots[dw.cur] = slot[:0]
		for _, e := range slot {
			dw.live--
			if e.c.closed || !e.c.dlArmed || e.c.dlGen != e.gen {
				continue // lazily cancelled
			}
			e.c.dlDue = time.Time{}
			if e.c.dlAt.After(dw.base) {
				dw.add(e.c) // horizon-clamped or re-armed later: not due yet
				continue
			}
			expire(e.c)
		}
	}
}
