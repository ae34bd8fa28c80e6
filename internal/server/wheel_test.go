//go:build linux

package server

import (
	"testing"
	"time"

	"qtls/internal/offload"
)

// wheelHarness arms synthetic connections on a bare wheel and records
// expiries, without any worker machinery.
type wheelHarness struct {
	dw    *deadlineWheel
	fired []*conn
}

func newWheelHarness(tick time.Duration, now time.Time) *wheelHarness {
	return &wheelHarness{dw: newDeadlineWheel(tick, now)}
}

func (h *wheelHarness) arm(at time.Time) *conn {
	c := &conn{}
	c.dlArmed = true
	c.dlAt = at
	h.dw.add(c)
	return c
}

func (h *wheelHarness) expire(c *conn) { h.fired = append(h.fired, c) }

func (h *wheelHarness) advance(now time.Time) { h.dw.advance(now, h.expire) }

// A deadline rounds up to the next tick: it may fire late, never early.
func TestWheelNeverFiresEarly(t *testing.T) {
	t0 := time.Unix(1000, 0)
	h := newWheelHarness(10*time.Millisecond, t0)
	h.arm(t0.Add(35 * time.Millisecond)) // rounds up to tick 4 (t0+40ms)

	h.advance(t0.Add(30 * time.Millisecond))
	if len(h.fired) != 0 {
		t.Fatalf("fired %d entries 5ms before the deadline", len(h.fired))
	}
	h.advance(t0.Add(39 * time.Millisecond)) // still inside tick 3
	if len(h.fired) != 0 {
		t.Fatal("fired before the rounded-up tick boundary")
	}
	h.advance(t0.Add(40 * time.Millisecond))
	if len(h.fired) != 1 {
		t.Fatalf("fired %d entries at the deadline tick, want 1", len(h.fired))
	}
	if h.dw.live != 0 {
		t.Fatalf("live = %d after expiry, want 0", h.dw.live)
	}
}

// A deadline landing exactly on a tick boundary fires on that tick.
func TestWheelExactBoundary(t *testing.T) {
	t0 := time.Unix(1000, 0)
	h := newWheelHarness(10*time.Millisecond, t0)
	h.arm(t0.Add(20 * time.Millisecond))
	h.advance(t0.Add(19 * time.Millisecond))
	if len(h.fired) != 0 {
		t.Fatal("fired before boundary")
	}
	h.advance(t0.Add(20 * time.Millisecond))
	if len(h.fired) != 1 {
		t.Fatalf("fired %d at boundary, want 1", len(h.fired))
	}
}

// Lazy cancellation: bumping the generation (disarm/re-arm) or closing
// the connection strands the old entry, which is skipped when its slot
// comes around.
func TestWheelLazyCancel(t *testing.T) {
	t0 := time.Unix(1000, 0)
	h := newWheelHarness(10*time.Millisecond, t0)

	rearmed := h.arm(t0.Add(30 * time.Millisecond))
	rearmed.dlGen++ // disarm-style cancellation of the wheel entry
	rearmed.dlAt = t0.Add(70 * time.Millisecond)
	h.dw.add(rearmed) // re-armed later under the new generation

	disarmed := h.arm(t0.Add(30 * time.Millisecond))
	disarmed.dlArmed = false
	disarmed.dlGen++

	closed := h.arm(t0.Add(30 * time.Millisecond))
	closed.closed = true

	h.advance(t0.Add(50 * time.Millisecond))
	if len(h.fired) != 0 {
		t.Fatalf("stale entries fired: %d", len(h.fired))
	}
	h.advance(t0.Add(100 * time.Millisecond))
	if len(h.fired) != 1 || h.fired[0] != rearmed {
		t.Fatalf("want exactly the re-armed conn to fire, got %d", len(h.fired))
	}
	if h.dw.live != 0 {
		t.Fatalf("live = %d, want 0", h.dw.live)
	}
}

// A deadline beyond the wheel horizon parks in the rim slot and
// re-inserts until its real time is due — it fires exactly once, and not
// at the horizon.
func TestWheelHorizonReinsert(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tick := 10 * time.Millisecond
	h := newWheelHarness(tick, t0)
	deadline := t0.Add(time.Duration(wheelSlots+50) * tick)
	h.arm(deadline)

	// One full rotation: the rim entry is reached but not yet due.
	h.advance(t0.Add(time.Duration(wheelSlots-1) * tick))
	if len(h.fired) != 0 {
		t.Fatal("horizon-clamped entry fired a rotation early")
	}
	if h.dw.live != 1 {
		t.Fatalf("live = %d after re-insert, want 1", h.dw.live)
	}
	h.advance(deadline.Add(-tick))
	if len(h.fired) != 0 {
		t.Fatal("fired before the true deadline")
	}
	h.advance(deadline)
	if len(h.fired) != 1 {
		t.Fatalf("fired %d, want exactly 1", len(h.fired))
	}
}

// A loop stalled for more than a full rotation fast-forwards: every due
// entry fires once, and the wheel stays usable afterwards.
func TestWheelFastForwardAfterStall(t *testing.T) {
	t0 := time.Unix(1000, 0)
	tick := 10 * time.Millisecond
	h := newWheelHarness(tick, t0)
	h.arm(t0.Add(30 * time.Millisecond))

	// Stall for two rotations.
	now := t0.Add(time.Duration(2*wheelSlots) * tick)
	h.advance(now)
	if len(h.fired) != 1 {
		t.Fatalf("fired %d after stall, want 1", len(h.fired))
	}

	// The wheel still places and fires fresh deadlines correctly.
	h.fired = nil
	h.arm(now.Add(20 * time.Millisecond))
	h.advance(now.Add(10 * time.Millisecond))
	if len(h.fired) != 0 {
		t.Fatal("post-stall entry fired early")
	}
	h.advance(now.Add(20 * time.Millisecond))
	if len(h.fired) != 1 {
		t.Fatalf("post-stall entry fired %d, want 1", len(h.fired))
	}
}

// Many deadlines across slots all fire, in no worse than tick order.
func TestWheelBulkExpiry(t *testing.T) {
	t0 := time.Unix(1000, 0)
	h := newWheelHarness(10*time.Millisecond, t0)
	const n = 100
	for i := 0; i < n; i++ {
		h.arm(t0.Add(time.Duration(10+i*7) * time.Millisecond))
	}
	h.advance(t0.Add(800 * time.Millisecond))
	if len(h.fired) != n {
		t.Fatalf("fired %d of %d", len(h.fired), n)
	}
	if h.dw.live != 0 {
		t.Fatalf("live = %d, want 0", h.dw.live)
	}
}

// deadlineWorker is a worker with only a wheel and a deadline policy: the
// header deadline is header, the other classes outlast the wheel horizon
// as the defaults do.
func deadlineWorker(tick, header time.Duration) *Worker {
	w := &Worker{wheel: newDeadlineWheel(tick, time.Now())}
	w.cfg.Deadlines = offload.DeadlinePolicy{
		Handshake:  10 * time.Second,
		Header:     header,
		Keepalive:  60 * time.Second,
		WriteStall: 10 * time.Second,
	}
	return w
}

// A keepalive conn that serves 1 000 requests (keepalive → header → write
// → keepalive each) holds one wheel entry: every re-arm lies past the
// entry's due time, so the entry stays and only dlAt moves. A re-arm
// allocates nothing.
func TestKeepaliveConnHoldsOneWheelEntry(t *testing.T) {
	w := deadlineWorker(25*time.Millisecond, 10*time.Second)
	c := new(conn)
	w.armDeadline(c, offload.DeadlineKeepalive)
	for i := 0; i < 1000; i++ {
		w.armDeadline(c, offload.DeadlineHeader)
		w.armDeadline(c, offload.DeadlineWrite)
		w.armDeadline(c, offload.DeadlineKeepalive)
	}
	if w.wheel.live != 1 {
		t.Fatalf("%d wheel entries after 1 000 requests, want 1", w.wheel.live)
	}
	if n := testing.AllocsPerRun(100, func() {
		w.armDeadline(c, offload.DeadlineHeader)
		w.armDeadline(c, offload.DeadlineKeepalive)
	}); n != 0 {
		t.Errorf("a re-arm allocates %v objects, want 0", n)
	}
	// The kept entry comes due at the rim and re-inserts toward the
	// keepalive deadline instead of firing.
	var fired int
	w.wheel.advance(c.dlDue, func(*conn) { fired++ })
	if fired != 0 || w.wheel.live != 1 || !c.dlDue.After(w.wheel.base) {
		t.Fatalf("at the rim: fired %d, %d entries live, due %v; want the entry re-inserted", fired, w.wheel.live, c.dlDue)
	}
}

// A re-arm from keepalive to a 50 ms header deadline, earlier than the
// keepalive entry's due time, takes a new entry: it expires within one
// tick of the header deadline, never before it.
func TestEarlierRearmExpiresOnTime(t *testing.T) {
	const tick = 10 * time.Millisecond
	w := deadlineWorker(tick, 50*time.Millisecond)
	c := new(conn)
	w.armDeadline(c, offload.DeadlineKeepalive)
	w.armDeadline(c, offload.DeadlineHeader)
	var fired []*conn
	expire := func(c *conn) { fired = append(fired, c) }
	w.wheel.advance(c.dlAt.Add(-tick), expire)
	if len(fired) != 0 {
		t.Fatal("the header deadline fired a tick early")
	}
	w.wheel.advance(c.dlAt.Add(tick), expire)
	if len(fired) != 1 || fired[0] != c || c.dlClass != offload.DeadlineHeader {
		t.Fatalf("%d expiries within a tick of the header deadline, want the header's one", len(fired))
	}
}
