package offload

// The notification seam (§3.4). A Notifier owns the queue of
// completed-but-undelivered async events. The paper's two schemes differ
// in one bit: whether enqueueing an event must wake the kernel (a write on
// the notification descriptor the event loop polls) and, with it, at
// which point of the loop the queued handlers are handed back — on the
// epoll wakeup that saw the descriptor, or at the end-of-loop drain. The
// worker loop and the DES model both route completions through it.
//
// A Notifier is not goroutine-safe: it belongs to one worker loop.

// DeliveryPoint says where in the event loop a delivery is happening.
type DeliveryPoint int

const (
	// DeliverWakeup is the epoll-wakeup path: the notification
	// descriptor became readable and the worker is collecting the events
	// behind it.
	DeliverWakeup DeliveryPoint = iota
	// DeliverLoopEnd is the end-of-iteration drain (§3.4's
	// kernel-bypass async queue).
	DeliverLoopEnd
)

// Notifier queues completed async events and schedules their delivery.
// Its queue is two buffers that trade places on every take, so the batch
// a take returns stays intact while its handlers Wake events into the
// other one, and neither buffer is reallocated once grown.
type Notifier struct {
	q, spare []any
	// point is where the queued events are handed back: DeliverWakeup for
	// the descriptor-per-event scheme, whose every event writes the
	// descriptor; DeliverLoopEnd for kernel bypass, which never does.
	point DeliveryPoint
}

// NewNotifier builds the notifier for a scheme. Unknown schemes fall back
// to NotifierFD, the paper's default.
func NewNotifier(s NotifyScheme) *Notifier {
	if s == NotifierKernelBypass {
		return &Notifier{point: DeliverLoopEnd}
	}
	return &Notifier{point: DeliverWakeup}
}

// Wake enqueues one completed event and reports whether the caller must
// perform a kernel wakeup (write the notification descriptor) for it.
// Handles are opaque to the notifier.
func (n *Notifier) Wake(h any) bool {
	n.q = append(n.q, h)
	return n.point == DeliverWakeup
}

// Deliver returns the events due at the given point, in completion order,
// removing them from the queue. It returns nil when nothing is due at that
// point. The batch stays valid while its handlers run and Wake more
// events, but only until the next Deliver or Drain: its storage is then
// reused.
func (n *Notifier) Deliver(p DeliveryPoint) []any {
	if p != n.point {
		return nil
	}
	return n.Drain()
}

// Pending reports how many queued events are waiting for the given
// delivery point.
func (n *Notifier) Pending(p DeliveryPoint) int {
	if p != n.point {
		return 0
	}
	return len(n.q)
}

// Drain unconditionally removes and returns every queued event (nil when
// there are none) — the shutdown path, where delivery points no longer
// apply. Its batch has Deliver's lifetime.
func (n *Notifier) Drain() []any {
	if len(n.q) == 0 {
		return nil
	}
	batch := n.q
	clear(n.spare) // the previous batch's handles: nothing reads them now
	n.q, n.spare = n.spare[:0], batch
	return batch
}
