package offload

// The notification seam (§3.4) as behavior instead of an enum. A
// Notifier owns the queue of completed-but-undelivered async events and
// decides two things per scheme: whether enqueueing an event must wake
// the kernel (a write on the notification descriptor the event loop
// polls), and at which point of the loop the queued handlers are handed
// back (on the epoll wakeup that saw the descriptor, or at the
// end-of-loop drain). The worker loop and the DES model both route
// completions through this interface, so a new delivery strategy is a
// new implementation — the loops never change.
//
// Implementations are not goroutine-safe: a Notifier belongs to one
// worker loop, exactly like the queues it replaces.

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
type Notifier interface {
	// Wake enqueues one completed event and reports whether the caller
	// must perform a kernel wakeup (write the notification descriptor)
	// for it. Handles are opaque to the notifier.
	Wake(h any) bool
	// Deliver returns the events due at the given point, in completion
	// order, removing them from the queue. It returns nil when nothing
	// is due at that point. The batch stays valid while its handlers run
	// and Wake more events, but only until the next Deliver or Drain:
	// its storage is then reused.
	Deliver(p DeliveryPoint) []any
	// Pending reports how many queued events are waiting for the given
	// delivery point.
	Pending(p DeliveryPoint) int
	// Drain unconditionally removes and returns every queued event —
	// the shutdown path, where delivery points no longer apply. Its batch
	// has Deliver's lifetime.
	Drain() []any
	// Scheme names the strategy this implementation realizes.
	Scheme() NotifyScheme
	// String is the compat rendering the old enum had ("fd",
	// "kernel-bypass", "coalesced").
	String() string
}

// NewNotifier builds the implementation for a scheme. Unknown schemes
// fall back to NotifierFD, the paper's default.
func NewNotifier(s NotifyScheme) Notifier {
	switch s {
	case NotifierKernelBypass:
		return &bypassNotifier{}
	case NotifierCoalesced:
		return &coalescedNotifier{}
	default:
		return &fdNotifier{}
	}
}

// eventQueue is the notifiers' queue: two buffers that trade places on
// every take, so the batch a take returns stays intact while its handlers
// Wake events into the other one, and neither buffer is reallocated once
// grown.
type eventQueue struct {
	q, spare []any
}

func (e *eventQueue) push(h any) { e.q = append(e.q, h) }

// take returns the queued events (nil when there are none) and starts an
// empty queue in the buffer the previous take returned.
func (e *eventQueue) take() []any {
	if len(e.q) == 0 {
		return nil
	}
	batch := e.q
	clear(e.spare) // the previous batch's handles: nothing reads them now
	e.q, e.spare = e.spare[:0], batch
	return batch
}

// fdNotifier is the descriptor-per-event scheme: every completion
// writes the notification descriptor, and the events are handed back on
// the epoll wakeup that saw it — user/kernel switches on every event.
type fdNotifier struct {
	eventQueue
}

func (n *fdNotifier) Wake(h any) bool {
	n.push(h)
	return true
}

func (n *fdNotifier) Deliver(p DeliveryPoint) []any {
	if p != DeliverWakeup {
		return nil
	}
	return n.take()
}

func (n *fdNotifier) Pending(p DeliveryPoint) int {
	if p != DeliverWakeup {
		return 0
	}
	return len(n.q)
}

func (n *fdNotifier) Drain() []any { return n.take() }

func (n *fdNotifier) Scheme() NotifyScheme { return NotifierFD }
func (n *fdNotifier) String() string       { return NotifierFD.String() }

// bypassNotifier is the kernel-bypass async queue: no kernel wakeup
// ever, events drain at the end of the loop iteration that retrieved
// them.
type bypassNotifier struct {
	eventQueue
}

func (n *bypassNotifier) Wake(h any) bool {
	n.push(h)
	return false
}

func (n *bypassNotifier) Deliver(p DeliveryPoint) []any {
	if p != DeliverLoopEnd {
		return nil
	}
	return n.take()
}

func (n *bypassNotifier) Pending(p DeliveryPoint) int {
	if p != DeliverLoopEnd {
		return 0
	}
	return len(n.q)
}

func (n *bypassNotifier) Drain() []any { return n.take() }

func (n *bypassNotifier) Scheme() NotifyScheme { return NotifierKernelBypass }
func (n *bypassNotifier) String() string       { return NotifierKernelBypass.String() }

// coalescedNotifier is eventfd-style batched delivery: events queue in
// user space and are handed back on the epoll wakeup (so a worker
// blocked in epoll_wait still wakes promptly), but only the first event
// since the last delivery arms the kernel wakeup — one descriptor write
// amortized across the whole completion batch.
type coalescedNotifier struct {
	eventQueue
	armed bool // a wakeup write is outstanding for the queued events
}

func (n *coalescedNotifier) Wake(h any) bool {
	n.push(h)
	if n.armed {
		return false
	}
	n.armed = true
	return true
}

func (n *coalescedNotifier) Deliver(p DeliveryPoint) []any {
	if p != DeliverWakeup || len(n.q) == 0 {
		return nil
	}
	n.armed = false
	return n.take()
}

func (n *coalescedNotifier) Pending(p DeliveryPoint) int {
	if p != DeliverWakeup {
		return 0
	}
	return len(n.q)
}

func (n *coalescedNotifier) Drain() []any {
	n.armed = false
	return n.take()
}

func (n *coalescedNotifier) Scheme() NotifyScheme { return NotifierCoalesced }
func (n *coalescedNotifier) String() string       { return NotifierCoalesced.String() }
