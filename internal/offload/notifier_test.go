package offload

import (
	"reflect"
	"testing"
)

func TestFDNotifier(t *testing.T) {
	n := NewNotifier(NotifierFD)
	// Every event demands its own kernel wakeup.
	if !n.Wake("a") || !n.Wake("b") {
		t.Fatal("fd Wake must always request a wakeup")
	}
	if n.Pending(DeliverWakeup) != 2 || n.Pending(DeliverLoopEnd) != 0 {
		t.Fatal("fd events pend at the wakeup point only")
	}
	if got := n.Deliver(DeliverLoopEnd); got != nil {
		t.Fatalf("fd delivered at loop end: %v", got)
	}
	if got := n.Deliver(DeliverWakeup); !reflect.DeepEqual(got, []any{"a", "b"}) {
		t.Fatalf("fd wakeup delivery = %v", got)
	}
	if n.Pending(DeliverWakeup) != 0 || n.Deliver(DeliverWakeup) != nil {
		t.Fatal("fd queue not emptied by delivery")
	}
}

func TestBypassNotifier(t *testing.T) {
	n := NewNotifier(NotifierKernelBypass)
	// Kernel bypass: no wakeups, ever.
	if n.Wake("a") || n.Wake("b") {
		t.Fatal("bypass Wake must never request a wakeup")
	}
	if n.Pending(DeliverLoopEnd) != 2 || n.Pending(DeliverWakeup) != 0 {
		t.Fatal("bypass events pend at the loop-end point only")
	}
	if got := n.Deliver(DeliverWakeup); got != nil {
		t.Fatalf("bypass delivered on wakeup: %v", got)
	}
	if got := n.Deliver(DeliverLoopEnd); !reflect.DeepEqual(got, []any{"a", "b"}) {
		t.Fatalf("bypass loop-end delivery = %v", got)
	}
	if n.Pending(DeliverLoopEnd) != 0 {
		t.Fatal("bypass queue not emptied by delivery")
	}
}

func TestNotifierDrain(t *testing.T) {
	for _, s := range []NotifyScheme{NotifierFD, NotifierKernelBypass} {
		n := NewNotifier(s)
		n.Wake("a")
		n.Wake("b")
		if got := n.Drain(); !reflect.DeepEqual(got, []any{"a", "b"}) {
			t.Errorf("%v: Drain = %v", s, got)
		}
		if n.Drain() != nil || n.Pending(DeliverWakeup) != 0 || n.Pending(DeliverLoopEnd) != 0 {
			t.Errorf("%v: queue survived Drain", s)
		}
	}
}

func TestNewNotifierUnknownScheme(t *testing.T) {
	n := NewNotifier(NotifyScheme(99))
	if !n.Wake("a") || n.Pending(DeliverWakeup) != 1 {
		t.Fatal("unknown scheme must fall back to fd: a wakeup per event, delivered on it")
	}
}

// A delivered batch stays intact while its handlers Wake further events
// (the next op of a connection completing inside a handler's poll), those
// events make the next batch, and once both queue buffers have grown a
// Wake/Deliver cycle allocates nothing.
func TestDeliverBatchSurvivesWake(t *testing.T) {
	for _, s := range []NotifyScheme{NotifierFD, NotifierKernelBypass} {
		n := NewNotifier(s)
		point := DeliverWakeup
		if s == NotifierKernelBypass {
			point = DeliverLoopEnd
		}
		n.Wake("a")
		n.Wake("b")
		n.Wake("c")
		var seen []any
		for _, h := range n.Deliver(point) {
			seen = append(seen, h)
			n.Wake(h.(string) + "'")
		}
		if !reflect.DeepEqual(seen, []any{"a", "b", "c"}) {
			t.Errorf("%v: handlers saw %v, want [a b c]", s, seen)
		}
		if got := n.Deliver(point); !reflect.DeepEqual(got, []any{"a'", "b'", "c'"}) {
			t.Errorf("%v: next batch = %v, want the handlers' events", s, got)
		}
		h := any(&struct{}{})
		if allocs := testing.AllocsPerRun(100, func() {
			n.Wake(h)
			n.Wake(h)
			n.Deliver(point)
		}); allocs != 0 {
			t.Errorf("%v: a Wake/Deliver cycle allocates %v objects, want 0", s, allocs)
		}
	}
}
