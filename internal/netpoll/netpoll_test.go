//go:build linux

package netpoll

import (
	"bytes"
	"errors"
	"net"
	"syscall"
	"testing"
	"time"
)

func TestListenAcceptWouldBlock(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Port() == 0 {
		t.Fatal("no port bound")
	}
	if _, err := l.Accept(); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("Accept on idle listener = %v, want would-block", err)
	}
}

func acceptOne(t *testing.T, l *Listener, p *Poller) *Conn {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := l.Accept()
		if err == nil {
			return conn
		}
		if !errors.Is(err, ErrWouldBlock) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("accept timeout")
		}
		if _, err := p.Wait(100); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEchoOverPoller(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	poller, err := NewPoller()
	if err != nil {
		t.Fatal(err)
	}
	defer poller.Close()
	if err := poller.Add(l.FD(), true, false); err != nil {
		t.Fatal(err)
	}

	cli, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	srv := acceptOne(t, l, poller)
	defer srv.Close()
	if err := poller.Add(srv.FD(), true, false); err != nil {
		t.Fatal(err)
	}

	msg := []byte("ping over epoll")
	if _, err := cli.Write(msg); err != nil {
		t.Fatal(err)
	}

	// Wait until the server side is readable, then echo.
	buf := make([]byte, 64)
	var got []byte
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < len(msg) {
		events, err := poller.Wait(100)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if ev.FD == srv.FD() && ev.Readable {
				n, err := srv.Read(buf)
				if err != nil && !errors.Is(err, ErrWouldBlock) {
					t.Fatal(err)
				}
				got = append(got, buf[:n]...)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("read timeout")
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestReadWouldBlock(t *testing.T) {
	l, _ := Listen("127.0.0.1:0")
	defer l.Close()
	poller, _ := NewPoller()
	defer poller.Close()
	poller.Add(l.FD(), true, false)
	cli, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := acceptOne(t, l, poller)
	defer srv.Close()

	buf := make([]byte, 8)
	_, err = srv.Read(buf)
	if !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("Read = %v, want would-block", err)
	}
	var wb interface{ WouldBlock() bool }
	if !errors.As(err, &wb) || !wb.WouldBlock() {
		t.Fatal("error does not implement WouldBlock")
	}
}

func TestPeerCloseYieldsEOF(t *testing.T) {
	l, _ := Listen("127.0.0.1:0")
	defer l.Close()
	poller, _ := NewPoller()
	defer poller.Close()
	poller.Add(l.FD(), true, false)
	cli, _ := Dial(l.Addr())
	srv := acceptOne(t, l, poller)
	defer srv.Close()
	cli.Close()

	buf := make([]byte, 8)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := srv.Read(buf)
		if IsEOF(err) {
			return
		}
		if err != nil && !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("Read = %v, want EOF", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("never saw EOF")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriteBuffersLargePayload(t *testing.T) {
	l, _ := Listen("127.0.0.1:0")
	defer l.Close()
	poller, _ := NewPoller()
	defer poller.Close()
	poller.Add(l.FD(), true, false)
	cli, _ := Dial(l.Addr())
	defer cli.Close()
	srv := acceptOne(t, l, poller)
	defer srv.Close()

	// Overwhelm the socket buffer: Write must accept everything.
	payload := bytes.Repeat([]byte{0x5c}, 4<<20)
	n, err := srv.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}

	got := make([]byte, 0, len(payload))
	buf := make([]byte, 64<<10)
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < len(payload) {
		// Reader drains while the writer flushes.
		if srv.HasPending() {
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		n, err := cli.Read(buf)
		if err != nil && !errors.Is(err, ErrWouldBlock) {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
		if time.Now().After(deadline) {
			t.Fatalf("read %d/%d bytes", len(got), len(payload))
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	if srv.HasPending() {
		t.Fatal("pending data after full drain")
	}
}

func TestPollerModAndDel(t *testing.T) {
	l, _ := Listen("127.0.0.1:0")
	defer l.Close()
	poller, _ := NewPoller()
	defer poller.Close()
	if err := poller.Add(l.FD(), true, false); err != nil {
		t.Fatal(err)
	}
	if err := poller.Mod(l.FD(), true, true); err != nil {
		t.Fatal(err)
	}
	if err := poller.Del(l.FD()); err != nil {
		t.Fatal(err)
	}
	// Double-del fails.
	if err := poller.Del(l.FD()); err == nil {
		t.Fatal("expected error deleting unregistered fd")
	}
}

func TestNotifyPipe(t *testing.T) {
	np, err := NewNotifyPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer np.Close()
	poller, _ := NewPoller()
	defer poller.Close()
	if err := poller.Add(np.ReadFD(), true, false); err != nil {
		t.Fatal(err)
	}

	// No events before notify.
	events, err := poller.Wait(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("spurious events: %+v", events)
	}

	for i := 0; i < 3; i++ {
		if err := np.Notify(); err != nil {
			t.Fatal(err)
		}
	}
	events, err = poller.Wait(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].FD != np.ReadFD() || !events[0].Readable {
		t.Fatalf("events = %+v", events)
	}
	if n := np.Drain(); n != 3 {
		t.Fatalf("drained %d bytes, want 3", n)
	}
	// Drained: no further events.
	events, _ = poller.Wait(0)
	if len(events) != 0 {
		t.Fatal("events after drain")
	}
}

func TestConnClosedOps(t *testing.T) {
	l, _ := Listen("127.0.0.1:0")
	defer l.Close()
	cli, _ := Dial(l.Addr())
	cli.Close()
	cli.Close() // idempotent
	if _, err := cli.Read(make([]byte, 4)); err == nil {
		t.Fatal("read on closed conn succeeded")
	}
	if _, err := cli.Write([]byte("x")); err == nil {
		t.Fatal("write on closed conn succeeded")
	}
}

func TestListenErrors(t *testing.T) {
	if _, err := Listen("not-an-addr"); err == nil {
		t.Fatal("bad address accepted")
	}
	// Binding a privileged port as non-root usually fails; binding the
	// same port twice with different sockets works due to SO_REUSEPORT,
	// so instead verify a bogus host fails.
	if _, err := Listen("256.256.256.256:0"); err == nil {
		t.Fatal("bogus host accepted")
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("not-an-addr"); err == nil {
		t.Fatal("bad address accepted")
	}
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("connect to closed port succeeded")
	}
}

func TestListenerAddrFormat(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if want := "127.0.0.1:"; len(l.Addr()) <= len(want) || l.Addr()[:len(want)] != want {
		t.Fatalf("Addr = %q", l.Addr())
	}
}

func TestWouldBlockErrorInterface(t *testing.T) {
	if ErrWouldBlock.Error() == "" || !ErrWouldBlock.WouldBlock() {
		t.Fatal("ErrWouldBlock malformed")
	}
}

func TestNotifyPipeDrainEmpty(t *testing.T) {
	np, err := NewNotifyPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer np.Close()
	if n := np.Drain(); n != 0 {
		t.Fatalf("Drain on empty pipe = %d", n)
	}
}

func TestSO_REUSEPORTSharing(t *testing.T) {
	// Two listeners on the same port — the multi-worker accept model.
	l1, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	l2, err := Listen(l1.Addr())
	if err != nil {
		t.Fatalf("second listener on %s: %v", l1.Addr(), err)
	}
	defer l2.Close()
	if l1.Port() != l2.Port() {
		t.Fatalf("ports differ: %d vs %d", l1.Port(), l2.Port())
	}
}

// Wait hands out its own buffer: a wake-up with events allocates nothing
// once the buffer has grown, and the slice is only valid until the next
// Wait.
func TestWaitReusesEventSlice(t *testing.T) {
	np, err := NewNotifyPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer np.Close()
	poller, _ := NewPoller()
	defer poller.Close()
	if err := poller.Add(np.ReadFD(), true, false); err != nil {
		t.Fatal(err)
	}
	np.Notify()
	first, err := poller.Wait(1000)
	if err != nil || len(first) != 1 {
		t.Fatalf("Wait = %+v, %v", first, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if evs, err := poller.Wait(0); err != nil || len(evs) != 1 {
			t.Fatalf("Wait = %+v, %v", evs, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Wait allocates %v times per wake-up with events", allocs)
	}
	second, _ := poller.Wait(0)
	if &first[0] != &second[0] {
		t.Fatal("Wait returned a fresh slice instead of its reused buffer")
	}
}

// Dropping read interest silences everything a loop that cannot read
// would have to ignore — the peer's data and its half-close — and
// restoring it delivers both (level-triggered).
func TestModWithoutReadInterestIsSilent(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	poller, _ := NewPoller()
	defer poller.Close()
	cli, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var srv *Conn
	for i := 0; i < 100 && srv == nil; i++ {
		if srv, err = l.Accept(); err != nil {
			time.Sleep(time.Millisecond)
		}
	}
	if srv == nil {
		t.Fatalf("accept: %v", err)
	}
	defer srv.Close()
	if err := poller.Add(srv.FD(), true, false); err != nil {
		t.Fatal(err)
	}
	if err := poller.Mod(srv.FD(), false, false); err != nil {
		t.Fatal(err)
	}
	cli.Write([]byte("hello"))
	cli.(*net.TCPConn).CloseWrite()
	if evs, _ := poller.Wait(50); len(evs) != 0 {
		t.Fatalf("events without read interest: %+v", evs)
	}
	if err := poller.Mod(srv.FD(), true, false); err != nil {
		t.Fatal(err)
	}
	evs, _ := poller.Wait(1000)
	if len(evs) != 1 || !evs[0].Readable || !evs[0].Closed {
		t.Fatalf("events after restoring read interest: %+v", evs)
	}
}

// TestPendingDrainsInOrderAgainstSlowReader: with a tiny send buffer and a
// reader that drains in small steps, every Flush is a partial write. The
// pending buffer advances a head offset instead of moving the remainder
// down each time; bytes must still arrive exact and in order — including
// those written while older ones were still pending — and both the buffer
// and the offset reset once everything is out.
func TestPendingDrainsInOrderAgainstSlowReader(t *testing.T) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, r := &Conn{fd: fds[0]}, &Conn{fd: fds[1]}
	defer w.Close()
	defer r.Close()
	if err := syscall.SetsockoptInt(w.fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 4096); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 1<<20)
	for i := range want {
		want[i] = byte(i ^ i>>8 ^ i>>16) // position-dependent: a misplaced byte shows
	}
	var got []byte
	step := make([]byte, 1500)
	written := 0
	for len(got) < len(want) {
		if written < len(want) {
			// Keep writing a little faster than the reader drains: most of
			// these land behind bytes that are still pending, and the sent
			// prefix keeps overtaking the remainder.
			end := min(written+2000, len(want))
			if n, err := w.Write(want[written:end]); err != nil || n != end-written {
				t.Fatalf("Write = %d, %v", n, err)
			}
			written = end
		}
		n, err := r.Read(step)
		if err != nil && !errors.Is(err, ErrWouldBlock) {
			t.Fatal(err)
		}
		got = append(got, step[:n]...)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes arrived out of order or corrupted")
	}
	if w.HasPending() || len(w.pending) != 0 || w.head != 0 {
		t.Fatalf("after the drain: HasPending=%t len=%d head=%d, want all clear", w.HasPending(), len(w.pending), w.head)
	}
}

// The listener sets TCP_NODELAY once; every accepted socket must have it
// without a setsockopt of its own.
func TestAcceptedConnInheritsNoDelay(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	poller, _ := NewPoller()
	defer poller.Close()
	if err := poller.Add(l.FD(), true, false); err != nil {
		t.Fatal(err)
	}
	client, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	srv := acceptOne(t, l, poller)
	defer srv.Close()
	v, err := syscall.GetsockoptInt(srv.FD(), syscall.IPPROTO_TCP, syscall.TCP_NODELAY)
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Fatal("accepted socket does not have TCP_NODELAY")
	}
}

// Closing a registered socket without Poller.Del must leave nothing behind:
// the descriptor number is reused by the next accept, registers again
// without EEXIST, and the closed socket's unread bytes raise no event on it.
func TestCloseWithoutDelLeavesNoStaleEvent(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	poller, _ := NewPoller()
	defer poller.Close()
	if err := poller.Add(l.FD(), true, false); err != nil {
		t.Fatal(err)
	}
	waitReadable := func(fd int) bool {
		t.Helper()
		events, err := poller.Wait(2000)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if ev.FD == fd && ev.Readable {
				return true
			}
		}
		return false
	}

	first, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	old := acceptOne(t, l, poller)
	oldFD := old.FD()
	if err := poller.Add(oldFD, true, false); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Write([]byte("stale")); err != nil {
		t.Fatal(err)
	}
	if !waitReadable(oldFD) {
		t.Fatal("no read event for the first connection")
	}
	// Dial before the close, so that the freed descriptor number goes to
	// the accept and not to the client's own socket.
	second, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	old.Close() // unread bytes pending, still in the epoll set, no Del
	fresh := acceptOne(t, l, poller)
	defer fresh.Close()
	if fresh.FD() != oldFD {
		t.Skipf("descriptor %d not reused (got %d)", oldFD, fresh.FD())
	}
	if err := poller.Add(fresh.FD(), true, false); err != nil {
		t.Fatalf("re-registering the reused descriptor: %v", err)
	}
	events, err := poller.Wait(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.FD == oldFD {
			t.Fatalf("stale event on the reused descriptor: %+v", ev)
		}
	}
	if _, err := second.Write([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if !waitReadable(fresh.FD()) {
		t.Fatal("no read event for the second connection")
	}
	buf := make([]byte, 16)
	n, err := fresh.Read(buf)
	if err != nil || string(buf[:n]) != "fresh" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
}
