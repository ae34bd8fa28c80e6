//go:build linux

package server

import (
	"errors"
	"testing"
	"time"

	"qtls/internal/netpoll"
)

// socketPair returns the two ends of a connected loopback TCP socket, both
// non-blocking, and a poller watching the server end for readability.
func socketPair(t *testing.T) (srv, cli *netpoll.Conn, poller *netpoll.Poller) {
	t.Helper()
	l, err := netpoll.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if cli, err = netpoll.Dial(l.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	for deadline := time.Now().Add(5 * time.Second); ; {
		if srv, err = l.Accept(); err == nil {
			break
		}
		if !errors.Is(err, netpoll.ErrWouldBlock) || time.Now().After(deadline) {
			t.Fatalf("accept: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() { srv.Close() })
	if poller, err = netpoll.NewPoller(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { poller.Close() })
	if err := poller.Add(srv.FD(), true, false); err != nil {
		t.Fatal(err)
	}
	return srv, cli, poller
}

// waitReadable blocks until the poller reports fd readable.
func waitReadable(t *testing.T, poller *netpoll.Poller, fd int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		evs, err := poller.Wait(100)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if ev.FD == fd && ev.Readable {
				return
			}
		}
	}
	t.Fatal("socket never became readable")
}

// TestReadinessGate: after a short read the transport answers would-block
// without a syscall — even with new bytes in the socket — until the loop
// marks the socket readable; then the bytes come through. A read that
// fills the buffer leaves the gate open, and the read after it that finds
// nothing is counted as would-block.
func TestReadinessGate(t *testing.T) {
	srv, cli, poller := socketPair(t)
	var st WorkerStats
	tp := sockTransport{nc: srv, st: &st}
	buf := make([]byte, 8)
	reads := func(want int64) {
		t.Helper()
		if got := st.Reads.Load(); got != want {
			t.Fatalf("%d read syscalls, want %d", got, want)
		}
	}

	cli.Write([]byte("hello"))
	waitReadable(t, poller, srv.FD())
	tp.readable()
	if n, err := tp.Read(buf); n != 5 || err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("first read: %q, %v", buf[:n], err)
	}
	reads(1)
	if n, err := tp.Read(buf); n != 0 || !errors.Is(err, netpoll.ErrWouldBlock) {
		t.Fatalf("read after a short one: %d, %v; want would-block", n, err)
	}
	reads(1) // no syscall

	cli.Write([]byte("more"))
	waitReadable(t, poller, srv.FD())
	if _, err := tp.Read(buf); !errors.Is(err, netpoll.ErrWouldBlock) {
		t.Fatalf("read before the readable mark: %v; want would-block", err)
	}
	reads(1) // still none: the loop has not marked the socket readable
	tp.readable()
	if n, err := tp.Read(buf); n != 4 || err != nil || string(buf[:n]) != "more" {
		t.Fatalf("read after the readable mark: %q, %v", buf[:n], err)
	}
	reads(2)

	cli.Write([]byte("12345678"))
	waitReadable(t, poller, srv.FD())
	tp.readable()
	if n, err := tp.Read(buf); n != len(buf) || err != nil {
		t.Fatalf("full read: %d, %v", n, err)
	}
	if n, err := tp.Read(buf); n != 0 || !errors.Is(err, netpoll.ErrWouldBlock) {
		t.Fatalf("read after a full one: %d, %v; want the socket's would-block", n, err)
	}
	reads(4)
	if got := st.WouldBlockReads.Load(); got != 1 {
		t.Fatalf("%d would-block reads, want 1", got)
	}
	if _, err := tp.Write([]byte("x")); err != nil || st.Writes.Load() != 1 {
		t.Fatalf("write: %v, %d counted", err, st.Writes.Load())
	}
}
