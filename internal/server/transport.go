//go:build linux

package server

import (
	"errors"

	"qtls/internal/netpoll"
)

// sockTransport is a connection's socket as its TLS layer reads and writes
// it. It counts the reads and writes, and it is the readiness gate: once a
// read has come back short or would-block, the socket is known drained and
// Read answers would-block without a syscall until the loop sees the fd
// readable again (readable). Epoll is level-triggered, so bytes that
// arrive in between still end the next epoll_wait, and its readable event
// reopens the gate. This saves the read that would return EAGAIN right
// after a short one — the one fill issues after flushing a handshake
// flight, say. netpoll.Conn.Read itself still reads on every call.
type sockTransport struct {
	nc      *netpoll.Conn
	st      *WorkerStats
	drained bool
}

// Read reads from the socket unless it is known drained.
func (t *sockTransport) Read(p []byte) (int, error) {
	if t.drained {
		return 0, netpoll.ErrWouldBlock
	}
	t.st.Reads.Add(1)
	n, err := t.nc.Read(p)
	if n < len(p) {
		t.drained = true
		if errors.Is(err, netpoll.ErrWouldBlock) {
			t.st.WouldBlockReads.Add(1)
		}
	}
	return n, err
}

// Write hands p to the socket (netpoll.Conn buffers what the kernel does
// not take).
func (t *sockTransport) Write(p []byte) (int, error) {
	t.st.Writes.Add(1)
	return t.nc.Write(p)
}

// readable reopens the gate: the loop saw the fd readable.
func (t *sockTransport) readable() { t.drained = false }
