//go:build linux

// Package netpoll provides the non-blocking socket and epoll(7) machinery
// an event-driven web server is built on (§2.2): a Poller wrapping an
// epoll instance, non-blocking TCP listeners and connections, and a
// NotifyPipe used by the FD-based async-event notification scheme (§3.4).
//
// The event-driven architecture "works with network sockets in an
// asynchronous (non-blocking) mode and monitors them with an event-based
// I/O multiplexing mechanism" — this package is that mechanism, built
// directly on the standard library's syscall package so the worker's event
// loop owns scheduling (no goroutine-per-connection).
//
// One simplification relative to raw sockets: Conn.Write never fails with
// EAGAIN. Unsent bytes are buffered in user space and flushed when the
// poller reports the socket writable (Conn.Flush). This keeps the TLS
// record layer free of partial-write bookkeeping; the event loop registers
// EPOLLOUT interest whenever a connection has pending output.
package netpoll

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"syscall"
)

// ErrWouldBlock is returned by Conn.Read and Listener.Accept when the
// operation would block. It implements the WouldBlock interface the TLS
// layer translates into its want-read condition.
var ErrWouldBlock = &wouldBlockError{}

type wouldBlockError struct{}

func (*wouldBlockError) Error() string    { return "netpoll: operation would block" }
func (*wouldBlockError) WouldBlock() bool { return true }

// Event is one readiness notification from the poller.
type Event struct {
	FD       int
	Readable bool
	Writable bool
	Closed   bool // peer hung up or error condition
}

// Poller wraps an epoll instance.
type Poller struct {
	epfd   int
	events []syscall.EpollEvent
	out    []Event // Wait's result buffer, reused across calls
}

// NewPoller creates an epoll instance.
func NewPoller() (*Poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("netpoll: epoll_create1: %w", err)
	}
	return &Poller{epfd: epfd, events: make([]syscall.EpollEvent, 256)}, nil
}

// Close releases the epoll instance.
func (p *Poller) Close() error { return syscall.Close(p.epfd) }

// epollEvents maps interests to an epoll mask. The peer's half-close
// (EPOLLRDHUP) is part of read interest: a descriptor registered with
// read=false reports only what the kernel always reports (EPOLLHUP,
// EPOLLERR), so a loop that cannot service reads right now is not woken
// by a FIN it would have to ignore.
func epollEvents(read, write bool) uint32 {
	var ev uint32
	if read {
		ev |= syscall.EPOLLIN | syscall.EPOLLRDHUP
	}
	if write {
		ev |= syscall.EPOLLOUT
	}
	return ev
}

// Add registers fd with the given interests.
func (p *Poller) Add(fd int, read, write bool) error {
	ev := syscall.EpollEvent{Events: epollEvents(read, write), Fd: int32(fd)}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		return fmt.Errorf("netpoll: epoll_ctl add fd %d: %w", fd, err)
	}
	return nil
}

// Mod updates the interests of a registered fd.
func (p *Poller) Mod(fd int, read, write bool) error {
	ev := syscall.EpollEvent{Events: epollEvents(read, write), Fd: int32(fd)}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, fd, &ev); err != nil {
		return fmt.Errorf("netpoll: epoll_ctl mod fd %d: %w", fd, err)
	}
	return nil
}

// Del unregisters fd. A descriptor about to be closed needs no Del: closing
// the last descriptor of a socket removes it from every epoll set.
func (p *Poller) Del(fd int) error {
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, fd, nil); err != nil {
		return fmt.Errorf("netpoll: epoll_ctl del fd %d: %w", fd, err)
	}
	return nil
}

// Wait blocks up to timeoutMs (-1 = forever, 0 = poll) and returns ready
// events. The returned slice is the poller's own buffer: it is valid until
// the next Wait on this poller, which overwrites it.
func (p *Poller) Wait(timeoutMs int) ([]Event, error) {
	for {
		n, err := syscall.EpollWait(p.epfd, p.events, timeoutMs)
		if err != nil {
			if errors.Is(err, syscall.EINTR) {
				continue
			}
			return nil, fmt.Errorf("netpoll: epoll_wait: %w", err)
		}
		out := p.out[:0]
		for i := 0; i < n; i++ {
			e := p.events[i]
			out = append(out, Event{
				FD:       int(e.Fd),
				Readable: e.Events&(syscall.EPOLLIN|syscall.EPOLLPRI) != 0,
				Writable: e.Events&syscall.EPOLLOUT != 0,
				Closed:   e.Events&(syscall.EPOLLHUP|syscall.EPOLLRDHUP|syscall.EPOLLERR) != 0,
			})
		}
		p.out = out
		return out, nil
	}
}

// Listener is a non-blocking TCP listener.
type Listener struct {
	fd   int
	port int
}

// Listen opens a non-blocking IPv4 TCP listener on addr ("host:port";
// empty host means all interfaces, port 0 picks a free port).
func Listen(addr string) (*Listener, error) {
	tcpAddr, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("netpoll: socket: %w", err)
	}
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	// SO_REUSEPORT (15 on Linux; absent from the stdlib syscall package)
	// lets every worker own its own listening socket on the shared port,
	// the way multiple Nginx workers accept in a balanced manner (§2.2).
	const soReusePort = 15
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, soReusePort, 1); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	// Set once here rather than once per Accept: on Linux an accepted
	// socket inherits TCP_NODELAY from its listener.
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	var sa syscall.SockaddrInet4
	sa.Port = tcpAddr.Port
	if ip4 := tcpAddr.IP.To4(); ip4 != nil {
		copy(sa.Addr[:], ip4)
	}
	if err := syscall.Bind(fd, &sa); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("netpoll: bind %s: %w", addr, err)
	}
	if err := syscall.Listen(fd, 1024); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("netpoll: listen: %w", err)
	}
	bound, err := syscall.Getsockname(fd)
	if err != nil {
		syscall.Close(fd)
		return nil, err
	}
	l := &Listener{fd: fd}
	if sa4, ok := bound.(*syscall.SockaddrInet4); ok {
		l.port = sa4.Port
	}
	return l, nil
}

// FD returns the listening socket descriptor (for poller registration).
func (l *Listener) FD() int { return l.fd }

// Port returns the bound port.
func (l *Listener) Port() int { return l.port }

// Addr returns the listener's address string.
func (l *Listener) Addr() string { return "127.0.0.1:" + strconv.Itoa(l.port) }

// Accept accepts one connection into a new Conn; see AcceptTo.
func (l *Listener) Accept() (*Conn, error) {
	c := new(Conn)
	if err := l.AcceptTo(c); err != nil {
		return nil, err
	}
	return c, nil
}

// AcceptTo accepts one connection into c, in place; it returns
// ErrWouldBlock when no connection is pending, leaving c untouched. c must
// be new or closed: it is zeroed, so nothing of an earlier connection
// carries over. The connection has TCP_NODELAY set (inherited from the
// listener). The peer's address is not asked for: nothing reads it, and
// syscall.Accept4 would allocate it.
func (l *Listener) AcceptTo(c *Conn) error {
	for {
		nfd, _, errno := syscall.Syscall6(syscall.SYS_ACCEPT4, uintptr(l.fd), 0, 0,
			syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0, 0)
		switch errno {
		case 0:
			*c = Conn{fd: int(nfd)}
			return nil
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return ErrWouldBlock
		default:
			return fmt.Errorf("netpoll: accept: %w", errno)
		}
	}
}

// Close closes the listening socket.
func (l *Listener) Close() error { return syscall.Close(l.fd) }

// Conn is a non-blocking TCP connection with user-space write buffering.
type Conn struct {
	fd int
	// pending[head:] is the unflushed output. A partial write advances
	// head instead of moving the remainder down (quadratic against a slow
	// reader); both reset once everything is out.
	pending []byte
	head    int
	closed  bool
}

// Dial opens a non-blocking connection to addr, waiting for the connect
// to complete (the dial itself is synchronous for test/client
// convenience; the returned conn is non-blocking).
func Dial(addr string) (*Conn, error) {
	tcpAddr, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	var sa syscall.SockaddrInet4
	sa.Port = tcpAddr.Port
	if ip4 := tcpAddr.IP.To4(); ip4 != nil {
		copy(sa.Addr[:], ip4)
	}
	if err := syscall.Connect(fd, &sa); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("netpoll: connect %s: %w", addr, err)
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	return &Conn{fd: fd}, nil
}

// FD returns the socket descriptor.
func (c *Conn) FD() int { return c.fd }

// Read fills p with available bytes; it returns ErrWouldBlock when the
// socket has no data and io.EOF-like (0, nil) is never returned — a
// closed peer yields (0, io.EOF semantics via syscall read == 0) mapped
// to an error by the caller. For simplicity a zero-byte read is reported
// as a closed connection error.
func (c *Conn) Read(p []byte) (int, error) {
	if c.closed {
		return 0, errors.New("netpoll: read on closed connection")
	}
	for {
		n, err := syscall.Read(c.fd, p)
		if err != nil {
			switch {
			case errors.Is(err, syscall.EINTR):
				continue
			case errors.Is(err, syscall.EAGAIN):
				return 0, ErrWouldBlock
			default:
				return 0, fmt.Errorf("netpoll: read: %w", err)
			}
		}
		if n == 0 {
			return 0, errEOF
		}
		return n, nil
	}
}

var errEOF = errors.New("EOF")

// IsEOF reports whether err marks an orderly peer shutdown.
func IsEOF(err error) bool { return errors.Is(err, errEOF) }

// Write queues p for transmission. It first attempts a direct write; any
// remainder is buffered and flushed by Flush when the poller reports the
// socket writable. Write never blocks and always accounts the full length.
func (c *Conn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, errors.New("netpoll: write on closed connection")
	}
	if c.HasPending() {
		if c.head >= len(c.pending)-c.head {
			// The sent prefix has outgrown the remainder: slide down (each
			// byte moves at most once per doubling), so the buffer tracks
			// what is unsent, not everything written since the last drain.
			c.pending = c.pending[:copy(c.pending, c.pending[c.head:])]
			c.head = 0
		}
		c.pending = append(c.pending, p...)
		if err := c.Flush(); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	sent := 0
	for sent < len(p) {
		n, err := syscall.Write(c.fd, p[sent:])
		if err != nil {
			switch {
			case errors.Is(err, syscall.EINTR):
				continue
			case errors.Is(err, syscall.EAGAIN):
				c.pending = append(c.pending, p[sent:]...)
				return len(p), nil
			default:
				return sent, fmt.Errorf("netpoll: write: %w", err)
			}
		}
		sent += n
	}
	return len(p), nil
}

// Flush attempts to drain the pending output buffer.
func (c *Conn) Flush() error {
	for c.HasPending() {
		n, err := syscall.Write(c.fd, c.pending[c.head:])
		if err != nil {
			switch {
			case errors.Is(err, syscall.EINTR):
				continue
			case errors.Is(err, syscall.EAGAIN):
				return nil
			default:
				return fmt.Errorf("netpoll: flush: %w", err)
			}
		}
		c.head += n
	}
	c.pending, c.head = c.pending[:0], 0
	return nil
}

// HasPending reports whether unflushed output remains.
func (c *Conn) HasPending() bool { return c.head < len(c.pending) }

// Close closes the socket.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return syscall.Close(c.fd)
}

// Abort closes the socket with an immediate TCP reset (SO_LINGER with a
// zero timeout): unsent data is discarded and the peer sees RST instead
// of FIN. Admission control sheds just-accepted connections this way —
// the client learns immediately, and neither side spends TLS bytes.
func (c *Conn) Abort() error {
	if c.closed {
		return nil
	}
	c.closed = true
	syscall.SetsockoptLinger(c.fd, syscall.SOL_SOCKET, syscall.SO_LINGER,
		&syscall.Linger{Onoff: 1, Linger: 0})
	return syscall.Close(c.fd)
}

// NotifyPipe is a non-blocking self-pipe used by the FD-based async event
// notification scheme: the QAT response callback writes a byte to wake the
// worker's epoll (incurring the user/kernel switches the kernel-bypass
// scheme avoids, §3.4).
type NotifyPipe struct {
	r, w int
}

// NewNotifyPipe creates the pipe pair.
func NewNotifyPipe() (*NotifyPipe, error) {
	var fds [2]int
	if err := syscall.Pipe2(fds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		return nil, fmt.Errorf("netpoll: pipe2: %w", err)
	}
	return &NotifyPipe{r: fds[0], w: fds[1]}, nil
}

// ReadFD returns the poll-side descriptor to register with the poller.
func (np *NotifyPipe) ReadFD() int { return np.r }

// Notify wakes the poller by writing one byte (a real syscall — this is
// the cost the kernel-bypass scheme eliminates).
func (np *NotifyPipe) Notify() error {
	var b [1]byte
	for {
		_, err := syscall.Write(np.w, b[:])
		switch {
		case err == nil:
			return nil
		case errors.Is(err, syscall.EINTR):
			continue
		case errors.Is(err, syscall.EAGAIN):
			// Pipe full: the reader is already guaranteed to wake.
			return nil
		default:
			return fmt.Errorf("netpoll: notify: %w", err)
		}
	}
}

// Drain consumes all queued notification bytes, returning how many were
// read.
func (np *NotifyPipe) Drain() int {
	var buf [256]byte
	total := 0
	for {
		n, err := syscall.Read(np.r, buf[:])
		if n > 0 {
			total += n
		}
		if err != nil || n < len(buf) {
			return total
		}
	}
}

// Close closes both ends.
func (np *NotifyPipe) Close() error {
	err1 := syscall.Close(np.r)
	err2 := syscall.Close(np.w)
	if err1 != nil {
		return err1
	}
	return err2
}
