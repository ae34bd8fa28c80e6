//go:build linux

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"qtls/internal/minitls"
)

// The load generator: a closed loop of `clients` goroutines in this
// process, each sending its next operation only when the previous one
// completed (the s_time / ab model of the paper's §5). It is the calls
// internal/loadgen makes, kept here because the benchmark needs what
// loadgen does not report: time to first byte, every sample, per-slice
// rates and a timestamp at each layer boundary.

// opSample holds the layer-boundary timestamps of one completed,
// verified operation. A keep-alive operation starts at its request write,
// so start, dialed and shaken coincide.
type opSample struct {
	client    int
	offered   bool      // a stored session was offered (and accepted: connect checks)
	start     time.Time // connect (hs_*) or request write (bulk_*)
	dialed    time.Time // TCP connected
	shaken    time.Time // TLS handshake done
	firstByte time.Time // first response-body byte readable
	bodyDone  time.Time // whole body read and verified
	end       time.Time // connection closed (hs_*) or same as bodyDone
}

// bodyPattern is the SizedBodyHandler content ('a'+i%26), long enough to
// compare any read chunk at any phase with one bytes.Equal.
var bodyPattern = func() []byte {
	p := make([]byte, 64<<10+26)
	for i := range p {
		p[i] = byte('a' + i%26)
	}
	return p
}()

// client is one closed-loop connection slot.
type client struct {
	id   int
	w    workload
	addr string
	// rng is this client's share of the run's inputs: hello randoms, key
	// shares, record IVs and which stored session a connection offers all
	// come from it, so the same --seed replays the same inputs.
	rng      *rand.Rand
	sessions []*minitls.ClientSession
	nextAddr int
	buf      []byte
	// handshakes and requests count what this client completed over its
	// whole life, for the equality check against the server's counters.
	handshakes, requests int
	// setups holds the connection set-ups and hang-ups of a keep-alive
	// client: start/dialed/shaken from the connect, bodyDone/end around
	// the close.
	setups []opSample

	// Keep-alive connection (bulk workload).
	raw net.Conn
	tc  *minitls.Conn
	br  *bufio.Reader
}

func newClient(id int, w workload, addr string, seed int64) *client {
	return &client{
		id:   id,
		w:    w,
		addr: addr,
		rng:  rand.New(rand.NewSource(seed*1000003 + int64(id))),
		buf:  make([]byte, 32<<10),
	}
}

type tlsReader struct{ c *minitls.Conn }

func (r tlsReader) Read(p []byte) (int, error) { return r.c.Read(p) }

// dial connects from the next 127.0.1.x source address. Rotating the
// source keeps the TIME_WAIT sockets a handshake workload leaves behind
// (~2 000 per second) spread over many ephemeral-port ranges, so connect
// cost does not depend on how many runs came before this one.
func (c *client) dial() (net.Conn, error) {
	d := net.Dialer{Timeout: opTimeout}
	if !c.w.keepalive {
		c.nextAddr = (c.nextAddr + 1) % localAddrs
		d.LocalAddr = &net.TCPAddr{IP: net.IPv4(127, 0, 1, byte(1+c.id*localAddrs+c.nextAddr))}
	}
	return d.Dial("tcp4", c.addr)
}

// connect dials and handshakes, offering sess when non-nil, and checks
// the resumption state the server chose.
func (c *client) connect(s *opSample, sess *minitls.ClientSession) (net.Conn, *minitls.Conn, error) {
	raw, err := c.dial()
	if err != nil {
		return nil, nil, err
	}
	s.dialed = time.Now()
	raw.SetDeadline(s.dialed.Add(opTimeout))
	tc := minitls.ClientConn(raw, &minitls.Config{
		CipherSuites:  suite,
		Rand:          c.rng,
		Session:       sess,
		RequestTicket: c.w.resume && sess == nil,
	})
	if err := tc.Handshake(); err != nil {
		raw.Close()
		return nil, nil, fmt.Errorf("handshake: %w", err)
	}
	s.shaken = time.Now()
	c.handshakes++
	if got := tc.ConnectionState().DidResume; got != (sess != nil) {
		raw.Close()
		return nil, nil, fmt.Errorf("wrong resumption state: resumed=%t, session offered=%t", got, sess != nil)
	}
	return raw, tc, nil
}

// request sends one GET and reads the response, checking the length and
// every byte of the body.
func (c *client) request(tc *minitls.Conn, br *bufio.Reader, s *opSample) error {
	req := "GET /" + strconv.Itoa(c.w.bodyLen) + " HTTP/1.1\r\nHost: qtls\r\n\r\n"
	if _, err := tc.Write([]byte(req)); err != nil {
		return fmt.Errorf("request write: %w", err)
	}
	length := -1
	for first := true; ; first = false {
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("response header: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if first && !strings.HasPrefix(line, "HTTP/1.1 200") {
			return fmt.Errorf("status %q", line)
		}
		if line == "" {
			break
		}
		if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(k, "content-length") {
			if length, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
				return fmt.Errorf("content-length: %w", err)
			}
		}
	}
	if length != c.w.bodyLen {
		return fmt.Errorf("content-length %d, want %d", length, c.w.bodyLen)
	}
	if _, err := br.Peek(1); err != nil {
		return fmt.Errorf("first body byte: %w", err)
	}
	s.firstByte = time.Now()
	for off := 0; off < length; {
		n, err := br.Read(c.buf[:min(len(c.buf), length-off)])
		if n > 0 {
			phase := off % 26
			if !bytes.Equal(c.buf[:n], bodyPattern[phase:phase+n]) {
				return fmt.Errorf("body mismatch in bytes %d..%d", off, off+n)
			}
			off += n
		}
		if err != nil && off < length {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("short body (%d of %d bytes): %w", off, length, err)
		}
	}
	s.bodyDone = time.Now()
	c.requests++
	return nil
}

// op performs one operation of the client's workload.
func (c *client) op() (opSample, error) {
	s := opSample{client: c.id}
	if c.w.keepalive {
		return c.keepaliveOp(s)
	}
	// A resuming client first collects its tickets with full handshakes
	// (these fall inside the warm-up), then offers one per connection.
	var sess *minitls.ClientSession
	if c.w.resume && len(c.sessions) == sessionsPerClient {
		sess = c.sessions[c.rng.Intn(len(c.sessions))]
	}
	s.offered = sess != nil
	s.start = time.Now()
	raw, tc, err := c.connect(&s, sess)
	if err != nil {
		return s, err
	}
	if c.w.resume && sess == nil {
		got := tc.ResumptionSession()
		if got == nil || len(got.Ticket) == 0 {
			raw.Close()
			return s, errors.New("server issued no session ticket")
		}
		c.sessions = append(c.sessions, got)
	}
	err = c.request(tc, bufio.NewReaderSize(tlsReader{tc}, len(c.buf)), &s)
	if err == nil {
		tc.Close() // close-notify; the transport close follows
	}
	raw.Close()
	s.end = time.Now()
	return s, err
}

func (c *client) keepaliveOp(s opSample) (opSample, error) {
	if c.tc == nil {
		setup := opSample{client: c.id, start: time.Now()}
		raw, tc, err := c.connect(&setup, nil)
		if err != nil {
			return s, err
		}
		c.setups = append(c.setups, setup)
		c.raw, c.tc, c.br = raw, tc, bufio.NewReaderSize(tlsReader{tc}, len(c.buf))
	}
	s.start = time.Now()
	s.dialed, s.shaken = s.start, s.start
	c.raw.SetDeadline(s.start.Add(opTimeout))
	if err := c.request(c.tc, c.br, &s); err != nil {
		c.hangUp()
		return s, err
	}
	s.end = s.bodyDone
	return s, nil
}

// hangUp closes the keep-alive connection, if any.
func (c *client) hangUp() {
	if c.tc != nil {
		setup := &c.setups[len(c.setups)-1]
		setup.bodyDone = time.Now()
		c.tc.Close()
		c.raw.Close()
		setup.end = time.Now()
		c.raw, c.tc, c.br = nil, nil, nil
	}
}

// loadResult is what one closed-loop pass produced.
type loadResult struct {
	t0        time.Time
	wall      time.Duration
	attempted int
	failed    int
	samples   []opSample
	firstErr  error
}

// runLoad drives every client until the pass ends: after maxOps
// operations in total when maxOps > 0 (the fixed-count warm-up), else
// once dur has elapsed. An operation in flight when the window closes
// still completes and counts.
func runLoad(cs []*client, dur time.Duration, maxOps int) loadResult {
	res := loadResult{t0: time.Now()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	issued := 0
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var mine []opSample
			failed := 0
			var firstErr error
			for {
				if maxOps > 0 {
					mu.Lock()
					stop := issued >= maxOps
					issued++
					mu.Unlock()
					if stop {
						break
					}
				} else if time.Since(res.t0) >= dur {
					break
				}
				s, err := c.op()
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d: %w", c.id, err)
					}
					continue
				}
				mine = append(mine, s)
			}
			mu.Lock()
			res.samples = append(res.samples, mine...)
			res.attempted += len(mine) + failed
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(res.t0)
	return res
}
