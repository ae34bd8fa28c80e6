//go:build linux

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"qtls/internal/asynclib"
	"qtls/internal/minitls"
	"qtls/internal/trace"
)

// TLS / HTTP handlers and the built-in endpoints (stub_status, /metrics,
// /debug/trace), plus the header-parsing helpers they lean on.

func (w *Worker) handshakeHandler(c *conn) {
	err := c.tls.Handshake()
	switch {
	case err == nil:
		w.Stats.Handshakes.Add(1)
		if c.tls.ConnectionState().DidResume {
			w.Stats.Resumed.Add(1)
		}
		c.handler = (*Worker).requestHandler
		w.requestHandler(c)
	case errors.Is(err, minitls.ErrWantRead):
		// Waiting for the client's next flight: the server owes this
		// connection nothing until a read event arrives, so it leaves
		// TCactive — the timeliness constraint compares in-flight
		// requests against connections actually awaiting server work
		// (§3.3: "all active connections are waiting for QAT responses").
		if c.active {
			c.active = false
			w.activeConns--
		}
	case errors.Is(err, minitls.ErrWantAsync):
		w.suspendForAsync(c)
	case errors.Is(err, minitls.ErrWantAsyncRetry):
		w.queueRetry(c)
	default:
		w.Stats.Errors.Add(1)
		w.closeConn(c)
	}
}

func (w *Worker) requestHandler(c *conn) {
	var buf [4096]byte
	for {
		// The search resumes where the last one gave up, 3 bytes early for
		// a terminator split across reads: rescanning from the front would
		// cost a header sent a byte per record the square of its length.
		// A pipelined request already buffered is found before any read.
		if i := bytes.Index(c.reqBuf[c.reqScan:], []byte("\r\n\r\n")); i >= 0 {
			end := c.reqScan + i
			req := c.reqBuf[c.reqOff:end]
			// The request is parsed where it lies: the bytes after it move
			// down only at the next read.
			if c.reqOff, c.reqScan = end+4, end+4; c.reqOff == len(c.reqBuf) {
				c.reqBuf, c.reqOff, c.reqScan = c.reqBuf[:0], 0, 0
			}
			w.serveRequest(c, req)
			return
		}
		if c.reqOff > 0 {
			c.reqBuf = c.reqBuf[:copy(c.reqBuf, c.reqBuf[c.reqOff:])]
			c.reqOff = 0
		}
		c.reqScan = max(0, len(c.reqBuf)-3)
		n, err := c.tls.Read(buf[:])
		if n > 0 {
			c.reqBuf = append(c.reqBuf, buf[:n]...)
			if len(c.reqBuf) > 64<<10 {
				w.closeConn(c)
				return
			}
			continue
		}
		switch {
		case errors.Is(err, minitls.ErrWantRead):
			// Waiting for a request (keepalive included) with nothing
			// buffered means the connection is idle (§3.3).
			if len(c.reqBuf) == 0 && c.active {
				c.active = false
				w.activeConns--
			}
			return
		case errors.Is(err, minitls.ErrWantAsync):
			w.suspendForAsync(c)
			return
		case errors.Is(err, minitls.ErrWantAsyncRetry):
			w.queueRetry(c)
			return
		default:
			// EOF or fatal error.
			w.closeConn(c)
			return
		}
	}
}

// serveRequest parses the request line and headers, then prepares the
// response. "Connection: close" is honored: the response carries the
// same header and the connection is torn down after the write completes.
func (w *Worker) serveRequest(c *conn, req []byte) {
	method, target := requestLine(req)
	if len(target) == 0 || string(method) != "GET" {
		w.closeConn(c)
		return
	}
	var query []byte
	if i := bytes.IndexByte(target, '?'); i >= 0 {
		target, query = target[:i], target[i+1:]
	}
	path := string(target) // the handler may keep it
	c.closeAfterWrite = requestWantsClose(req)
	if !c.closeAfterWrite {
		if w.draining.Load() {
			// Draining: serve the admitted request, then close cleanly
			// instead of offering keepalive on a dying worker.
			c.closeAfterWrite = true
		} else if w.shedKeepalive(c) {
			// Overloaded: the response still completes, but the client is
			// told to reconnect — which the accept-time shed then rejects
			// while pressure lasts.
			c.closeAfterWrite = true
		}
	}
	w.Stats.Requests.Add(1)
	var body []byte
	var ok bool
	switch {
	case path == "/stub_status" && w.reg != nil:
		body, ok = w.statusBody(), true
	case path == "/metrics" && w.reg != nil:
		body, ok = w.metricsBody(), true
	case path == "/debug/trace" && w.tracer != nil:
		body, ok = w.traceBody(string(query)), true
	case path == "/debug/flight" && w.flight != nil:
		body, ok = w.flightBody(string(query)), true
	default:
		body, ok = w.handler(path)
	}
	status := "200 OK"
	if !ok {
		status = "404 Not Found"
		body = []byte("not found\n")
	}
	connHdr := "keep-alive"
	if c.closeAfterWrite {
		connHdr = "close"
	}
	// The header is built in the conn's array, which the next response
	// reuses: each seal reading this one has delivered by then. A seal
	// abandoned at its deadline has not — it may still be reading the
	// header on a device — so once an op of the conn was abandoned, every
	// header is an allocation of its own, and the conn is never reused
	// (reclaim).
	hdr := c.hdr[:0]
	if c.tls.OpAbandoned() {
		hdr = make([]byte, 0, len(c.hdr))
	}
	hdr = append(hdr, "HTTP/1.1 "...)
	hdr = append(hdr, status...)
	hdr = append(hdr, "\r\nContent-Length: "...)
	hdr = strconv.AppendInt(hdr, int64(len(body)), 10)
	hdr = append(hdr, "\r\nConnection: "...)
	hdr = append(hdr, connHdr...)
	hdr = append(hdr, "\r\n\r\n"...)
	// Header and body stay two slices: minitls gathers them record by
	// record, cutting where their concatenation would be cut.
	c.writeHdr, c.writeBody = hdr, body
	c.handler = (*Worker).writeHandler
	w.writeHandler(c)
}

func (w *Worker) writeHandler(c *conn) {
	var n int
	var err error
	if c.closeAfterWrite {
		// The close-notify leaves in the response's last socket write.
		n, err = c.tls.WritevClose(c.writeHdr, c.writeBody)
	} else {
		n, err = c.tls.Writev(c.writeHdr, c.writeBody)
	}
	switch {
	case err == nil:
		w.Stats.BytesOut.Add(int64(n))
		c.writeHdr, c.writeBody = nil, nil
		if c.closeAfterWrite {
			if c.nc.Flush(); c.nc.HasPending() {
				// Linger until the kernel accepts the tail of the
				// response; the writable event completes the close.
				c.draining = true
				w.updateWriteInterest(c)
				return
			}
			w.closeConn(c)
			return
		}
		c.handler = (*Worker).requestHandler
		// Response done: the connection is idle until the next request
		// (keepalive), which updates TCactive (§4.3).
		if c.active {
			c.active = false
			w.activeConns--
		}
		// Data may already be buffered (pipelined request).
		if len(c.reqBuf) > 0 {
			c.active = true
			w.activeConns++
			w.requestHandler(c)
		}
	case errors.Is(err, minitls.ErrWantRead):
		// Cannot happen on the write path, but harmless.
	case errors.Is(err, minitls.ErrWantAsync):
		w.suspendForAsync(c)
	case errors.Is(err, minitls.ErrWantAsyncRetry):
		w.queueRetry(c)
	default:
		w.Stats.Errors.Add(1)
		w.closeConn(c)
	}
}

// statusBody renders the stub_status page: worker activity, the shared
// fault/degradation counters, and per-instance health/breaker state.
func (w *Worker) statusBody() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Active connections: %d\n", len(w.conns))
	fmt.Fprintf(&b, "handshakes %d requests %d errors %d deadline_wakeups %d\n",
		w.Stats.Handshakes.Load(), w.Stats.Requests.Load(),
		w.Stats.Errors.Load(), w.Stats.DeadlineWakeups.Load())
	drain := 0
	if w.draining.Load() {
		drain = 1
	}
	fmt.Fprintf(&b, "shed_accept %d shed_keepalive %d drain_active %d\n",
		w.Stats.ShedAccepts.Load(), w.Stats.ShedKeepalive.Load(), drain)
	snap := w.reg.Snapshot()
	for _, name := range w.reg.Names() {
		fmt.Fprintf(&b, "%s %d\n", name, snap[name])
	}
	if w.eng != nil {
		for _, h := range w.eng.Health() {
			fmt.Fprintf(&b, "instance %d endpoint %d inflight %d leaked %d breaker %s\n",
				h.Index, h.Endpoint, h.Inflight, h.Leaked, h.Breaker)
		}
	}
	return b.Bytes()
}

// metricsBody renders the Prometheus exposition. Scrapes run on the
// worker goroutine (like every request), so refreshing this worker's
// gauges here is race-free and makes them current even mid-iteration;
// counters are read from their owners by the registry itself.
func (w *Worker) metricsBody() []byte {
	w.updateGauges()
	js := asynclib.Stats()
	w.reg.Gauge("qtls_jobs_started").Set(js.Started)
	w.reg.Gauge("qtls_jobs_paused").Set(js.Paused)
	w.reg.Gauge("qtls_jobs_resumed").Set(js.Resumed)
	w.reg.Gauge("qtls_jobs_finished").Set(js.Finished)
	var b bytes.Buffer
	w.reg.WritePrometheus(&b)
	return b.Bytes()
}

// traceBody serves the /debug/trace endpoint: the most recent spans
// across all workers as a JSON array, newest last. ?n= bounds the count
// (default 256, <=0 means everything retained).
func (w *Worker) traceBody(query string) []byte {
	n := 256
	for _, kv := range strings.Split(query, "&") {
		if v, ok := strings.CutPrefix(kv, "n="); ok {
			if parsed, err := strconv.Atoi(v); err == nil {
				n = parsed
			}
		}
	}
	spans := w.tracer.Recent(n)
	if spans == nil {
		spans = []trace.Span{}
	}
	out, err := json.Marshal(spans)
	if err != nil {
		return []byte(`{"error":"trace encoding failed"}`)
	}
	return append(out, '\n')
}

// flightBody serves the /debug/flight endpoint: a manual black-box dump
// in the same JSON-lines format the anomaly trigger emits — one header
// line with the windowed phase summaries, then the journaled events,
// oldest first. ?n= bounds the event count (default everything
// retained). Reading is lock-free on the writer side: journal snapshots
// skip torn slots, so scraping under load never blocks a worker.
func (w *Worker) flightBody(query string) []byte {
	n := 0
	for _, kv := range strings.Split(query, "&") {
		if v, ok := strings.CutPrefix(kv, "n="); ok {
			if parsed, err := strconv.Atoi(v); err == nil {
				n = parsed
			}
		}
	}
	var b bytes.Buffer
	if err := w.flight.WriteDump(&b, "manual", n); err != nil {
		return []byte("{\"error\":\"flight dump failed\"}\n")
	}
	return b.Bytes()
}

// requestLine returns the first two whitespace-separated fields of the
// request line, the method and the target, as bytes.Fields would split
// them, without building the field list.
func requestLine(req []byte) (method, target []byte) {
	line := req
	if i := bytes.IndexByte(line, '\r'); i >= 0 {
		line = line[:i]
	}
	method, line = nextField(line)
	target, _ = nextField(line)
	return method, target
}

// nextField splits off b's first whitespace-separated field (empty when
// there is none).
func nextField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// requestWantsClose reports whether the request headers ask for the
// connection to be torn down after the response: any Connection header
// whose comma-separated option list contains the "close" token (ASCII
// case-insensitive). Obs-fold continuation lines (leading SP/HTAB)
// extend the previous header's value, and every Connection line counts,
// not just the first.
func requestWantsClose(req []byte) bool {
	_, rest, more := bytes.Cut(req, []byte("\r\n")) // past the request line
	inConnection := false
	for more {
		var line []byte
		line, rest, more = bytes.Cut(rest, []byte("\r\n"))
		if len(line) > 0 && (line[0] == ' ' || line[0] == '\t') {
			// Folded continuation of the previous header field.
			if inConnection && connectionValueHasClose(line) {
				return true
			}
			continue
		}
		inConnection = false
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		if !asciiEqualFold(bytes.TrimSpace(line[:colon]), "connection") {
			continue
		}
		inConnection = true
		if connectionValueHasClose(line[colon+1:]) {
			return true
		}
	}
	return false
}

// connectionValueHasClose scans one fragment of a Connection header value
// for the "close" option among its comma-separated tokens.
func connectionValueHasClose(v []byte) bool {
	for more := true; more; {
		var tok []byte
		tok, v, more = bytes.Cut(v, []byte{','})
		if asciiEqualFold(bytes.TrimSpace(tok), "close") {
			return true
		}
	}
	return false
}

func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}
