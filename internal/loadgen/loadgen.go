// Package loadgen implements the client side of the paper's evaluation:
// an OpenSSL s_time equivalent that opens TLS connections in a closed
// loop to measure connections per second (§5.2, §5.3), and an
// ApacheBench (ab) equivalent that issues keepalive HTTPS requests to
// measure secure data transfer throughput (§5.4) and average response
// time (§5.5).
package loadgen

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qtls/internal/metrics"
	"qtls/internal/minitls"
)

// Result aggregates a load run.
type Result struct {
	// Connections is the number of completed TLS connections.
	Connections int64
	// Resumed is how many of those used an abbreviated handshake.
	Resumed int64
	// ResumeDeclined counts connections that offered a session but were
	// answered with a full handshake (ticket key rotated out, cache miss
	// on another worker, server without resumption). These complete and
	// count under Connections, but as full handshakes.
	ResumeDeclined int64
	// Requests is the number of completed HTTP requests.
	Requests int64
	// BytesIn is the number of response body bytes received.
	BytesIn int64
	// Errors counts failed connections/requests, excluding the two
	// server-intended closes counted below and the mid-transfer
	// truncations counted as ShortIO.
	Errors int64
	// ShortIO counts responses truncated mid-body — a short read (the
	// connection died after the handshake, while the body was still
	// streaming) or a short write. These are transfer failures, not
	// handshake failures, and the bulk workload reports them separately
	// so a record-path defect can't hide inside the handshake error
	// count.
	ShortIO int64
	// Shed counts connections rejected by the server's admission control:
	// a TCP reset surfaced while dialing, handshaking or requesting.
	Shed int64
	// CleanCloses counts server-initiated orderly closes — the peer sent
	// a TLS close-notify (graceful drain, keepalive deadline) before the
	// failure, so the connection ended cleanly rather than erroring.
	CleanCloses int64
	// Elapsed is the measured wall-clock interval.
	Elapsed time.Duration
	// Latency summarizes per-operation latency (handshake latency for
	// STime, request latency for AB).
	Latency metrics.Snapshot
	// LatencyFull and LatencyResumed split the STime handshake latency by
	// handshake kind: a resumed handshake skips the asymmetric-key
	// calculations, so mixing the two hides both distributions (§5.3's
	// 1:9 mix). Zero-valued for AB and when the split is empty.
	LatencyFull    metrics.Snapshot
	LatencyResumed metrics.Snapshot
}

// FullHandshakes returns the connections completed with a full (non
// resumed) handshake.
func (r Result) FullHandshakes() int64 { return r.Connections - r.Resumed }

// CPS returns completed connections per second.
func (r Result) CPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Connections) / r.Elapsed.Seconds()
}

// RPS returns requests per second.
func (r Result) RPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// ThroughputGbps returns the response-body goodput in gigabits/second.
func (r Result) ThroughputGbps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.BytesIn) * 8 / r.Elapsed.Seconds() / 1e9
}

// STimeOptions configures the s_time-like closed-loop handshake load.
type STimeOptions struct {
	// Addr is the server address.
	Addr string
	// Clients is the number of concurrent client loops (the paper runs
	// 2×1000 s_time processes).
	Clients int
	// Duration bounds the run.
	Duration time.Duration
	// TLS is the client TLS template (suites, max version).
	TLS *minitls.Config
	// ResumeFraction is the fraction of connections attempted as
	// abbreviated handshakes once a session is available: 0 = all full
	// (fresh s_time), 1 = all resumed (s_time -reuse), 0.9 = the paper's
	// 1:9 full/abbreviated mix (§5.3).
	ResumeFraction float64
	// RequestPath, when non-empty, sends one GET per connection and reads
	// the response (used for the latency evaluation, §5.5).
	RequestPath string
	// MaxConnections, when > 0, stops after this many connections.
	MaxConnections int64
}

// STime runs the closed-loop handshake workload.
func STime(opts STimeOptions) Result {
	if opts.Clients <= 0 {
		opts.Clients = 1
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	if opts.TLS == nil {
		opts.TLS = &minitls.Config{}
	}
	var res Result
	var conns, resumed, declined, reqs, bytesIn, errCount, shedCount, cleanCount, shortCount atomic.Int64
	lat := new(metrics.Histogram)
	latFull := new(metrics.Histogram)
	latResumed := new(metrics.Histogram)
	deadline := time.Now().Add(opts.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var session *minitls.ClientSession
			iter := 0
			for time.Now().Before(deadline) {
				if opts.MaxConnections > 0 && conns.Load() >= opts.MaxConnections {
					return
				}
				iter++
				cfg := *opts.TLS
				wantResume := session != nil && opts.ResumeFraction > 0 &&
					float64(iter%100)/100.0 < opts.ResumeFraction
				if wantResume {
					cfg.Session = session
				}
				t0 := time.Now()
				conn, didResume, body, err := oneConnection(opts.Addr, &cfg, opts.RequestPath)
				if err != nil {
					classifyFailure(err, conn, &shedCount, &cleanCount, &shortCount, &errCount)
					continue
				}
				hsDur := time.Since(t0)
				lat.ObserveDuration(hsDur)
				conns.Add(1)
				if didResume {
					resumed.Add(1)
					latResumed.ObserveDuration(hsDur)
				} else {
					latFull.ObserveDuration(hsDur)
					if wantResume {
						declined.Add(1)
					}
				}
				if opts.RequestPath != "" {
					reqs.Add(1)
					bytesIn.Add(int64(body))
				}
				if conn != nil && (session == nil || !didResume) {
					if s := conn.ResumptionSession(); s != nil {
						session = s
					}
				}
			}
		}(i)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Connections = conns.Load()
	res.Resumed = resumed.Load()
	res.ResumeDeclined = declined.Load()
	res.Requests = reqs.Load()
	res.BytesIn = bytesIn.Load()
	res.Errors = errCount.Load()
	res.ShortIO = shortCount.Load()
	res.Shed = shedCount.Load()
	res.CleanCloses = cleanCount.Load()
	res.Latency = lat.Snapshot()
	res.LatencyFull = latFull.Snapshot()
	res.LatencyResumed = latResumed.Snapshot()
	return res
}

// classifyFailure sorts one failed connection or request into the shed /
// clean-close / short-IO / error buckets. A TCP reset is the signature
// of the server's accept-time shedding (netpoll Conn.Abort), and a
// refused dial is the server declining at the earliest possible point (a
// draining server closes its listener first) — both are the server
// turning work away, not client-side failures; EOF after the peer's
// close-notify is an orderly server-initiated close, not a failure; a
// short body read or write (io.ErrUnexpectedEOF / io.ErrShortWrite,
// surfaced by doRequest) is a transfer truncation, distinct from
// handshake errors.
func classifyFailure(err error, tc *minitls.Conn, shed, clean, short, errs *atomic.Int64) {
	switch {
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE),
		errors.Is(err, syscall.ECONNREFUSED):
		shed.Add(1)
	case errors.Is(err, io.EOF) && tc != nil && tc.CloseNotifyReceived():
		clean.Add(1)
	case errors.Is(err, io.ErrUnexpectedEOF) && tc != nil && tc.CloseNotifyReceived():
		// Truncated by an orderly close (a drain cut the response): the
		// close was clean at the TLS layer, but the transfer was short.
		short.Add(1)
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.ErrShortWrite):
		short.Add(1)
	default:
		errs.Add(1)
	}
}

// dialBackoff pauses a client loop after a failed dial — long enough not
// to busy-loop against a dead listener, short enough to notice a
// recovering one promptly — without sleeping past the run deadline.
func dialBackoff(deadline time.Time) {
	const backoff = 50 * time.Millisecond
	if d := time.Until(deadline); d < backoff {
		if d > 0 {
			time.Sleep(d)
		}
		return
	}
	time.Sleep(backoff)
}

// oneConnection dials, handshakes, optionally issues one request, and
// closes.
func oneConnection(addr string, cfg *minitls.Config, path string) (*minitls.Conn, bool, int, error) {
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, false, 0, err
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(10 * time.Second))
	tc := minitls.ClientConn(raw, cfg)
	if err := tc.Handshake(); err != nil {
		return nil, false, 0, err
	}
	n := 0
	if path != "" {
		br := bufio.NewReaderSize(&tlsReader{tc}, 32<<10)
		if n, err = doRequest(tc, br, path); err != nil {
			return tc, tc.ConnectionState().DidResume, 0, err
		}
	}
	tc.Close()
	return tc, tc.ConnectionState().DidResume, n, nil
}

// doRequest sends one GET and reads the full response, returning the
// body length. The buffered reader must be reused across requests on the
// same connection (it may hold read-ahead bytes).
func doRequest(tc *minitls.Conn, br *bufio.Reader, path string) (int, error) {
	req := "GET " + path + " HTTP/1.1\r\nHost: qtls\r\n\r\n"
	if _, err := tc.Write([]byte(req)); err != nil {
		return 0, err
	}
	var contentLength = -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return 0, err
		}
		line = trimCRLF(line)
		if line == "" {
			break
		}
		if n, ok := cutPrefixFold(line, "content-length:"); ok {
			v, err := strconv.Atoi(n)
			if err != nil {
				return 0, err
			}
			contentLength = v
		}
	}
	if contentLength < 0 {
		return 0, errors.New("loadgen: response without Content-Length")
	}
	if n, err := io.CopyN(io.Discard, br, int64(contentLength)); err != nil {
		if errors.Is(err, io.EOF) {
			// The body ended early: a short read, not a boundary EOF —
			// classified apart from handshake errors (Result.ShortIO).
			err = io.ErrUnexpectedEOF
		}
		return int(n), err
	}
	return contentLength, nil
}

func trimCRLF(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

// cutPrefixFold strips an ASCII-case-insensitive prefix and surrounding
// spaces.
func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) < len(prefix) {
		return "", false
	}
	for i := 0; i < len(prefix); i++ {
		a, b := s[i], prefix[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if a != b {
			return "", false
		}
	}
	return string(bytes.TrimSpace([]byte(s[len(prefix):]))), true
}

type tlsReader struct{ c *minitls.Conn }

func (r *tlsReader) Read(p []byte) (int, error) { return r.c.Read(p) }

// ABOptions configures the ApacheBench-like keepalive request load.
type ABOptions struct {
	// Addr is the server address.
	Addr string
	// Clients is the number of concurrent keepalive connections (the
	// paper uses 400 ab processes for throughput, 1–256 for latency).
	Clients int
	// Duration bounds the run.
	Duration time.Duration
	// TLS is the client TLS template.
	TLS *minitls.Config
	// Path is the requested object (e.g. "/65536" for a 64 KB file).
	Path string
	// MaxRequests, when > 0, stops after this many requests.
	MaxRequests int64
}

// AB runs the keepalive request workload.
func AB(opts ABOptions) Result {
	if opts.Clients <= 0 {
		opts.Clients = 1
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	if opts.TLS == nil {
		opts.TLS = &minitls.Config{}
	}
	if opts.Path == "" {
		opts.Path = "/1024"
	}
	var reqs, bytesIn, errCount, conns, shedCount, cleanCount, shortCount atomic.Int64
	lat := new(metrics.Histogram)
	deadline := time.Now().Add(opts.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				raw, err := net.DialTimeout("tcp", opts.Addr, 5*time.Second)
				if err != nil {
					// A refused or reset dial is the server shedding, not a
					// generic failure — classify it, and keep the client
					// loop alive (with a short backoff so a dead listener
					// is not hammered) so the run can observe the recovery
					// instead of bleeding clients.
					classifyFailure(err, nil, &shedCount, &cleanCount, &shortCount, &errCount)
					dialBackoff(deadline)
					continue
				}
				cfg := *opts.TLS
				tc := minitls.ClientConn(raw, &cfg)
				raw.SetDeadline(time.Now().Add(15 * time.Second))
				if err := tc.Handshake(); err != nil {
					classifyFailure(err, tc, &shedCount, &cleanCount, &shortCount, &errCount)
					raw.Close()
					continue
				}
				conns.Add(1)
				br := bufio.NewReaderSize(&tlsReader{tc}, 32<<10)
				// Keepalive request loop on this connection.
				for time.Now().Before(deadline) {
					if opts.MaxRequests > 0 && reqs.Load() >= opts.MaxRequests {
						break
					}
					raw.SetDeadline(time.Now().Add(15 * time.Second))
					t0 := time.Now()
					n, err := doRequest(tc, br, opts.Path)
					if err != nil {
						classifyFailure(err, tc, &shedCount, &cleanCount, &shortCount, &errCount)
						break
					}
					lat.ObserveDuration(time.Since(t0))
					reqs.Add(1)
					bytesIn.Add(int64(n))
				}
				raw.Close()
				if opts.MaxRequests > 0 && reqs.Load() >= opts.MaxRequests {
					return
				}
			}
		}()
	}
	wg.Wait()
	return Result{
		Connections: conns.Load(),
		Requests:    reqs.Load(),
		BytesIn:     bytesIn.Load(),
		Errors:      errCount.Load(),
		ShortIO:     shortCount.Load(),
		Shed:        shedCount.Load(),
		CleanCloses: cleanCount.Load(),
		Elapsed:     time.Since(start),
		Latency:     lat.Snapshot(),
	}
}

// String renders a result summary.
func (r Result) String() string {
	s := fmt.Sprintf("conns=%d (%.0f cps, %d full / %d resumed) reqs=%d (%.0f rps) in=%.2f Gbps err=%d short=%d shed=%d clean=%d lat{%s}",
		r.Connections, r.CPS(), r.FullHandshakes(), r.Resumed, r.Requests, r.RPS(), r.ThroughputGbps(),
		r.Errors, r.ShortIO, r.Shed, r.CleanCloses, r.Latency)
	if r.Resumed > 0 {
		s += fmt.Sprintf(" full{%s} resumed{%s}", r.LatencyFull, r.LatencyResumed)
	}
	if r.ResumeDeclined > 0 {
		s += fmt.Sprintf(" declined=%d", r.ResumeDeclined)
	}
	return s
}
