//go:build linux

package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// The record-path mode switch: with RecordMode != software each
// connection's write direction is handed from minitls to the worker's
// record engine (internal/record) once the handshake completes — the
// userspace equivalent of installing kTLS keys on the socket. Response
// plaintext then flows handler → record engine → socket buffer without
// ever being copied into a TLS-layer staging buffer: the seal reads the
// handler's bytes in place, and the sealed wire record lands in a
// pooled buffer that goes straight to the kernel.

// recordSink adapts a connection's socket buffer to record.Sink.
// netpoll.Conn.Write never fails with EAGAIN (it buffers in user
// space), so in-order delivery is preserved under backpressure too.
type recordSink struct{ c *conn }

func (s recordSink) WriteRecord(rec []byte) (err error) {
	_, err = s.c.tp.Write(rec)
	return err
}

// installStream switches c to the offloaded record path: export the
// negotiated write keys, build a stream continuing the handshake's
// sequence numbers, and detach minitls's writer so the two planes can
// never interleave records. Any failure leaves the connection on the
// software path — the mode switch degrades, it doesn't break.
func (w *Worker) installStream(c *conn) {
	km, err := c.tls.ExportWriteKeys()
	if err != nil {
		return
	}
	s, err := w.rec.NewStream(km, recordSink{c})
	if err != nil {
		return
	}
	if err := c.tls.DetachWriter(); err != nil {
		return
	}
	c.stream = s
}

// serveRecord writes one response through the record stream. The header
// is the request's own small allocation; the body is the handler's own
// buffer, sealed in place (the zero-copy contract: jobs hold the only
// reference, keeping it alive until the stream drains).
func (w *Worker) serveRecord(c *conn, hdr, body []byte) {
	c.respBytes = len(hdr) + len(body)
	if err := c.stream.Write(hdr); err == nil && len(body) > 0 {
		c.stream.Write(body)
	}
	c.handler = (*Worker).recordWriteHandler
	w.recordWriteHandler(c)
}

// recordWriteHandler finishes a record-path response. Software-sealed
// records have already reached the socket buffer; offloaded ones arrive
// via pollRecordEngine, which re-invokes this handler until the stream
// has drained. The keepalive/close tail mirrors writeHandler.
func (w *Worker) recordWriteHandler(c *conn) {
	if err := c.stream.Err(); err != nil {
		w.Stats.Errors.Add(1)
		w.closeConn(c)
		return
	}
	if c.stream.Pending() > 0 {
		// Offloaded seals still in flight: park on the completion scan.
		if !c.recQueued {
			c.recQueued = true
			w.recWaiting = append(w.recWaiting, c)
		}
		return
	}
	w.Stats.BytesOut.Add(int64(c.respBytes))
	c.respBytes = 0
	if c.closeAfterWrite {
		w.sendCloseNotify(c)
		if c.nc.Flush(); c.nc.HasPending() {
			c.draining = true
			w.updateWriteInterest(c)
			return
		}
		w.closeConn(c)
		return
	}
	c.handler = (*Worker).requestHandler
	if c.active {
		c.active = false
		w.activeConns--
	}
	if len(c.reqBuf) > 0 {
		c.active = true
		w.activeConns++
		w.requestHandler(c)
	}
}

// pollRecordEngine drains record-engine completions and re-invokes the
// write handler of every connection whose stream finished (or failed).
// Runs once per loop iteration, like the async/retry queue drains.
func (w *Worker) pollRecordEngine() {
	if w.rec == nil {
		return
	}
	if w.rec.Inflight() > 0 {
		w.work += w.rec.Poll()
	}
	if len(w.recWaiting) == 0 {
		return
	}
	waiting := w.recWaiting
	w.recWaiting = nil // invoke() may re-queue conns (pipelined requests)
	for _, c := range waiting {
		c.recQueued = false
		if c.closed || c.stream == nil {
			w.reclaim(c) // the scan lets go of a closed conn
			continue
		}
		if c.stream.Err() == nil && c.stream.Pending() > 0 {
			c.recQueued = true
			w.recWaiting = append(w.recWaiting, c)
			continue
		}
		w.invoke(c) // recordWriteHandler completes or closes the conn
	}
}

// sendCloseNotify queues the TLS close-notify alert on whichever plane
// owns the write direction. On the record path the stream seals it
// (software, ordering-critical) with the live sequence number;
// tls.Close then only tears down handshake-layer state — a detached
// Conn skips its own alert.
func (w *Worker) sendCloseNotify(c *conn) {
	if c.stream != nil && c.stream.Err() == nil {
		c.stream.CloseNotify()
	}
	c.tls.Close()
}

// FileHandler serves files from root — the ServeFile seam of the
// record path. Each file is read once and cached; on record-path
// configurations responses are sealed from the cached bytes in place,
// so repeated transfers of the same file never copy its plaintext
// (the userspace analogue of sendfile over kTLS). Paths are constrained
// to the root; unknown or escaping paths 404.
func FileHandler(root string) Handler {
	cache := map[string][]byte{}
	var mu sync.Mutex
	return func(path string) ([]byte, bool) {
		rel := strings.TrimPrefix(path, "/")
		if rel == "" || strings.Contains(rel, "..") {
			return nil, false
		}
		mu.Lock()
		defer mu.Unlock()
		if body, ok := cache[rel]; ok {
			return body, true
		}
		full := filepath.Join(root, filepath.FromSlash(rel))
		body, err := os.ReadFile(full)
		if err != nil {
			return nil, false
		}
		cache[rel] = body
		return body, true
	}
}

// RecordStats sums the per-worker record-engine counters. Callers must
// quiesce the workers first (Stop/Shutdown) — the counters are owned by
// the worker goroutines; the live view is the metrics registry
// (qtls_record_bytes, qtls_record_offload_ops, qtls_record_sw_ops).
func (s *Server) RecordStats() (st RecordStats) {
	for _, w := range s.workers {
		if w == nil || w.rec == nil {
			continue
		}
		rs := w.rec.Stats()
		st.Records += rs.Records
		st.OffloadOps += rs.OffloadOps
		st.SoftwareOps += rs.SoftwareOps
		st.Fallbacks += rs.Fallbacks
		st.Bytes += rs.Bytes
	}
	return st
}

// RecordStats aggregates record-engine counters across workers.
type RecordStats struct {
	Records, OffloadOps, SoftwareOps, Fallbacks, Bytes int64
}

// String renders the counters for logs and figure captions.
func (st RecordStats) String() string {
	return fmt.Sprintf("records=%d offload=%d sw=%d fallback=%d bytes=%d",
		st.Records, st.OffloadOps, st.SoftwareOps, st.Fallbacks, st.Bytes)
}
