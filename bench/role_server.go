//go:build linux

package main

import (
	"bufio"
	"context"
	"crypto/rsa"
	"crypto/x509"
	"embed"
	"encoding/hex"
	"encoding/json"
	"encoding/pem"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"qtls/internal/engine"
	"qtls/internal/minitls"
	"qtls/internal/qat"
	"qtls/internal/server"
	"qtls/internal/trace"
)

// The server under test runs as a child process of the benchmark binary,
// built on server.New the way cmd/qtlsserver builds it, so its CPU,
// allocations and GC are measured apart from the load generator's. It
// reads one command per line on stdin and answers each with one JSON line
// on stdout:
//
//	mark       reset the registry histograms, answer with a snapshot
//	report     answer with a snapshot (the parent diffs two snapshots)
//	tick       answer with the CPU and server counters only (no
//	           stop-the-world memory statistics): the per-slice reading
//	trace on   enable the span recorder (needs -tracer)
//	trace off  disable it
//	quit       drain, answer with a final snapshot, exit 0
//
// Closing stdin also makes it exit, so a dead parent leaves no orphan.

//go:embed testdata/server.key testdata/server.crt testdata/ticket.key
var testdata embed.FS

// suite is the one cipher suite both sides speak: the paper's ECDHE-RSA
// with AES-128-CBC-SHA records.
var suite = []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}

// loadIdentity builds the committed RSA-2048 identity and ticket key.
// Nothing is generated at run time: key generation alone varies set-up
// by hundreds of milliseconds and changes the RSA cost from run to run.
func loadIdentity() (*minitls.Identity, *[32]byte, error) {
	keyPEM, err := testdata.ReadFile("testdata/server.key")
	if err != nil {
		return nil, nil, err
	}
	certPEM, err := testdata.ReadFile("testdata/server.crt")
	if err != nil {
		return nil, nil, err
	}
	keyBlock, _ := pem.Decode(keyPEM)
	certBlock, _ := pem.Decode(certPEM)
	if keyBlock == nil || certBlock == nil {
		return nil, nil, errors.New("testdata: no PEM block in server.key or server.crt")
	}
	var key *rsa.PrivateKey
	if key, err = x509.ParsePKCS1PrivateKey(keyBlock.Bytes); err != nil {
		return nil, nil, fmt.Errorf("testdata/server.key: %w", err)
	}
	ticketHex, err := testdata.ReadFile("testdata/ticket.key")
	if err != nil {
		return nil, nil, err
	}
	raw, err := hex.DecodeString(strings.TrimSpace(string(ticketHex)))
	if err != nil || len(raw) != 32 {
		return nil, nil, fmt.Errorf("testdata/ticket.key: want 32 hex-encoded bytes (%v)", err)
	}
	var ticket [32]byte
	copy(ticket[:], raw)
	return &minitls.Identity{PrivateKey: key, CertDER: [][]byte{certBlock.Bytes}}, &ticket, nil
}

// histSnap is one registry histogram: exact count and sum, sampled p50.
type histSnap struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
}

// snapshot is the child's answer to mark/report/quit: cumulative
// counters from existing public accessors. The parent subtracts two of
// them to get a window.
type snapshot struct {
	Error string `json:"error,omitempty"`

	WallNs       int64  `json:"wall_ns"`
	CPUUs        int64  `json:"cpu_us"` // getrusage user+system
	MaxRSSKB     int64  `json:"max_rss_kb"`
	Mallocs      uint64 `json:"mallocs"`
	TotalAlloc   uint64 `json:"total_alloc"`
	NumGC        uint32 `json:"num_gc"`
	PauseTotalNs uint64 `json:"pause_total_ns"`
	Goroutines   int    `json:"goroutines"`

	Server    server.Stats      `json:"server"`
	Closed    int64             `json:"closed"`
	OpenConns int64             `json:"open_conns"` // accepted − closed
	Engine    engine.Stats      `json:"engine"`
	Qat       qat.InstanceStats `json:"qat"` // summed over the engine's instances
	Spans     int64             `json:"spans"`

	Hists map[string]histSnap `json:"hists"`
}

// histNames are the registry series the traced pass reads.
var histNames = []string{
	`qtls_loop_iter_ns{worker="0"}`,
	`qtls_poll_wait_ns{worker="0"}`,
	trace.PhaseSeriesName(trace.PhasePre),
	trace.PhaseSeriesName(trace.PhaseRetrieve),
	trace.PhaseSeriesName(trace.PhaseNotify),
	trace.PhaseSeriesName(trace.PhasePost),
}

// takeTick fills the cheap part of a snapshot.
func takeTick(srv *server.Server) snapshot {
	var s snapshot
	s.WallNs = time.Now().UnixNano()
	s.CPUUs, s.MaxRSSKB = selfUsage()
	s.Server = srv.Stats()
	return s
}

func takeSnapshot(srv *server.Server, rec *trace.Recorder) snapshot {
	s := takeTick(srv)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.Mallocs, s.TotalAlloc = ms.Mallocs, ms.TotalAlloc
	s.NumGC, s.PauseTotalNs = ms.NumGC, ms.PauseTotalNs
	s.Goroutines = runtime.NumGoroutine()

	for _, w := range srv.Workers() {
		s.Closed += w.Stats.ClosedConns.Load()
		eng := w.Engine()
		if eng == nil {
			continue
		}
		s.Engine = eng.Stats() // one worker, so one engine
		for _, inst := range eng.Instances() {
			st := inst.Stats()
			s.Qat.Submits += st.Submits
			s.Qat.RingFull += st.RingFull
			s.Qat.Doorbells += st.Doorbells
			s.Qat.Polls += st.Polls
			s.Qat.EmptyPolls += st.EmptyPolls
			s.Qat.Dequeued += st.Dequeued
			s.Qat.MaxBatch = max(s.Qat.MaxBatch, st.MaxBatch)
		}
	}
	s.OpenConns = s.Server.Accepted - s.Closed
	s.Spans = rec.Count()
	s.Hists = make(map[string]histSnap, len(histNames))
	for _, name := range histNames {
		if h, ok := srv.Metrics().LookupHistogram(name); ok {
			s.Hists[name] = histSnap{Count: h.Count(), Sum: h.Sum(), P50: h.Quantile(0.5)}
		}
	}
	return s
}

// ready is the child's first line: where it listens.
type ready struct {
	Addr string `json:"addr"`
}

// serverMain is the -role server entry point. It returns the exit code.
func serverMain(configName string, withTracer bool, in io.Reader, out io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench server:", err)
		return 1
	}
	id, ticket, err := loadIdentity()
	if err != nil {
		return fail(err)
	}
	var run server.RunConfig
	switch configName {
	case "QTLS":
		run = server.ConfigQTLS
	case "SW":
		run = server.ConfigSW
	default:
		return fail(fmt.Errorf("unknown -config %q (want QTLS or SW)", configName))
	}
	var pool *qat.Pool
	if run.UseQAT {
		pool = qat.NewPool(1, deviceSpec)
		defer pool.Close()
	}
	var rec *trace.Recorder
	if withTracer {
		rec = trace.NewRecorder(4096)
	}
	srv, err := server.New(server.Options{
		Addr:    "127.0.0.1:0",
		Workers: workers,
		Run:     run,
		TLS:     &minitls.Config{Identity: id, CipherSuites: suite, TicketKey: ticket},
		Pool:    pool,
		Handler: server.SizedBodyHandler(8 << 20),
		Trace:   rec,
	})
	if err != nil {
		return fail(err)
	}
	srv.Start()
	enc := json.NewEncoder(out)
	if err := enc.Encode(ready{Addr: srv.Addr()}); err != nil {
		srv.Stop()
		return fail(err)
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		switch cmd := strings.TrimSpace(sc.Text()); cmd {
		case "mark":
			for _, name := range histNames {
				if h, ok := srv.Metrics().LookupHistogram(name); ok {
					h.Reset()
				}
			}
			err = enc.Encode(takeSnapshot(srv, rec))
		case "report":
			err = enc.Encode(takeSnapshot(srv, rec))
		case "tick":
			err = enc.Encode(takeTick(srv))
		case "trace on", "trace off":
			if rec == nil {
				err = enc.Encode(snapshot{Error: "started without -tracer"})
				break
			}
			rec.SetEnabled(cmd == "trace on")
			err = enc.Encode(takeSnapshot(srv, rec))
		case "quit":
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			drainErr := srv.Shutdown(ctx)
			cancel()
			final := takeSnapshot(srv, rec)
			if drainErr != nil {
				final.Error = "drain cut short: " + drainErr.Error()
			}
			if err := enc.Encode(final); err != nil || drainErr != nil {
				return 1
			}
			return 0
		default:
			err = enc.Encode(snapshot{Error: "unknown command " + cmd})
		}
		if err != nil {
			break
		}
	}
	// stdin closed or stdout broken: the parent is gone.
	srv.Stop()
	return 1
}
