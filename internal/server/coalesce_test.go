//go:build linux

package server

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"qtls/internal/loadgen"
	"qtls/internal/offload"
	"qtls/internal/qat"
)

// qtlsCoalesced is the QTLS configuration with submit batching on.
func qtlsCoalesced() RunConfig {
	run := ConfigQTLS
	run.Name = "QTLS+B"
	run.Submit = offload.SubmitCoalesced
	return run
}

// sumInstanceStats folds the per-instance submit counters across every
// worker engine.
func sumInstanceStats(srv *Server) (st qat.InstanceStats) {
	for _, w := range srv.Workers() {
		if w.Engine() == nil {
			continue
		}
		for _, inst := range w.Engine().Instances() {
			is := inst.Stats()
			st.Submits += is.Submits
			st.Doorbells += is.Doorbells
			st.SubmitBatches += is.SubmitBatches
			st.BatchSubmitted += is.BatchSubmitted
			if is.MaxSubmitBatch > st.MaxSubmitBatch {
				st.MaxSubmitBatch = is.MaxSubmitBatch
			}
		}
	}
	return st
}

// TestCoalescedServerServesIdentically drives the same load through QTLS
// with and without submit batching: both must complete handshakes and
// requests cleanly, and the batched run must route every submission
// through SubmitBatch with worker-driven flushes.
func TestCoalescedServerServesIdentically(t *testing.T) {
	for _, tc := range []struct {
		name      string
		run       RunConfig
		coalesced bool
	}{
		{"unbatched", ConfigQTLS, false},
		{"batched", qtlsCoalesced(), true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := startServer(t, tc.run, 2, nil)
			res := loadgen.STime(loadgen.STimeOptions{
				Addr:           srv.Addr(),
				Clients:        8,
				Duration:       400 * time.Millisecond,
				RequestPath:    "/2048",
				MaxConnections: 64,
			})
			if res.Connections == 0 {
				t.Fatalf("no connections completed: %s", res)
			}
			if res.Errors > res.Connections/4 {
				t.Fatalf("too many errors: %s", res)
			}
			st := srv.Stats()
			if st.Handshakes == 0 || st.Requests == 0 {
				t.Fatalf("server stats empty: %+v", st)
			}
			// Same protocol work regardless of batching: 7 async events
			// per full ECDHE-RSA handshake.
			if st.AsyncEvents < st.Handshakes*7 {
				t.Fatalf("async events %d < 7×handshakes %d", st.AsyncEvents, st.Handshakes)
			}
			ist := sumInstanceStats(srv)
			flushes := int64(0)
			for _, w := range srv.Workers() {
				flushes += w.Stats.SubmitFlushes.Load()
			}
			if tc.coalesced {
				if ist.SubmitBatches == 0 || ist.BatchSubmitted != ist.Submits {
					t.Fatalf("batched run did not route submissions through SubmitBatch: %+v", ist)
				}
				if flushes == 0 {
					t.Fatalf("no worker submit flushes recorded: %+v", ist)
				}
				if ist.Doorbells > ist.Submits {
					t.Fatalf("doorbells %d exceed submits %d", ist.Doorbells, ist.Submits)
				}
			} else {
				if ist.SubmitBatches != 0 || flushes != 0 {
					t.Fatalf("unbatched run used the batch path: batches=%d flushes=%d", ist.SubmitBatches, flushes)
				}
			}
		})
	}
}

// TestCoalescedFlushSpansAndMetrics asserts the batched path shows up on
// the observability surface: PhaseFlush spans on /debug/trace and the
// submit-batch series on /metrics.
func TestCoalescedFlushSpansAndMetrics(t *testing.T) {
	srv, rec := startTracedServer(t, qtlsCoalesced(), 1)
	loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        4,
		Duration:       300 * time.Millisecond,
		RequestPath:    "/1024",
		MaxConnections: 32,
	})
	if rec.Count() == 0 {
		t.Fatal("recorder captured no spans during live load")
	}
	page := fetchPath(t, srv.Addr(), "/debug/trace?n=2000")
	var spans []map[string]any
	if err := json.Unmarshal([]byte(page), &spans); err != nil {
		t.Fatalf("trace dump is not JSON: %v\n%s", err, page)
	}
	flushSpans, coalesceTagged := 0, 0
	for _, s := range spans {
		if ph, _ := s["phase"].(string); ph == "flush" {
			flushSpans++
		}
		if tag, _ := s["tag"].(string); tag == "coalesce" {
			coalesceTagged++
		}
	}
	if flushSpans == 0 {
		t.Error("no flush spans in trace dump")
	}
	if coalesceTagged == 0 {
		t.Error("no coalesce-tagged spans in trace dump")
	}
	mpage := fetchPath(t, srv.Addr(), "/metrics")
	for _, key := range []string{
		"qat_submit_flushes",
		"qat_batched_ops",
		"qtls_submit_flush_events",
		`qtls_submit_batch_count`,
		`qtls_submit_amortized_ns_count`,
		`qtls_submit_flush_batch_count`,
	} {
		if v := metricValue(t, mpage, key); v <= 0 {
			t.Errorf("series %s = %v, want > 0", key, v)
		}
	}
}

// TestConcurrentScrapesCoalesced is the registry/scrape race test for the
// batched submit path: /metrics, /stub_status and /debug/trace hammered
// while coalesced handshake load is in flight (meaningful under -race).
func TestConcurrentScrapesCoalesced(t *testing.T) {
	srv, _ := startTracedServer(t, qtlsCoalesced(), 2)
	stop := make(chan struct{})
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			loadgen.STime(loadgen.STimeOptions{
				Addr:           srv.Addr(),
				Clients:        4,
				Duration:       150 * time.Millisecond,
				RequestPath:    "/1024",
				MaxConnections: 32,
			})
		}
	}()
	var scrapeWG sync.WaitGroup
	for _, path := range []string{"/metrics", "/stub_status", "/metrics", "/debug/trace?n=64"} {
		path := path
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for i := 0; i < 5; i++ {
				if body, err := tryFetchPath(srv.Addr(), path); err == nil && body == "" {
					t.Errorf("%s returned empty body", path)
				}
			}
		}()
	}
	scrapeWG.Wait()
	close(stop)
	loadWG.Wait()
	page := fetchPath(t, srv.Addr(), "/metrics")
	if !strings.Contains(page, "qat_submit_flushes") {
		t.Fatalf("scrape after coalesced load missing submit-flush series:\n%s", page)
	}
}
