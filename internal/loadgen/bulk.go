package loadgen

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qtls/internal/metrics"
	"qtls/internal/minitls"
)

// The bulk-transfer workload: keepalive connections downloading
// configurable response sizes, reporting goodput and CPU-per-byte.
// Where STime stresses handshakes and AB stresses a fixed object, Bulk
// cycles a size list per request and samples process CPU around the
// run, so configurations can be compared on the cost of moving a byte,
// not just on wall-clock throughput.

// BulkOptions configures the bulk-transfer load.
type BulkOptions struct {
	// Addr is the server address.
	Addr string
	// Clients is the number of concurrent keepalive connections.
	Clients int
	// Duration bounds the run.
	Duration time.Duration
	// TLS is the client TLS template.
	TLS *minitls.Config
	// Sizes are the response sizes cycled per request against a
	// SizedBodyHandler-style server (default: one 64 KB object).
	Sizes []int
	// MaxRequests, when > 0, stops after this many requests.
	MaxRequests int64
}

// BulkResult is a Result plus the CPU cost of the run.
type BulkResult struct {
	Result
	// CPU is the user+system CPU time this process consumed during the
	// run. With server and client in one process (the benchmark
	// harness), it is the total cost of serving and consuming the
	// bytes.
	CPU time.Duration
	// CPUValid reports whether the platform could sample process CPU.
	CPUValid bool
}

// CPUPerKB returns CPU nanoseconds spent per kilobyte of response body
// — the figure of merit for moving bytes (0 when CPU sampling
// is unavailable or nothing transferred).
func (r BulkResult) CPUPerKB() float64 {
	if !r.CPUValid || r.BytesIn <= 0 {
		return 0
	}
	return float64(r.CPU.Nanoseconds()) / (float64(r.BytesIn) / 1024)
}

// String renders the result with its CPU cost.
func (r BulkResult) String() string {
	return fmt.Sprintf("%s cpu=%v (%.0f ns/KB)", r.Result, r.CPU.Round(time.Millisecond), r.CPUPerKB())
}

// Bulk runs the bulk-transfer workload.
func Bulk(opts BulkOptions) BulkResult {
	if opts.Clients <= 0 {
		opts.Clients = 1
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	if opts.TLS == nil {
		opts.TLS = &minitls.Config{}
	}
	if len(opts.Sizes) == 0 {
		opts.Sizes = []int{64 << 10}
	}
	paths := make([]string, len(opts.Sizes))
	for i, s := range opts.Sizes {
		paths[i] = "/" + strconv.Itoa(s)
	}
	var reqs, bytesIn, errCount, conns, shedCount, cleanCount, shortCount atomic.Int64
	lat := new(metrics.Histogram)
	cpu0, cpuOK := ProcessCPU()
	deadline := time.Now().Add(opts.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			n := id // stagger the size cycle across clients
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
				br := bufio.NewReaderSize(&tlsReader{tc}, 64<<10)
				for time.Now().Before(deadline) {
					if opts.MaxRequests > 0 && reqs.Load() >= opts.MaxRequests {
						break
					}
					raw.SetDeadline(time.Now().Add(15 * time.Second))
					t0 := time.Now()
					got, err := doRequest(tc, br, paths[n%len(paths)])
					n++
					if err != nil {
						classifyFailure(err, tc, &shedCount, &cleanCount, &shortCount, &errCount)
						break
					}
					lat.ObserveDuration(time.Since(t0))
					reqs.Add(1)
					bytesIn.Add(int64(got))
				}
				raw.Close()
				if opts.MaxRequests > 0 && reqs.Load() >= opts.MaxRequests {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	res := BulkResult{Result: Result{
		Connections: conns.Load(),
		Requests:    reqs.Load(),
		BytesIn:     bytesIn.Load(),
		Errors:      errCount.Load(),
		ShortIO:     shortCount.Load(),
		Shed:        shedCount.Load(),
		CleanCloses: cleanCount.Load(),
		Elapsed:     time.Since(start),
		Latency:     lat.Snapshot(),
	}}
	if cpu1, ok := ProcessCPU(); ok && cpuOK {
		res.CPU = cpu1 - cpu0
		res.CPUValid = true
	}
	return res
}
