// Command qtlsload is the client-side load generator of the reproduction:
// an OpenSSL s_time equivalent (closed-loop TLS connections measuring
// connections per second) and an ApacheBench equivalent (keepalive
// requests measuring throughput and response time), targeting a running
// qtlsserver. The offload configuration under test (SW, QAT+S, QAT+A,
// QAT+AH, QTLS — see internal/offload) is selected on the server side;
// this tool only drives the TLS client half of the workload.
//
//	qtlsload -mode stime -addr 127.0.0.1:8443 -clients 50 -duration 10s
//	qtlsload -mode stime -resume-fraction 0.9  # full:abbreviated = 1:9 mix
//	qtlsload -mode ab -path /65536 -clients 40 # 64 KB keepalive transfers
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"qtls/internal/loadgen"
	"qtls/internal/minitls"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8443", "server address")
		mode     = flag.String("mode", "stime", "workload: stime (handshakes) or ab (keepalive requests)")
		clients  = flag.Int("clients", 10, "concurrent clients")
		duration = flag.Duration("duration", 5*time.Second, "run duration")
		resume   = flag.Float64("resume-fraction", 0, "fraction of connections attempted as abbreviated (resumed) handshakes; implies requesting session tickets")
		path     = flag.String("path", "/1024", "request path (ab mode, or stime per-connection request)")
		request  = flag.Bool("request", false, "stime: issue one request per connection")
		maxVer   = flag.String("max-version", "1.2", "maximum TLS version: 1.2 or 1.3")

		// Invariant thresholds for scripted soaks: violating any exits 1,
		// so a chaos harness can gate on this tool's exit code.
		minConns   = flag.Int("min-conns", 0, "exit 1 when fewer connections complete (0 = off)")
		maxErrRate = flag.Float64("max-error-rate", -1, "exit 1 when errors/attempts exceeds this fraction (negative = off; sheds and clean closes don't count)")
		maxP99     = flag.Duration("max-p99", 0, "exit 1 when the latency p99 exceeds this (0 = off)")
	)
	flag.Parse()

	tlsCfg := &minitls.Config{}
	if *maxVer == "1.3" {
		tlsCfg.MaxVersion = minitls.VersionTLS13
	}

	if *resume > 0 {
		// A resumption mix needs sessions to resume: ask the server for
		// tickets on the full handshakes.
		tlsCfg.RequestTicket = true
	}

	var res loadgen.Result
	switch *mode {
	case "stime":
		opts := loadgen.STimeOptions{
			Addr:           *addr,
			Clients:        *clients,
			Duration:       *duration,
			TLS:            tlsCfg,
			ResumeFraction: *resume,
		}
		if *request {
			opts.RequestPath = *path
		}
		res = loadgen.STime(opts)
	case "ab":
		res = loadgen.AB(loadgen.ABOptions{
			Addr:     *addr,
			Clients:  *clients,
			Duration: *duration,
			TLS:      tlsCfg,
			Path:     *path,
		})
	default:
		log.Fatalf("unknown -mode %q", *mode)
	}
	fmt.Println(res)

	// Soak invariants: report every violation, then gate the exit code.
	failed := false
	if *minConns > 0 && res.Connections < int64(*minConns) {
		fmt.Fprintf(os.Stderr, "FAIL: %d connections < -min-conns %d\n", res.Connections, *minConns)
		failed = true
	}
	if *maxErrRate >= 0 {
		attempts := res.Connections + res.Errors
		rate := 0.0
		if attempts > 0 {
			rate = float64(res.Errors) / float64(attempts)
		}
		if rate > *maxErrRate {
			fmt.Fprintf(os.Stderr, "FAIL: error rate %.4f > -max-error-rate %.4f (%d/%d)\n",
				rate, *maxErrRate, res.Errors, attempts)
			failed = true
		}
	}
	if *maxP99 > 0 && time.Duration(res.Latency.P99) > *maxP99 {
		fmt.Fprintf(os.Stderr, "FAIL: p99 %v > -max-p99 %v\n",
			time.Duration(res.Latency.P99).Round(time.Microsecond), *maxP99)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
