//go:build linux

// HTTPS server example: the full QTLS stack end-to-end over real TCP —
// an event-driven worker with epoll, the minitls TLS 1.2 stack in fiber
// async mode, the QAT engine with heuristic polling and kernel-bypass
// notification — then a few client requests against it.
//
//	go run ./examples/httpsserver
//
// Pass a fault scenario to watch graceful degradation: offloads that the
// sick device swallows time out and complete in software instead of
// hanging the handshake, and the health manager routes around the sick
// instances.
//
//	go run ./examples/httpsserver -fault 'stall:op=rsa,p=1' -op-timeout 10ms
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"qtls/internal/fault"
	"qtls/internal/loadgen"
	"qtls/internal/minitls"
	"qtls/internal/qat"
	"qtls/internal/server"
	"qtls/internal/trace"
)

func main() {
	var (
		faultSpec = flag.String("fault", "", "device fault scenario, e.g. 'stall:op=rsa,p=1' (see internal/fault)")
		opTimeout = flag.Duration("op-timeout", 10*time.Millisecond, "per-op offload deadline before software fallback")
		doMetrics = flag.Bool("metrics", false, "trace offload phases and print a phase-latency line every 500ms")
	)
	flag.Parse()

	log.Print("generating RSA-2048 identity...")
	id, err := minitls.NewRSAIdentity(2048)
	if err != nil {
		log.Fatal(err)
	}

	inj, err := fault.ParseSpec(*faultSpec, 1)
	if err != nil {
		log.Fatalf("-fault: %v", err)
	}
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 3, EnginesPerEndpoint: 4, Injector: inj})
	defer dev.Close()

	run := server.ConfigQTLS
	if inj != nil {
		log.Printf("%s", inj)
		run.OpTimeout = *opTimeout
		run.Lifecycle = true
	}

	var rec *trace.Recorder
	if *doMetrics {
		rec = trace.NewRecorder(4096)
		rec.SetEnabled(true)
	}
	var ticketKey [32]byte
	copy(ticketKey[:], "httpsserver-example-ticket-key!!")
	srv, err := server.New(server.Options{
		Addr:    "127.0.0.1:0",
		Workers: 2,
		Run:     run,
		TLS: &minitls.Config{
			Identity:     id,
			SessionCache: minitls.NewSessionCache(1024),
			TicketKey:    &ticketKey,
		},
		Pool:    qat.PoolOf(dev),
		Handler: server.SizedBodyHandler(1 << 20),
		Trace:   rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	log.Printf("QTLS server listening on https://%s (paths like /4096 serve 4 KiB)", srv.Addr())

	if *doMetrics {
		log.Print("observability on: /metrics, /stub_status, /debug/trace")
		stopTick := make(chan struct{})
		defer close(stopTick)
		go func() {
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopTick:
					return
				case <-tick.C:
				}
				line := "phase latency p50/p99 µs:"
				for _, ph := range trace.OffloadPhases() {
					h, ok := srv.Metrics().LookupHistogram(trace.PhaseSeriesName(ph))
					if !ok || h.Count() == 0 {
						continue
					}
					line += fmt.Sprintf("  %s %.1f/%.1f", ph,
						h.Quantile(0.50)/1e3, h.Quantile(0.99)/1e3)
				}
				log.Print(line)
			}
		}()
	}

	// Drive it: 8 clients make connections with one request each for 2s.
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:        srv.Addr(),
		Clients:     8,
		Duration:    2 * time.Second,
		RequestPath: "/4096",
	})
	fmt.Printf("\nclient results: %s\n", res)

	st := srv.Stats()
	fmt.Printf("server stats:   handshakes=%d requests=%d asyncEvents=%d heuristicPolls=%d\n",
		st.Handshakes, st.Requests, st.AsyncEvents, st.HeuristicPolls)
	var fw uint64
	for _, c := range dev.Counters() {
		fw += c.TotalResponses()
	}
	fmt.Printf("QAT fw_counters: %d crypto operations offloaded\n", fw)
	if inj != nil {
		snap := srv.Metrics().Snapshot()
		fmt.Printf("degradation:    faults=%d timeouts=%d swFallbacks=%d trips=%d\n",
			snap["qat_faults_injected"], snap["qat_op_timeouts"],
			snap["qat_sw_fallbacks"], snap["qat_instance_trips"])
	}
}
