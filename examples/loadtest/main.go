//go:build linux

// Loadtest example: compares the paper's five offload configurations on
// the functional stack (real sockets, real crypto, simulated QAT device)
// with a closed-loop full-handshake workload — a laptop-scale Fig. 7a.
//
// Interpretation depends on host cores: the simulated accelerator's
// engines are goroutines, so offload only wins wall-clock time when spare
// cores exist to run them (on a single-core host SW wins and the async
// configurations merely demonstrate the machinery). The paper's
// performance figures are reproduced on the calibrated discrete-event
// model instead: see cmd/qtlsbench.
//
//	go run ./examples/loadtest [-duration 2s] [-clients 8]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"qtls/internal/loadgen"
	"qtls/internal/minitls"
	"qtls/internal/qat"
	"qtls/internal/server"
)

func main() {
	duration := flag.Duration("duration", 2*time.Second, "measurement per configuration")
	clients := flag.Int("clients", 8, "concurrent closed-loop clients")
	workers := flag.Int("workers", 2, "server workers")
	flag.Parse()

	log.Print("generating RSA-2048 identity...")
	id, err := minitls.NewRSAIdentity(2048)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s %10s %10s %12s\n", "config", "conns", "CPS", "avg latency")
	for _, run := range server.Configurations() {
		var pool *qat.Pool
		if run.UseQAT {
			pool = qat.NewPool(1, qat.DeviceSpec{Endpoints: 3, EnginesPerEndpoint: 4})
		}
		srv, err := server.New(server.Options{
			Addr:    "127.0.0.1:0",
			Workers: *workers,
			Run:     run,
			TLS: &minitls.Config{
				Identity:     id,
				CipherSuites: []uint16{minitls.TLS_RSA_WITH_AES_128_CBC_SHA},
			},
			Pool:    pool,
			Handler: server.SizedBodyHandler(1 << 20),
		})
		if err != nil {
			log.Fatal(err)
		}
		srv.Start()
		res := loadgen.STime(loadgen.STimeOptions{
			Addr:     srv.Addr(),
			Clients:  *clients,
			Duration: *duration,
		})
		srv.Stop()
		if pool != nil {
			pool.Close()
		}
		fmt.Printf("%-8s %10d %10.0f %12v\n",
			run.Name, res.Connections, res.CPS(), time.Duration(res.Latency.Mean).Round(time.Microsecond))
	}
}
