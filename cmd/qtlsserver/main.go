//go:build linux

// Command qtlsserver runs the functional event-driven TLS server — the
// Nginx-equivalent of the QTLS reproduction — over real TCP sockets with
// the simulated QAT device. The offload configuration, worker count, TLS
// version and resumption machinery are selectable, mirroring the SSL
// Engine Framework directives of the paper's artifact (§A.7):
//
//	qtlsserver -addr 127.0.0.1:8443 -config QTLS -workers 4
//	qtlsserver -config SW -max-version 1.3
//	qtlsserver -config QAT+AH -asym-threshold 64 -sym-threshold 32
//	qtlsserver -config nginx.conf -workers 2
//
// -config takes one of the five configuration names or the path of a conf
// file in the §A.7 ssl_engine dialect. One precedence rule covers every
// setting: a flag given on the command line overrides the name-or-file
// value, which overrides the internal/offload default (the policy layer
// shared with the performance model).
//
// A fault scenario (internal/fault spec grammar) can be injected into the
// simulated device to watch the server degrade gracefully instead of
// hanging; with -lifecycle the health manager routes around the sick
// instances and devices, and GET /stub_status reports the fault counters
// and per-instance breaker state:
//
//	qtlsserver -fault 'stall:ep=0,op=rsa,p=1' -op-timeout 10ms -lifecycle
//
// Clients: cmd/qtlsload, or the examples. Responses are served for paths
// of the form "/<bytes>" (e.g. GET /65536 returns 64 KiB).
package main

import (
	"context"
	"crypto/elliptic"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qtls/internal/fault"
	"qtls/internal/flight"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
	"qtls/internal/server"
	"qtls/internal/trace"
)

const (
	traceSpans = 4096 // span ring capacity per worker
	faultSeed  = 1    // fault injector RNG seed (device d uses faultSeed+d under -chaos)
)

// policyFlags are -config and the flags that refine the configuration it
// selects.
type policyFlags struct {
	config    *string
	workers   *int
	asymThr   *int
	symThr    *int
	notify    *string
	placement *string
}

func addPolicyFlags(fs *flag.FlagSet) *policyFlags {
	return &policyFlags{
		config:    fs.String("config", "QTLS", "offload configuration: SW, QAT+S, QAT+A, QAT+AH or QTLS, or the path of an ssl_engine conf file (§A.7 dialect)"),
		workers:   fs.Int("workers", 2, "number of event-loop workers"),
		asymThr:   fs.Int("asym-threshold", offload.DefaultAsymThreshold, "heuristic polling asym threshold"),
		symThr:    fs.Int("sym-threshold", offload.DefaultSymThreshold, "heuristic polling sym threshold"),
		notify:    fs.String("notify", "", "async notification backend: fd or kernel-bypass (default: the configuration's)"),
		placement: fs.String("placement", "", "multi-device placement: single or conn-hash (default: single)"),
	}
}

// resolve reads the -config value — a configuration name or a conf file,
// which may also set the worker count — and then lets every flag that was
// actually given on the command line override it. Flags left alone never
// clobber a value the file set.
func (pf *policyFlags) resolve(fs *flag.FlagSet) (run server.RunConfig, workers int, err error) {
	workers = *pf.workers
	if p, ok := offload.ByName(*pf.config); ok {
		run.Policy = p
	} else {
		text, rerr := os.ReadFile(*pf.config)
		if rerr != nil {
			return run, 0, fmt.Errorf("unknown -config %q: want SW, QAT+S, QAT+A, QAT+AH or QTLS, or the path of an ssl_engine conf file (%v)", *pf.config, rerr)
		}
		settings, perr := server.ParseEngineConfig(string(text))
		if perr != nil {
			return run, 0, fmt.Errorf("-config %s: %v", *pf.config, perr)
		}
		run = settings.Run
		if settings.Workers > 0 {
			workers = settings.Workers
		}
	}
	fs.Visit(func(f *flag.Flag) {
		var ok bool
		switch f.Name {
		case "workers":
			workers = *pf.workers
		case "asym-threshold":
			run.Poll.AsymThreshold = *pf.asymThr
		case "sym-threshold":
			run.Poll.SymThreshold = *pf.symThr
		case "notify":
			if run.Notify, ok = offload.NotifySchemeByName(*pf.notify); !ok {
				err = fmt.Errorf("unknown -notify %q (want fd or kernel-bypass)", *pf.notify)
			}
		case "placement":
			if run.Placement, ok = offload.PlacementByName(*pf.placement); !ok {
				err = fmt.Errorf("unknown -placement %q (want single or conn-hash)", *pf.placement)
			}
		}
	})
	return run, workers, err
}

func main() {
	var (
		pf       = addPolicyFlags(flag.CommandLine)
		addr     = flag.String("addr", "127.0.0.1:8443", "listen address")
		keyType  = flag.String("key", "rsa", "server key type: rsa or ecdsa")
		maxVer   = flag.String("max-version", "1.2", "maximum TLS version: 1.2 or 1.3")
		devCount = flag.Int("devices", 1, "simulated QAT devices in the pool")
		tktRot   = flag.Duration("ticket-rotate", 0, "session-ticket key rotation interval for the shared ring (0 = off; needs a multi-device placement)")
		traceOn  = flag.Bool("trace", false, "record offload-phase spans (serves /debug/trace, adds phase latency to stats)")
		flightOn = flag.Bool("flight", false, "enable the black-box flight recorder (serves /debug/flight, windowed _w60s metrics, anomaly + SIGQUIT dumps; implies -trace)")
		sloP99   = flag.Duration("slo-p99", 0, "windowed p99 SLO over the offload phases; exceeding it triggers a flight dump (0 = off; needs -flight)")

		faultSpec = flag.String("fault", "", "device fault scenario, e.g. 'stall:op=rsa,p=0.1' (see internal/fault)")
		chaosSpec = flag.String("chaos", "", "time-scripted chaos schedule, e.g. 't=5s dev1 stall 10s; t=30s dev0 reset-storm n=4' (implies -lifecycle; per-device injectors)")
		lifecycle = flag.Bool("lifecycle", false, "enable the health manager: per-instance circuit breakers, device quarantine/probation/recovery with live worker re-homing")
		opTimeout = flag.Duration("op-timeout", 0, "per-op offload deadline before software fallback (0 = off)")
		maxRetry  = flag.Int("max-retries", 2, "offload retries after retryable device errors")

		hsTimeout = flag.Duration("handshake-timeout", offload.DefaultHandshakeTimeout, "TLS handshake deadline (negative = off)")
		hdTimeout = flag.Duration("header-timeout", offload.DefaultHeaderTimeout, "request-header deadline (negative = off)")
		kaTimeout = flag.Duration("keepalive-timeout", offload.DefaultKeepaliveTimeout, "keepalive idle deadline (negative = off)")
		wsTimeout = flag.Duration("write-stall-timeout", offload.DefaultWriteStallTimeout, "buffered-write stall deadline (negative = off)")
		maxConns  = flag.Int("max-conns", offload.DefaultMaxConnsPerWorker, "per-worker connection cap before accept-time shedding (negative = off)")
		shedFrac  = flag.Float64("shed-fraction", offload.DefaultShedFraction, "QAT inflight/ring-capacity fraction that sheds new accepts (negative = off)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM/SIGINT before the hard cutoff")
	)
	flag.Parse()

	run, workers, err := pf.resolve(flag.CommandLine)
	if err != nil {
		log.Fatal(err)
	}
	if run.Offload != nil {
		log.Printf("default_algorithm: offloading %v", run.Offload)
	}

	if *devCount < 1 {
		log.Fatalf("-devices: need at least 1, got %d", *devCount)
	}
	if run.Placement != offload.PlacementSingle && !run.UseQAT {
		log.Fatalf("-placement %s needs a QAT configuration (got %s)", run.Placement, run.Name)
	}

	log.Printf("generating %s identity...", *keyType)
	var id *minitls.Identity
	if *keyType == "ecdsa" {
		id, err = minitls.NewECDSAIdentity(elliptic.P256())
	} else {
		id, err = minitls.NewRSAIdentity(2048)
	}
	if err != nil {
		log.Fatalf("identity: %v", err)
	}

	tlsCfg := &minitls.Config{Identity: id, SessionCache: minitls.NewSessionCache(4096)}
	if *maxVer == "1.3" {
		tlsCfg.MaxVersion = minitls.VersionTLS13
	}
	if run.Placement != offload.PlacementSingle {
		// Multi-device placements share one rotating ring across the
		// accept-sharded workers so a ticket issued anywhere resumes
		// anywhere, across rotations.
		ring, err := minitls.GenerateTicketKeyRing(0)
		if err != nil {
			log.Fatalf("ticket ring: %v", err)
		}
		tlsCfg.TicketKeys = ring
	} else {
		var key [32]byte
		copy(key[:], "qtlsserver-demo-ticket-key-32byte")
		tlsCfg.TicketKey = &key
	}

	// Degradation knobs: the deadline/retry ladder applies to any
	// configuration; the injector and the health manager need the
	// simulated device.
	run.OpTimeout = *opTimeout
	run.MaxRetries = *maxRetry
	// Lifecycle deadlines and admission control (the connection-lifecycle
	// hardening layer; zero RunConfig fields take the offload defaults).
	run.Deadlines = offload.DeadlinePolicy{
		Handshake:  *hsTimeout,
		Header:     *hdTimeout,
		Keepalive:  *kaTimeout,
		WriteStall: *wsTimeout,
	}
	run.Overload = offload.OverloadPolicy{
		MaxConns:     *maxConns,
		ShedFraction: *shedFrac,
	}

	inj, err := fault.ParseSpec(*faultSpec, faultSeed)
	if err != nil {
		log.Fatalf("-fault: %v", err)
	}
	if inj != nil && !run.UseQAT {
		log.Fatalf("-fault needs a QAT configuration (got %s)", run.Name)
	}
	if inj != nil && *opTimeout <= 0 {
		log.Print("warning: -fault without -op-timeout; stalled ops will hang their connections")
	}

	// A chaos schedule replays timed faults against individual devices, so
	// each device needs its own injector (the -fault rules, if any, seed
	// every one). Chaos without the lifecycle manager would leave killed
	// devices dead forever, so -chaos implies -lifecycle.
	chaos, err := fault.ParseSchedule(*chaosSpec)
	if err != nil {
		log.Fatalf("-chaos: %v", err)
	}
	if chaos != nil {
		if !run.UseQAT {
			log.Fatalf("-chaos needs a QAT configuration (got %s)", run.Name)
		}
		*lifecycle = true
		if *opTimeout <= 0 {
			log.Print("warning: -chaos without -op-timeout; stalled ops will hang their connections")
		}
	}
	if *lifecycle {
		if !run.UseQAT {
			log.Fatalf("-lifecycle needs a QAT configuration (got %s)", run.Name)
		}
		run.Lifecycle = true
	}

	var pool *qat.Pool
	var devInjs []*fault.Injector
	if run.UseQAT {
		spec := qat.DeviceSpec{
			Endpoints:          3,
			EnginesPerEndpoint: 4,
			Injector:           inj,
		}
		if chaos != nil {
			var rules []fault.Rule
			if inj != nil {
				rules = inj.Rules()
			}
			devs := make([]*qat.Device, *devCount)
			devInjs = make([]*fault.Injector, *devCount)
			for d := range devs {
				devInjs[d] = fault.NewInjector(faultSeed+int64(d), rules...)
				dspec := spec
				dspec.Injector = devInjs[d]
				devs[d] = qat.NewDevice(dspec)
			}
			pool = qat.PoolOf(devs...)
		} else {
			pool = qat.NewPool(*devCount, spec)
		}
		defer pool.Close()
		if inj != nil {
			log.Printf("%s", inj)
		}
	}

	var rec *trace.Recorder
	if *traceOn || *flightOn {
		// The flight recorder's windowed signal plane consumes spans, so
		// -flight implies span recording.
		rec = trace.NewRecorder(traceSpans)
		rec.SetEnabled(true)
	}
	var fr *flight.Recorder
	if *flightOn {
		fr = flight.New(flight.Config{SLOP99: *sloP99})
		fr.SetDumpSink(func(reason string, events []flight.Event) {
			name := fmt.Sprintf("flight-%s-%d.jsonl", reason, time.Now().UnixNano())
			f, err := os.Create(name)
			if err != nil {
				log.Printf("flight dump (%s): %v", reason, err)
				return
			}
			defer f.Close()
			if err := fr.WriteDumpEvents(f, reason, events); err != nil {
				log.Printf("flight dump (%s): %v", reason, err)
				return
			}
			log.Printf("flight dump (%s): %d events -> %s (read with: qatinfo -flight %s)",
				reason, len(events), name, name)
		})
	}
	srv, err := server.New(server.Options{
		Addr:    *addr,
		Workers: workers,
		Run:     run,
		TLS:     tlsCfg,
		Pool:    pool,
		Handler: server.SizedBodyHandler(8 << 20),
		Trace:   rec,
		Flight:  fr,
	})
	if err != nil {
		log.Fatalf("server: %v", err)
	}
	srv.Start()
	log.Printf("qtlsserver: %s, %d workers, config %s, max %s — listening on %s",
		*keyType, workers, run.Name, *maxVer, srv.Addr())
	log.Printf("observability: GET /stub_status, GET /metrics (Prometheus text)")
	if rec != nil {
		log.Printf("tracing: GET /debug/trace?n=256 (four-phase spans, %d per worker)", traceSpans)
	}
	if pool != nil && (pool.Size() > 1 || run.Placement != offload.PlacementSingle) {
		log.Printf("placement: %s over %d device(s), pool-wide admission control", run.Placement, pool.Size())
	}
	if *tktRot > 0 {
		ring := srv.TicketKeys()
		if ring == nil {
			log.Fatalf("-ticket-rotate needs the shared ticket ring (a multi-device -placement)")
		}
		go func() {
			for range time.Tick(*tktRot) {
				if err := ring.Rotate(); err != nil {
					log.Printf("ticket rotate: %v", err)
					continue
				}
				log.Printf("ticket ring rotated (generation %d, %d keys retained)", ring.Generation(), ring.Len())
			}
		}()
		log.Printf("ticket ring: rotating every %s", *tktRot)
	}
	if srv.Lifecycle() != nil {
		log.Printf("lifecycle: per-instance breakers, quarantine/probation/recovery on %d device(s), qtls_device_state{dev} on /metrics",
			pool.Size())
	}
	if chaos != nil {
		log.Printf("chaos: %s (quiet after %s)", chaos, chaos.Duration())
		chaosCtx, chaosCancel := context.WithCancel(context.Background())
		defer chaosCancel()
		go func() {
			err := chaos.Apply(chaosCtx,
				func(dev int) *fault.Injector {
					if dev >= 0 && dev < len(devInjs) {
						return devInjs[dev]
					}
					return nil
				},
				func(dev int) {
					if dev >= 0 && dev < pool.Size() {
						pool.Device(dev).Reset()
					}
				})
			if err != nil {
				log.Printf("chaos: %v", err)
				return
			}
			log.Print("chaos: schedule complete")
		}()
	}
	if fr != nil {
		log.Printf("flight recorder: GET /debug/flight?n=256, SIGQUIT dumps, windowed *_w60s series on /metrics")
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				fr.Trigger("signal")
			}
		}()
	}

	go func() {
		for range time.Tick(5 * time.Second) {
			st := srv.Stats()
			line := fmt.Sprintf("handshakes=%d (resumed %d) requests=%d bytes=%d asyncEvents=%d heuristicPolls=%d timerPolls=%d retries=%d errors=%d",
				st.Handshakes, st.Resumed, st.Requests, st.BytesOut,
				st.AsyncEvents, st.HeuristicPolls, st.TimerPolls, st.RetryEvents, st.Errors)
			if pool != nil {
				var reqs uint64
				for _, d := range pool.Devices() {
					for _, c := range d.Counters() {
						reqs += c.TotalRequests()
					}
				}
				line += fmt.Sprintf(" fw_counters=%d", reqs)
				if lc := srv.Lifecycle(); lc != nil {
					line += fmt.Sprintf(" devState=%v", lc.States())
				}
			}
			snap := srv.Metrics().Snapshot()
			if snap["qat_faults_injected"] > 0 || snap["qat_sw_fallbacks"] > 0 {
				line += fmt.Sprintf(" faults=%d timeouts=%d swFallbacks=%d trips=%d",
					snap["qat_faults_injected"], snap["qat_op_timeouts"],
					snap["qat_sw_fallbacks"], snap["qat_instance_trips"])
			}
			if rec != nil {
				line += " phases(p50/p99 µs):"
				for _, ph := range trace.OffloadPhases() {
					if h, ok := srv.Metrics().LookupHistogram(trace.PhaseSeriesName(ph)); ok && h.Count() > 0 {
						line += fmt.Sprintf(" %s=%.1f/%.1f", ph,
							h.Quantile(0.50)/1e3, h.Quantile(0.99)/1e3)
					}
				}
			}
			log.Print(line)
		}
	}()

	// SIGTERM/SIGINT starts a graceful drain: stop accepting, finish
	// admitted requests and in-flight QAT responses, close-notify idle
	// keepalive connections. A second signal — or the drain budget
	// expiring — forces the hard cutoff.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("draining (budget %s; signal again for hard stop)", *drainWait)
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	go func() {
		<-sig
		cancel()
	}()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain cut short: %v", err)
	} else {
		log.Print("drained cleanly")
	}
	cancel()
}
