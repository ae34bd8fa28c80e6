// Command qatinfo exercises a simulated QAT device and dumps its
// per-endpoint firmware counters, mirroring the artifact appendix's
// post-test check:
//
//	cat /sys/kernel/debug/qat*/fw_counters
//
// It allocates instances like a multi-worker server would, submits a
// configurable burst of requests of each type, polls them to completion,
// and prints the resulting counters plus per-instance health/breaker
// state. A fault scenario (internal/fault spec grammar) can be injected
// to watch the device degrade:
//
//	qatinfo -fault 'stall:op=rsa,p=0.2 latency:d=2ms,p=0.5'
//	qatinfo -fault 'reset:after=500,limit=1'
//
// The burst is judged by the same health manager a server runs with
// -lifecycle, and it acts: a device it quarantines is drained by a Reset
// that fails every request still parked there. The response errors and
// resets printed then include that drain on top of the injected faults;
// the device transitions are listed under device health, and the fault
// summary counts the quarantine drains apart from the injected resets.
//
// It also doubles as the flight-dump reader: -flight pretty-prints a
// black-box dump (qtlsserver -flight anomaly/SIGQUIT files, or a saved
// GET /debug/flight body) as a windowed phase-latency table, a
// per-second incident timeline and the top slow spans:
//
//	qatinfo -flight flight-breaker-open-1723110000.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"qtls/internal/fault"
	"qtls/internal/flight"
	"qtls/internal/metrics"
	"qtls/internal/qat"
	"qtls/internal/trace"
)

func main() {
	var (
		devices   = flag.Int("devices", 1, "QAT devices in the pool (instances round-robin across them)")
		endpoints = flag.Int("endpoints", 3, "QAT endpoints per device (DH8970 has 3)")
		engines   = flag.Int("engines", 4, "engines per endpoint")
		instances = flag.Int("instances", 6, "crypto instances to allocate")
		burst     = flag.Int("burst", 100, "requests of each type per instance")
		batch     = flag.Int("batch", 1, "submit in batches of this size via SubmitBatch (1 = per-op Submit, >1 = one ring lock and one doorbell per batch)")
		service   = flag.Duration("service", 50*time.Microsecond, "modeled RSA service time")
		faultSpec = flag.String("fault", "", "fault scenario, e.g. 'stall:op=rsa,p=0.1' (see internal/fault)")
		faultSeed = flag.Int64("fault-seed", 1, "fault injector RNG seed")
		deadline  = flag.Duration("op-timeout", 50*time.Millisecond, "drain deadline: give up on stalled requests after this long without progress")
		flightIn  = flag.String("flight", "", "read a flight-recorder dump (JSON lines) and pretty-print it instead of exercising a device")
		topK      = flag.Int("top", 10, "slow spans to list with -flight")
	)
	flag.Parse()

	if *flightIn != "" {
		if err := printFlightDump(*flightIn, *topK); err != nil {
			log.Fatalf("-flight: %v", err)
		}
		return
	}

	inj, err := fault.ParseSpec(*faultSpec, *faultSeed)
	if err != nil {
		log.Fatalf("-fault: %v", err)
	}
	if *devices < 1 {
		log.Fatalf("-devices: need at least 1, got %d", *devices)
	}
	pool := qat.NewPool(*devices, qat.DeviceSpec{
		Endpoints:          *endpoints,
		EnginesPerEndpoint: *engines,
		RingCapacity:       256,
		ServiceTime: map[qat.OpType]time.Duration{
			qat.OpRSA: *service,
		},
		Injector: inj,
	})
	defer pool.Close()

	ops := []qat.OpType{qat.OpRSA, qat.OpECDSA, qat.OpECDH, qat.OpPRF, qat.OpCipher}
	// Submit→response latency per op type, plus retrieval spans in the
	// same recorder the server uses (everything runs on this goroutine:
	// callbacks fire inside Poll, so plain maps are fine).
	rec := trace.NewRecorder(4096)
	rec.SetEnabled(true)
	spans := rec.Buffer(0)
	lat := map[qat.OpType]*metrics.Histogram{}
	for _, op := range ops {
		lat[op] = new(metrics.Histogram)
	}
	// The health manager judges the burst the way a hardened server
	// would: every outcome feeds the instance's circuit, and trips, reset
	// storms and wedges move its device's state. Every outcome and tick
	// runs on this goroutine, so the transition hook appends unlocked.
	lc := qat.NewLifecycle(pool, nil)
	var transitions []qat.Transition
	lc.SetOnTransition(func(tr qat.Transition) { transitions = append(transitions, tr) })
	var insts []*qat.Instance
	var instDev []int // owning device of each instance
	for i := 0; i < *instances; i++ {
		d := i % *devices
		inst, err := pool.AllocInstance(d)
		if err != nil {
			log.Fatalf("alloc instance %d: %v", i, err)
		}
		lc.Watch(inst, nil)
		insts = append(insts, inst)
		instDev = append(instDev, d)
	}
	fmt.Printf("pool: %d device(s) × %d endpoints × %d engines, %d instances allocated\n",
		*devices, *endpoints, *engines, len(insts))
	if inj != nil {
		fmt.Printf("%s\n", inj)
	}

	start := time.Now()
	var submitErrs, respErrs int
	for _, inst := range insts {
		// makeReq builds one request stamped with its submit time; the
		// callback runs on this goroutine inside Poll.
		makeReq := func(op qat.OpType) qat.Request {
			submitAt := time.Now()
			return qat.Request{
				Op:   op,
				Work: func() (any, error) { return nil, nil },
				Callback: func(r qat.Response) {
					d := time.Since(submitAt)
					lat[op].ObserveDuration(d)
					spans.Record(trace.PhaseRetrieve, trace.Op(op), trace.TagNone, 0, submitAt, d)
					if r.Err != nil {
						respErrs++
					}
					lc.Result(inst, r.Err == nil)
				},
			}
		}
		for _, op := range ops {
			if *batch > 1 {
				// Batched submission: one ring lock and one doorbell per
				// chunk, retrying the unaccepted tail on backpressure.
				for n := 0; n < *burst; {
					size := *batch
					if rest := *burst - n; size > rest {
						size = rest
					}
					reqs := make([]qat.Request, size)
					for j := range reqs {
						reqs[j] = makeReq(op)
					}
					for len(reqs) > 0 {
						acc, err := inst.SubmitBatch(reqs)
						n += acc
						reqs = reqs[acc:]
						if err == nil {
							continue
						}
						if errors.Is(err, qat.ErrRingFull) {
							inst.Poll(0)
							continue
						}
						// Device-level failure: feed the breaker, drop the
						// head of the tail like the per-op path drops its
						// request, and keep going.
						submitErrs++
						lc.Result(inst, false)
						reqs = reqs[1:]
						n++
					}
				}
				continue
			}
			for n := 0; n < *burst; n++ {
				req := makeReq(op)
				for {
					err := inst.Submit(req)
					if err == nil {
						break
					}
					if errors.Is(err, qat.ErrRingFull) {
						inst.Poll(0)
						continue
					}
					// Device-level failure (e.g. endpoint reset): feed the
					// breaker and move on, like a hardened engine would.
					submitErrs++
					lc.Result(inst, false)
					break
				}
			}
		}
	}
	// Drain. Stalled requests answer only if a quarantine drains their
	// device, which the wedge detector does too late for a short drain
	// deadline (see the fault summary): when no instance makes
	// progress for the drain deadline, reclaim the leaked slots and count
	// them against the owning instance's breaker.
	var leaked int
	lastProgress := time.Now()
	for {
		pending, progress := 0, 0
		for _, inst := range insts {
			progress += inst.Poll(0)
			pending += inst.Inflight()
		}
		lc.Tick()
		if pending == 0 {
			break
		}
		if progress > 0 {
			lastProgress = time.Now()
		} else if time.Since(lastProgress) > *deadline {
			for _, inst := range insts {
				n := inst.ReclaimLeaked()
				leaked += n
				for j := 0; j < n; j++ {
					lc.Result(inst, false)
				}
			}
			if p := sumInflight(insts); p > 0 {
				fmt.Printf("\ndrain: gave up on %d stuck request(s) after %v\n", p, *deadline)
			}
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)

	fmt.Printf("\nfw_counters (after %v):\n", elapsed.Round(time.Millisecond))
	total := uint64(0)
	for di, dev := range pool.Devices() {
		fmt.Printf("  device %d:\n", di)
		for i, c := range dev.Counters() {
			fmt.Printf("    endpoint %d:\n", i)
			for _, op := range ops {
				fmt.Printf("      %-7s requests=%-8d responses=%d\n",
					op, c.Requests[op], c.Responses[op])
			}
			total += c.TotalResponses()
		}
	}
	fmt.Printf("\nsubmit→response latency (%d spans recorded):\n", rec.Count())
	for _, op := range ops {
		h := lat[op]
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("  %-7s n=%-8d p50=%-10v p99=%-10v max=%v\n",
			op, h.Count(),
			time.Duration(h.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(h.Max()).Round(time.Microsecond))
	}

	fmt.Printf("\ndevice health:\n")
	for _, h := range pool.Health() {
		fmt.Printf("  device %d: state=%s instances=%d inflight=%d leaked=%d resets=%d pressure=%.2f\n",
			h.Device, h.State, h.Instances, h.Inflight, h.Leaked, h.Resets, h.Pressure())
	}
	drains := 0
	for _, tr := range transitions {
		fmt.Printf("  transition: device %d %s -> %s (%s) at +%v\n",
			tr.Dev, tr.From, tr.To, tr.Reason, tr.At.Sub(start).Round(time.Millisecond))
		if tr.To == qat.DevQuarantined {
			drains++
		}
	}

	fmt.Printf("\ninstance health:\n")
	for i, inst := range insts {
		st := inst.Stats()
		fmt.Printf("  instance %d device %d endpoint %d inflight %d leaked %d breaker %s\n",
			i, instDev[i], inst.Endpoint(), inst.Inflight(), inst.Leaked(), inst.Breaker())
		fmt.Printf("    submits=%d ringFull=%d polls=%d (empty %d) dequeued=%d maxBatch=%d reclaimed=%d\n",
			st.Submits, st.RingFull, st.Polls, st.EmptyPolls, st.Dequeued, st.MaxBatch, st.Reclaimed)
		meanBatch := 0.0
		if st.SubmitBatches > 0 {
			meanBatch = float64(st.BatchSubmitted) / float64(st.SubmitBatches)
		}
		fmt.Printf("    submitBatches=%d (max %d mean %.1f) doorbells=%d\n",
			st.SubmitBatches, st.MaxSubmitBatch, meanBatch, st.Doorbells)
	}
	if inj != nil {
		fmt.Printf("\nfaults injected: %d (stall=%d drop=%d corrupt=%d latency=%d ringfull=%d reset=%d); quarantine drains=%d; submit errors=%d response errors=%d leaked slots reclaimed=%d\n",
			inj.TotalInjected(),
			inj.Injected(fault.Stall), inj.Injected(fault.Drop), inj.Injected(fault.Corrupt),
			inj.Injected(fault.Latency), inj.Injected(fault.RingFull), inj.Injected(fault.Reset),
			drains, submitErrs, respErrs, leaked)
	}
	fmt.Printf("\ntotal responses: %d (%.0f ops/s)\n",
		total, float64(total)/elapsed.Seconds())
}

// printFlightDump renders a black-box dump file through flight's
// reader: header summary, windowed phase table, incident timeline and
// the top slow spans.
func printFlightDump(path string, topK int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := flight.ReadDump(f)
	if err != nil {
		return err
	}
	d.Report(os.Stdout, topK)
	return nil
}

func sumInflight(insts []*qat.Instance) int {
	n := 0
	for _, inst := range insts {
		n += inst.Inflight()
	}
	return n
}
