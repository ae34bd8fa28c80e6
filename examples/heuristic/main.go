// Heuristic polling example: shows how the QTLS heuristic polling scheme
// adapts to traffic (§3.3) using the discrete-event model. Under low
// concurrency the timeliness constraint (Rtotal == active connections)
// triggers immediate polls for low latency; under high concurrency the
// efficiency constraint coalesces ~24-48 responses per poll. A timer
// thread either wastes polls (10 µs) or destroys latency (1 ms).
//
//	go run ./examples/heuristic
package main

import (
	"fmt"
	"time"

	"qtls/internal/perf"
)

func run(name string, cfg perf.Config, clients int) {
	res := perf.Run(perf.RunOptions{
		Config:  cfg,
		Warmup:  300 * time.Millisecond,
		Measure: 500 * time.Millisecond,
		Install: func(m *perf.Model) {
			perf.STimeWorkload{
				Clients: clients,
				Spec:    perf.ScriptSpec{Suite: perf.SuiteRSA},
			}.Install(m)
		},
	})
	st := res.Stats
	perPoll := 0.0
	if st.Polls > 0 {
		perPoll = float64(st.Notifications) / float64(st.Polls)
	}
	fmt.Printf("  %-22s clients=%-5d CPS=%-8.0f polls=%-8d empty=%-8d responses/poll=%.1f\n",
		name, clients, res.CPS, st.Polls, st.EmptyPolls, perPoll)
}

func main() {
	heur := perf.QTLS(4)
	timerFast := perf.QATA(4)
	timerSlow := perf.QATA(4)
	timerSlow.Poll.Interval = time.Millisecond

	fmt.Println("low concurrency (4 clients): timeliness constraint polls immediately")
	run("heuristic (QTLS)", heur, 4)
	run("timer 10µs", timerFast, 4)
	run("timer 1ms", timerSlow, 4)

	fmt.Println("\nhigh concurrency (600 clients): efficiency constraint coalesces responses")
	run("heuristic (QTLS)", heur, 600)
	run("timer 10µs", timerFast, 600)
	run("timer 1ms", timerSlow, 600)

	fmt.Println("\nThe heuristic matches the retrieve rate to the submission rate in both")
	fmt.Println("regimes; fixed-interval polling must pick one and lose in the other (§5.6).")
}
