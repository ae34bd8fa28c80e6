//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. Its JSON form is the
// last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string      // failed output checks
	notes    []string      // printed, not failures
	samples  int           // operations behind the timings
	elapsed  time.Duration // whole run, set-ups included
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) count(l loadResult) {
	r.Attempted += l.attempted
	r.Failed += l.failed
	if l.firstErr != nil {
		r.fail("%d of %d operations failed, first: %v", l.failed, l.attempted, l.firstErr)
	}
}

// set stores the values of defs found in vals, with their units.
func (r *result) set(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			r.fail("metric %s was not measured", d.name)
			continue
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
}

// session is one server child with its warmed-up clients.
type session struct {
	w       workload
	child   *child
	clients []*client
	ref     *reference
	setup   float64 // seconds: spawn → listener ready → warm-up done, at the reference host speed
}

// openSession is the set-up that setup_s times: spawn the child, wait
// for its listener, run the fixed-count warm-up. The warm-up runs in
// warmupChunks pieces with a reference burst around each, so the set-up
// time is scaled piece by piece like a measured window; the bursts
// themselves are not part of it.
func openSession(w workload, seed int64, tracer bool, ref *reference, res *result) (*session, error) {
	speed, err := ref.burst()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	c, err := spawnChild(w.config, tracer)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, child: c, ref: ref}
	for id := 0; id < clients; id++ {
		s.clients = append(s.clients, newClient(id, w, c.addr, seed))
	}
	piece := time.Since(t0)
	for done := 0; done < w.warmupOps; {
		n := min(max(1, w.warmupOps/warmupChunks), w.warmupOps-done)
		load := runLoad(s.clients, 0, n)
		res.count(load)
		done += n
		next, err := ref.burst()
		if err != nil {
			c.kill()
			return nil, err
		}
		s.setup += (piece + load.wall).Seconds() * (speed + next) / 2 / refSpeed
		speed, piece = next, 0
	}
	return s, nil
}

// close hangs up, checks the server saw every connection close and
// counted what the clients counted, and stops the child.
func (s *session) close(res *result) {
	var handshakes, requests int
	for _, c := range s.clients {
		c.hangUp()
		handshakes += c.handshakes
		requests += c.requests
	}
	// The worker notices a client close on its next loop iteration (at
	// most one 50 ms idle sleep away), without help from the drain.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap, err := s.child.command("report")
		if err != nil {
			res.fail("%v", err)
			break
		}
		if snap.OpenConns == 0 {
			break
		}
		if time.Now().After(deadline) {
			res.fail("server still holds %d open connections after every client closed", snap.OpenConns)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	final, err := s.child.quit()
	if err != nil {
		res.fail("%v", err)
		return
	}
	if res.Failed == 0 {
		if got := final.Server.Handshakes; got != int64(handshakes) {
			res.fail("server counted %d handshakes, clients %d", got, handshakes)
		}
		if got := final.Server.Requests; got != int64(requests) {
			res.fail("server counted %d requests, clients %d", got, requests)
		}
	}
}

// slice is sliceLen of closed-loop load with the host speed around it.
type slice struct {
	load     loadResult
	speed    float64 // reference units per CPU-second (mean of the bursts before and after)
	srvCPUUs int64   // server user+system CPU inside the slice
	srvOps   int64   // requests the server served inside the slice
	genCPUUs int64   // this process's CPU inside the slice
}

// scale converts a duration measured in this slice to the reference host
// speed; a rate divides by it.
func (sl slice) scale() float64 { return sl.speed / refSpeed }

// window is one measured pass: its slices, and the child's counters on
// both sides of it.
type window struct {
	slices        []slice
	before, after snapshot
	stealPct      float64 // host steal time, share of all CPU time
}

// ops is the server's count of operations in the window.
func (w window) ops() float64 { return float64(w.after.Server.Requests - w.before.Server.Requests) }

// samples returns every completed operation of the window.
func (w window) samples() []opSample {
	var all []opSample
	for _, sl := range w.slices {
		all = append(all, sl.load.samples...)
	}
	return all
}

func (w window) failed() (n int) {
	for _, sl := range w.slices {
		n += sl.load.failed
	}
	return n
}

// t0 is when the window's first slice started.
func (w window) t0() time.Time { return w.slices[0].load.t0 }

// selfUsage returns this process's user+system CPU in µs and its peak
// resident set in KB.
func selfUsage() (cpuUs, maxRSSKB int64) {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return (ru.Utime.Sec+ru.Stime.Sec)*1e6 + ru.Utime.Usec + ru.Stime.Usec, ru.Maxrss
}

func selfCPUUs() int64 {
	cpu, _ := selfUsage()
	return cpu
}

// procStat returns the steal and total jiffies of the host's "cpu" line;
// zeros when /proc/stat is unreadable (steal is then reported as 0).
func procStat() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; the rest repeat user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// measure runs the closed loop for dur, one slice at a time, between two
// child snapshots. The clients pause between slices while the reference
// bursts read the host's speed.
func (s *session) measure(dur time.Duration, res *result) (window, error) {
	var win window
	var err error
	if win.before, err = s.child.command("mark"); err != nil {
		return win, err
	}
	steal0, total0 := procStat()
	speed, err := s.ref.burst()
	if err != nil {
		return win, err
	}
	for n := max(1, int(dur/sliceLen)); len(win.slices) < n; {
		sl := slice{speed: speed}
		tick0, err := s.child.command("tick")
		if err != nil {
			return win, err
		}
		cpu0 := selfCPUUs()
		sl.load = runLoad(s.clients, sliceLen, 0)
		sl.genCPUUs = selfCPUUs() - cpu0
		tick1, err := s.child.command("tick")
		if err != nil {
			return win, err
		}
		sl.srvCPUUs = tick1.CPUUs - tick0.CPUUs
		sl.srvOps = tick1.Server.Requests - tick0.Server.Requests
		if speed, err = s.ref.burst(); err != nil {
			return win, err
		}
		sl.speed = (sl.speed + speed) / 2
		win.slices = append(win.slices, sl)
		res.count(sl.load)
	}
	if steal1, total1 := procStat(); total1 > total0 {
		win.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if win.after, err = s.child.command("report"); err != nil {
		return win, err
	}
	s.check(win, res)
	return win, nil
}

// check applies the output checks that compare the two sides of a window.
func (s *session) check(win window, res *result) {
	b, a := win.before, win.after
	samples := win.samples()
	done := int64(len(samples))
	if win.failed() == 0 {
		if got := a.Server.Requests - b.Server.Requests; got != done {
			res.fail("server served %d requests in the window, clients completed %d", got, done)
		}
		wantHS := done
		if s.w.keepalive {
			wantHS = 0
			for _, c := range s.clients {
				for _, su := range c.setups {
					if !su.start.Before(win.t0()) {
						wantHS++
					}
				}
			}
		}
		if got := a.Server.Handshakes - b.Server.Handshakes; got != wantHS {
			res.fail("server completed %d handshakes in the window, clients %d", got, wantHS)
		}
		wantResumed := int64(0)
		for _, sm := range samples {
			if sm.offered {
				wantResumed++
			}
		}
		if got := a.Server.Resumed - b.Server.Resumed; got != wantResumed {
			res.fail("server resumed %d handshakes in the window, clients %d", got, wantResumed)
		}
		if s.w.resume && wantResumed != done {
			res.fail("%d of %d measured connections were full handshakes: the warm-up ended before every client held its tickets", done-wantResumed, done)
		}
	}
	if got := a.Server.Errors - b.Server.Errors; got != 0 {
		res.fail("server counted %d errors", got)
	}
	if got := a.Server.ShedAccepts + a.Server.ShedKeepalive - b.Server.ShedAccepts - b.Server.ShedKeepalive; got != 0 {
		res.fail("server shed %d connections", got)
	}
	submits := a.Engine.Submitted - b.Engine.Submitted
	switch s.w.config {
	case "SW":
		if submits != 0 {
			res.fail("software configuration submitted %d ops to the engine", submits)
		}
	default:
		if submits <= 0 {
			res.fail("offload configuration submitted no ops to the engine")
		}
		if got := a.Engine.SWFallbacks - b.Engine.SWFallbacks; got != 0 {
			res.fail("engine fell back to software %d times", got)
		}
	}
}

// ttfbMs returns the window's time-to-first-byte samples in ms, each
// scaled to the reference host speed by its slice.
func (w window) ttfbMs() []float64 {
	var v []float64
	for _, sl := range w.slices {
		for _, s := range sl.load.samples {
			v = append(v, float64(s.firstByte.Sub(s.start))/1e6*sl.scale())
		}
	}
	return v
}

// rates returns the completion rate of each slice at the reference host
// speed. A slice lasts until its last operation completes.
func (w window) rates() []float64 {
	v := make([]float64, len(w.slices))
	for i, sl := range w.slices {
		v[i] = float64(len(sl.load.samples)) / sl.load.wall.Seconds() / sl.scale()
	}
	return v
}

// srvCPUPerOp returns each slice's server CPU µs per operation at the
// reference host speed (slices in which the server served nothing are
// left out).
func (w window) srvCPUPerOp() []float64 {
	var v []float64
	for _, sl := range w.slices {
		if sl.srvOps > 0 {
			v = append(v, float64(sl.srvCPUUs)/float64(sl.srvOps)*sl.scale())
		}
	}
	return v
}

// endToEndValues derives the gated metrics (all but setup_s) from the
// untraced window. The three timings are medians over the slices, so one
// stolen second does not move them.
func endToEndValues(win window) map[string]float64 {
	ops := win.ops()
	if ops == 0 {
		return nil
	}
	b, a := win.before, win.after
	return map[string]float64{
		"ops_per_s":           median(win.rates()),
		"ttfb_p50_ms":         median(win.ttfbMs()),
		"srv_cpu_us_per_op":   median(win.srvCPUPerOp()),
		"srv_allocs_per_op":   float64(a.Mallocs-b.Mallocs) / ops,
		"srv_alloc_kb_per_op": float64(a.TotalAlloc-b.TotalAlloc) / 1024 / ops,
	}
}

func newResult() *result {
	return &result{Metrics: make(map[string]metricValue)}
}

// runEndToEnd is the untraced run: set up setupRounds times (setup_s is
// their median), then measure dur on the last server.
func runEndToEnd(w workload, seed int64, dur time.Duration) *result {
	res := newResult()
	start := time.Now()
	defer func() {
		res.elapsed = time.Since(start)
		res.Correct = len(res.problems) == 0
	}()
	ref, err := newReference()
	if err != nil {
		res.fail("%v", err)
		return res
	}
	defer ref.close()
	var setups []float64
	var s *session
	for round := 0; round < setupRounds; round++ {
		if s != nil {
			s.close(res)
		}
		if s, err = openSession(w, seed, false, ref, res); err != nil {
			res.fail("set-up: %v", err)
			return res
		}
		setups = append(setups, s.setup)
	}
	win, err := s.measure(dur, res)
	s.close(res)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	res.samples = len(win.samples())
	vals := endToEndValues(win)
	if vals == nil {
		res.fail("no operation completed in the measured window")
		return res
	}
	vals["setup_s"] = median(setups)
	res.set(endToEnd, vals)
	res.notes = append(res.notes, win.unscaled())
	return res
}

// unscaled describes the host speed a window ran at and what its timings
// read before scaling, for a reader who wants the wall-clock figures.
func (w window) unscaled() string {
	var speeds, rates, cpu []float64
	for _, sl := range w.slices {
		speeds = append(speeds, sl.speed)
		rates = append(rates, float64(len(sl.load.samples))/sl.load.wall.Seconds())
		if sl.srvOps > 0 {
			cpu = append(cpu, float64(sl.srvCPUUs)/float64(sl.srvOps))
		}
	}
	sp := summarize(speeds)
	return fmt.Sprintf("host speed %.0f reference units per CPU-second (slices %.0f..%.0f, scaled to %.0f); unscaled medians: ops_per_s %.1f, srv_cpu_us_per_op %.1f",
		sp.Median, sp.Min, sp.Max, refSpeed, median(rates), median(cpu))
}
