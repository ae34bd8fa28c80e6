package asynclib

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"
)

func TestJobRunsToCompletion(t *testing.T) {
	ran := false
	st, job, err := StartJob(nil, func(*Job) error {
		ran = true
		return nil
	})
	if st != StatusFinish || err != nil {
		t.Fatalf("StartJob = %v, %v", st, err)
	}
	if !ran {
		t.Fatal("job function did not run")
	}
	if !job.Finished() {
		t.Fatal("Finished = false")
	}
}

func TestJobErrorPropagates(t *testing.T) {
	sentinel := errors.New("bad")
	st, job, err := StartJob(nil, func(*Job) error { return sentinel })
	if st != StatusFinish {
		t.Fatalf("status = %v", st)
	}
	if !errors.Is(err, sentinel) || !errors.Is(job.Err(), sentinel) {
		t.Fatalf("err = %v / %v", err, job.Err())
	}
}

func TestPauseAndResume(t *testing.T) {
	var trace []string
	st, job, err := StartJob(nil, func(j *Job) error {
		trace = append(trace, "start")
		if err := j.Pause(); err != nil {
			return err
		}
		trace = append(trace, "resumed")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusPause {
		t.Fatalf("status = %v, want pause", st)
	}
	if len(trace) != 1 || trace[0] != "start" {
		t.Fatalf("trace = %v", trace)
	}
	st, _, err = StartJob(job, nil)
	if st != StatusFinish || err != nil {
		t.Fatalf("resume = %v, %v", st, err)
	}
	if len(trace) != 2 || trace[1] != "resumed" {
		t.Fatalf("trace = %v", trace)
	}
}

func TestMultiplePauses(t *testing.T) {
	const pauses = 10
	count := 0
	st, job, err := StartJob(nil, func(j *Job) error {
		for i := 0; i < pauses; i++ {
			count++
			if err := j.Pause(); err != nil {
				return err
			}
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resumes := 0
	for st == StatusPause {
		resumes++
		st, _, err = StartJob(job, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if resumes != pauses {
		t.Fatalf("resumes = %d, want %d", resumes, pauses)
	}
	if count != pauses+1 {
		t.Fatalf("count = %d", count)
	}
}

func TestResumeFinishedJobFails(t *testing.T) {
	_, job, _ := StartJob(nil, func(*Job) error { return nil })
	st, _, err := StartJob(job, nil)
	if st != StatusErr || !errors.Is(err, ErrJobFinished) {
		t.Fatalf("resume finished = %v, %v", st, err)
	}
}

func TestStartJobNilFn(t *testing.T) {
	st, _, err := StartJob(nil, nil)
	if st != StatusErr || err == nil {
		t.Fatalf("StartJob(nil,nil) = %v, %v", st, err)
	}
}

func TestPauseOutsideJob(t *testing.T) {
	var j *Job
	if err := j.Pause(); !errors.Is(err, ErrNotInJob) {
		t.Fatalf("err = %v, want ErrNotInJob", err)
	}
}

func TestManyInterleavedJobs(t *testing.T) {
	// Simulates the event-driven worker: many connections' jobs paused and
	// resumed in arbitrary (here round-robin) order in one goroutine.
	const n = 50
	jobs := make([]*Job, n)
	progress := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		st, job, err := StartJob(nil, func(j *Job) error {
			for step := 0; step < 3; step++ {
				progress[i]++
				if err := j.Pause(); err != nil {
					return err
				}
			}
			progress[i]++
			return nil
		})
		if err != nil || st != StatusPause {
			t.Fatalf("job %d start: %v %v", i, st, err)
		}
		jobs[i] = job
	}
	active := n
	for active > 0 {
		for i := 0; i < n; i++ {
			if jobs[i] == nil {
				continue
			}
			st, _, err := StartJob(jobs[i], nil)
			if err != nil {
				t.Fatal(err)
			}
			if st == StatusFinish {
				jobs[i] = nil
				active--
			}
		}
	}
	for i, p := range progress {
		if p != 4 {
			t.Fatalf("job %d progress = %d, want 4", i, p)
		}
	}
}

func TestWaitCtxFD(t *testing.T) {
	w := NewWaitCtx()
	if _, ok := w.FD(); ok {
		t.Fatal("new wait ctx should have no FD")
	}
	w.SetFD(7)
	fd, ok := w.FD()
	if !ok || fd != 7 {
		t.Fatalf("FD = %d, %v", fd, ok)
	}
	w.ClearFD()
	if _, ok := w.FD(); ok {
		t.Fatal("FD should be cleared")
	}
}

func TestWaitCtxCallback(t *testing.T) {
	w := NewWaitCtx()
	if w.Notify() {
		t.Fatal("Notify without callback should report false")
	}
	var got any
	w.SetCallback(func(arg any) { got = arg }, "handler-info")
	cb, arg, ok := w.Callback()
	if !ok || cb == nil || arg != "handler-info" {
		t.Fatalf("Callback = (cb nil: %v) %v %v", cb == nil, arg, ok)
	}
	if !w.Notify() {
		t.Fatal("Notify should fire")
	}
	if got != "handler-info" {
		t.Fatalf("callback arg = %v", got)
	}
}

func TestJobWaitCtxLazyInit(t *testing.T) {
	_, job, _ := StartJob(nil, func(j *Job) error { return j.Pause() })
	w1 := job.WaitCtx()
	w2 := job.WaitCtx()
	if w1 == nil || w1 != w2 {
		t.Fatal("WaitCtx should be stable")
	}
	StartJob(job, nil)
}

func TestStatusStrings(t *testing.T) {
	if StatusFinish.String() != "ASYNC_FINISH" ||
		StatusPause.String() != "ASYNC_PAUSE" ||
		StatusErr.String() != "ASYNC_ERR" {
		t.Fatal("unexpected status names")
	}
	if Status(9).String() == "" {
		t.Fatal("unknown status should still render")
	}
}

func TestStackOpLifecycle(t *testing.T) {
	var op StackOp
	if op.State() != StackIdle {
		t.Fatalf("initial state = %v", op.State())
	}
	op.MarkInflight()
	if op.State() != StackInflight {
		t.Fatalf("state = %v", op.State())
	}
	op.MarkReady(42, nil)
	if op.State() != StackReady {
		t.Fatalf("state = %v", op.State())
	}
	res, err := op.Consume()
	if res != 42 || err != nil {
		t.Fatalf("Consume = %v, %v", res, err)
	}
	if op.State() != StackIdle {
		t.Fatalf("state after consume = %v", op.State())
	}
}

func TestStackOpRetryPath(t *testing.T) {
	var op StackOp
	op.MarkRetry()
	if op.State() != StackRetry {
		t.Fatalf("state = %v", op.State())
	}
	op.MarkRetry() // retry can repeat
	op.MarkInflight()
	op.MarkReady(nil, errors.New("x"))
	if _, err := op.Consume(); err == nil {
		t.Fatal("expected error")
	}
}

func TestStackOpInvalidTransitionsPanic(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*StackOp)
	}{
		{"ready without inflight", func(o *StackOp) { o.MarkReady(nil, nil) }},
		{"consume idle", func(o *StackOp) { o.Consume() }},
		{"inflight twice", func(o *StackOp) { o.MarkInflight(); o.MarkInflight() }},
		{"retry while inflight", func(o *StackOp) { o.MarkInflight(); o.MarkRetry() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			var op StackOp
			tc.fn(&op)
		})
	}
}

func TestStackOpReset(t *testing.T) {
	var op StackOp
	op.MarkInflight()
	op.MarkReady("r", nil)
	op.Reset()
	if op.State() != StackIdle {
		t.Fatalf("state = %v", op.State())
	}
	// After reset the op is reusable.
	op.MarkInflight()
	op.MarkReady("s", nil)
	if res, _ := op.Consume(); res != "s" {
		t.Fatalf("res = %v", res)
	}
}

// Property: for any sequence of pause counts, driving jobs to completion
// takes exactly pauses+1 StartJob calls.
func TestJobDriveCountProperty(t *testing.T) {
	f := func(pausesRaw uint8) bool {
		pauses := int(pausesRaw % 20)
		st, job, err := StartJob(nil, func(j *Job) error {
			for i := 0; i < pauses; i++ {
				if err := j.Pause(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return false
		}
		calls := 1
		for st == StatusPause {
			st, _, err = StartJob(job, nil)
			if err != nil {
				return false
			}
			calls++
		}
		return calls == pauses+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStackStateStrings(t *testing.T) {
	want := map[StackState]string{StackIdle: "idle", StackInflight: "inflight", StackReady: "ready", StackRetry: "retry"}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("String(%d) = %q", int32(s), s.String())
		}
	}
	if StackState(12).String() == "" {
		t.Fatal("unknown state should render")
	}
}

func TestJobStats(t *testing.T) {
	before := Stats()
	status, job, err := StartJob(nil, func(j *Job) error {
		if err := j.Pause(); err != nil {
			return err
		}
		return j.Pause()
	})
	if status != StatusPause || err != nil {
		t.Fatalf("first start: %v %v", status, err)
	}
	for i := 0; i < 2; i++ {
		status, _, err = StartJob(job, nil)
		if err != nil {
			t.Fatalf("resume %d: %v", i, err)
		}
	}
	if status != StatusFinish {
		t.Fatalf("final status = %v", status)
	}
	d := Stats()
	got := JobStats{
		Started:  d.Started - before.Started,
		Paused:   d.Paused - before.Paused,
		Resumed:  d.Resumed - before.Resumed,
		Finished: d.Finished - before.Finished,
	}
	want := JobStats{Started: 1, Paused: 2, Resumed: 2, Finished: 1}
	if got != want {
		t.Fatalf("stats delta = %+v, want %+v", got, want)
	}
}

func idleFibers() int {
	idle.Lock()
	defer idle.Unlock()
	return len(idle.fibers)
}

// TestFiberReuse: sequential jobs all run on one pooled fiber, not on a
// goroutine each, and a Job handle is not its fiber: a finished Job keeps
// its error while the fiber that ran it runs other jobs.
func TestFiberReuse(t *testing.T) {
	base, idleBefore := runtime.NumGoroutine(), idleFibers()
	sentinel := errors.New("first job's error")
	_, first, _ := StartJob(nil, func(j *Job) error {
		if err := j.Pause(); err != nil {
			return err
		}
		return sentinel
	})
	if st, _, err := StartJob(first, nil); st != StatusFinish || !errors.Is(err, sentinel) {
		t.Fatalf("first job: %v %v", st, err)
	}
	before := Stats()
	peak := 0
	for i := 0; i < 10000; i++ {
		st, job, err := StartJob(nil, func(j *Job) error { return j.Pause() })
		if st != StatusPause || err != nil {
			t.Fatalf("job %d start: %v %v", i, st, err)
		}
		peak = max(peak, runtime.NumGoroutine())
		if st, _, err := StartJob(job, nil); st != StatusFinish || err != nil {
			t.Fatalf("job %d resume: %v %v", i, st, err)
		}
	}
	if peak > base+1 {
		t.Errorf("%d goroutines while running 10000 sequential jobs, base %d", peak, base)
	}
	if n := idleFibers(); n < 1 || n > idleBefore+1 {
		t.Errorf("%d idle fibers after 10000 sequential jobs (%d before): they did not share one", n, idleBefore)
	}
	if !first.Finished() || !errors.Is(first.Err(), sentinel) {
		t.Errorf("first job after its fiber ran 10000 others: finished=%v err=%v", first.Finished(), first.Err())
	}
	if st, _, err := StartJob(first, nil); st != StatusErr || !errors.Is(err, ErrJobFinished) {
		t.Errorf("resuming the finished first job: %v %v", st, err)
	}
	d := Stats()
	got := JobStats{d.Started - before.Started, d.Paused - before.Paused, d.Resumed - before.Resumed, d.Finished - before.Finished}
	if want := (JobStats{10000, 10000, 10000, 10000}); got != want {
		t.Errorf("stats delta = %+v, want %+v", got, want)
	}
}

// TestFiberPoolBounded: a burst of concurrently paused jobs beyond the idle
// cap gets a fiber each, and once they have finished at most the cap stays
// behind — the surplus fibers' goroutines exit.
func TestFiberPoolBounded(t *testing.T) {
	base := runtime.NumGoroutine()
	const burst = maxIdleFibers + 40
	jobs := make([]*Job, burst)
	for i := range jobs {
		st, job, err := StartJob(nil, func(j *Job) error { return j.Pause() })
		if st != StatusPause || err != nil {
			t.Fatalf("job %d start: %v %v", i, st, err)
		}
		jobs[i] = job
	}
	if n := runtime.NumGoroutine(); n < burst {
		t.Fatalf("%d goroutines with %d jobs paused", n, burst)
	}
	for i, job := range jobs {
		if st, _, err := StartJob(job, nil); st != StatusFinish || err != nil {
			t.Fatalf("job %d resume: %v %v", i, st, err)
		}
	}
	if n := runtime.NumGoroutine(); n > base+maxIdleFibers {
		t.Errorf("%d goroutines after the burst, want <= base %d + cap %d", n, base, maxIdleFibers)
	}
	if n := idleFibers(); n != maxIdleFibers {
		t.Errorf("%d idle fibers after a burst of %d, want the cap %d", n, burst, maxIdleFibers)
	}
	// The kept fibers still work.
	ran := 0
	for i := 0; i < burst; i++ {
		StartJob(nil, func(*Job) error { ran++; return nil })
	}
	if ran != burst {
		t.Errorf("%d of %d jobs ran after the burst", ran, burst)
	}
}

// TestPauseOnUnstartedJob: Pause is only meaningful on a fiber.
func TestPauseOnUnstartedJob(t *testing.T) {
	var j Job
	if err := j.Pause(); !errors.Is(err, ErrNotInJob) {
		t.Fatalf("Pause on a zero Job = %v, want ErrNotInJob", err)
	}
	// The zero Job is an unstarted job, and may be reset and reused.
	for i := 0; i < 2; i++ {
		j = Job{}
		if st, got, err := StartJob(&j, func(*Job) error { return nil }); st != StatusFinish || got != &j || err != nil {
			t.Fatalf("run %d: %v %v", i, st, err)
		}
	}
}
