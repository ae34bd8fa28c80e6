package engine

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"qtls/internal/asynclib"
	"qtls/internal/fault"
	"qtls/internal/minitls"
	"qtls/internal/qat"
)

// driveOp runs one offloaded op to its end in the given pause mode, playing
// the part of the caller that mode expects: nothing for straight offload,
// the event loop that polls and resumes the paused job for fiber, the loop
// that polls and re-enters Do for stack. With cancel set it abandons the op
// as soon as it has parked (OpCall.Cancelled, as Conn.CancelAsync does).
func driveOp(t *testing.T, e *Engine, mode minitls.AsyncMode, work func() (any, error), cancel bool) (any, error) {
	t.Helper()
	giveUp := time.Now().Add(10 * time.Second)
	turn := func(call *minitls.OpCall) {
		if time.Now().After(giveUp) {
			t.Fatal("op never finished")
		}
		if cancel {
			call.Cancelled = true
			return
		}
		e.Poll(0)
		time.Sleep(200 * time.Microsecond)
	}
	switch mode {
	case minitls.AsyncModeFiber:
		call := &minitls.OpCall{Mode: mode}
		var res any
		var doErr error
		status, job, err := asynclib.StartJob(nil, func(j *asynclib.Job) error {
			call.Job = j
			res, doErr = e.Do(call, minitls.KindRSA, work)
			return nil
		})
		for ; err == nil && status == asynclib.StatusPause; status, _, err = asynclib.StartJob(job, nil) {
			turn(call)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, doErr
	case minitls.AsyncModeStack:
		call := &minitls.OpCall{Mode: mode, Stack: &asynclib.StackOp{}}
		for {
			res, err := e.Do(call, minitls.KindRSA, work)
			if !errors.Is(err, minitls.ErrWantAsync) && !errors.Is(err, minitls.ErrWantAsyncRetry) {
				if s := call.Stack.State(); s != asynclib.StackIdle {
					t.Fatalf("stack state = %v after the op ended; it must be reusable", s)
				}
				return res, err
			}
			turn(call)
		}
	default:
		return e.Do(&minitls.OpCall{Mode: mode}, minitls.KindRSA, work)
	}
}

// TestFaultLadder drives every rung of the degradation ladder through each
// of the three pause strategies and pins the engine counters after it: the
// strategies share submitPath and the result epilogue, so a rung must cost
// the same submissions, retries and fallbacks whichever way the op waits.
// After every rung the device is healthy again, and one more op must
// offload normally — nothing (ring slot, in-flight count, stack-op entry)
// is left behind.
func TestFaultLadder(t *testing.T) {
	want := []byte("good-signature")
	work := func() (any, error) { return bytes.Clone(want), nil }
	allModes := []minitls.AsyncMode{minitls.AsyncModeOff, minitls.AsyncModeFiber, minitls.AsyncModeStack}
	rule := func(k fault.Kind, limit int) fault.Rule {
		return fault.Rule{Kind: k, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1, Limit: limit}
	}
	rows := []struct {
		name    string
		rule    fault.Rule
		cfg     Config
		modes   []minitls.AsyncMode
		cancel  bool
		wantErr error
		stats   Stats
	}{
		{
			name: "ring-full then drain", rule: rule(fault.RingFull, 3), modes: allModes,
			stats: Stats{Submitted: 1, Retrieved: 1, RingFulls: 3},
		},
		{
			name: "reset then retry succeeds", rule: rule(fault.Reset, 1), modes: allModes,
			cfg:   Config{MaxRetries: 2},
			stats: Stats{Submitted: 1, Retrieved: 1, Retries: 1},
		},
		{
			name: "corrupt then retries then software", rule: rule(fault.Corrupt, 3), modes: allModes,
			cfg:   Config{MaxRetries: 2, RetryBackoff: 100 * time.Microsecond},
			stats: Stats{Submitted: 3, Retrieved: 3, Retries: 2, VerifyFails: 3, SWFallbacks: 1},
		},
		{
			name: "stall then timeout then software", rule: rule(fault.Stall, 1), modes: allModes,
			cfg:   Config{OpTimeout: 10 * time.Millisecond},
			stats: Stats{Submitted: 1, Timeouts: 1, SWFallbacks: 1},
		},
		{
			name: "cancel mid-flight", rule: rule(fault.Stall, 1), cancel: true, wantErr: ErrCancelled,
			modes: []minitls.AsyncMode{minitls.AsyncModeFiber, minitls.AsyncModeStack},
			stats: Stats{Submitted: 1, Cancels: 1},
		},
	}
	for _, row := range rows {
		for _, mode := range row.modes {
			t.Run(row.name+"/"+mode.String(), func(t *testing.T) {
				cfg := row.cfg
				cfg.Verify = func(_ minitls.OpKind, result any) bool {
					b, ok := result.([]byte)
					return ok && bytes.Equal(b, want)
				}
				e, _ := hardenedEngine(t, qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1},
					fault.NewInjector(1, row.rule), cfg)
				check := func(when string, st Stats) {
					t.Helper()
					got := e.Stats()
					got.Polls, got.PollsEmpty = 0, 0 // how often the driver polled is not the engine's doing
					if got != st {
						t.Fatalf("%s: stats = %+v, want %+v", when, got, st)
					}
					if n := e.InflightTotal(); n != 0 {
						t.Fatalf("%s: inflight = %d", when, n)
					}
				}
				res, err := driveOp(t, e, mode, work, row.cancel)
				if !errors.Is(err, row.wantErr) {
					t.Fatalf("Do err = %v, want %v", err, row.wantErr)
				}
				if err == nil && !bytes.Equal(res.([]byte), want) {
					t.Fatalf("Do = %q: a corrupted or missing result reached the caller", res)
				}
				check("after the fault", row.stats)

				res, err = driveOp(t, e, mode, work, false)
				if err != nil || !bytes.Equal(res.([]byte), want) {
					t.Fatalf("healthy follow-up = %q, %v", res, err)
				}
				after := row.stats
				after.Submitted++
				after.Retrieved++
				check("after the healthy follow-up", after)
			})
		}
	}
}

// TestRecycledAttemptIgnoresLateCallback: an op abandoned at its deadline
// leaves its callback with the device, and the response arrives while
// later ops — on recycled attempts — wait for theirs. The late callback
// must lose its CAS against the abandoned attempt and touch nothing else:
// every later op gets its own result, and every submission settles once,
// by its response or by its deadline (run under -race). A healthy op that
// a loaded host delays past the deadline is one more such case.
func TestRecycledAttemptIgnoresLateCallback(t *testing.T) {
	for _, mode := range []minitls.AsyncMode{minitls.AsyncModeOff, minitls.AsyncModeFiber, minitls.AsyncModeStack} {
		t.Run(mode.String(), func(t *testing.T) {
			late := fault.Rule{Kind: fault.Latency, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1, Limit: 1,
				Latency: 100 * time.Millisecond}
			e, _ := hardenedEngine(t, qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 2},
				fault.NewInjector(1, late), Config{OpTimeout: 10 * time.Millisecond})
			inst := e.Instances()[0]
			if res, err := driveOp(t, e, mode, func() (any, error) { return -1, nil }, false); err != nil || res != -1 {
				t.Fatalf("abandoned op = %v, %v; want the software result -1", res, err)
			}
			if st := e.Stats(); st.Timeouts != 1 || st.SWFallbacks != 1 {
				t.Fatalf("after the abandoned op: %+v, want one timeout and one fallback", st)
			}
			// At least 1 000 healthy ops, and on until the late response has
			// been retrieved by one of their polls.
			ops := 0
			for ; ops < 1000 || inst.Inflight() > 0; ops++ {
				if ops > 100000 {
					t.Fatal("the late response never arrived")
				}
				want := ops
				res, err := driveOp(t, e, mode, func() (any, error) { return want, nil }, false)
				if err != nil || res != want {
					t.Fatalf("op %d = %v, %v; want its own result", ops, res, err)
				}
			}
			st := e.Stats()
			if st.Submitted != int64(ops)+1 || st.Retrieved+st.Timeouts != st.Submitted || st.SWFallbacks != st.Timeouts {
				t.Fatalf("stats = %+v after %d ops: want every submission settled once", st, ops+1)
			}
			if n := e.InflightTotal(); n != 0 {
				t.Fatalf("inflight = %d: the late callback settled a counter", n)
			}
		})
	}
}
