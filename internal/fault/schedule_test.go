package fault

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every script the tests below parse; FuzzParseSchedule seeds from them.
const (
	grammarSchedule = `
	t=0s dev1 stall 10s              # wedge device 1
	t=5s dev0 drop 2s p=0.5 op=rsa; t=5s dev0 latency 1s d=3ms
	t=30s dev1 RESET-STORM n=4 gap=25ms
	t=40s dev2 ringfull 500ms p=0.25
	`
	durationSchedule = "t=1s dev0 stall 10s; t=5s dev1 reset-storm n=4 gap=1s; t=8s dev0 drop 2s"
	applySchedule    = "t=0s dev0 stall 60ms op=rsa; t=0s dev1 reset-storm n=3 gap=5ms"
	cancelSchedule   = "t=1h dev0 stall 1s"
)

var emptySchedules = []string{"", "  \n\t", "# nothing ; here\n# either"}

// TestParseSchedule pins the chaos grammar: statement separators (';' and
// newlines), comments, the bare-duration window, and every option key.
func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule(grammarSchedule)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: 0, Dev: 1, Action: ActStall, Dur: 10 * time.Second, P: 1, Op: AnyOp, Count: 3, Gap: 50 * time.Millisecond},
		{At: 5 * time.Second, Dev: 0, Action: ActDrop, Dur: 2 * time.Second, P: 0.5, Op: 0, Count: 3, Gap: 50 * time.Millisecond},
		{At: 5 * time.Second, Dev: 0, Action: ActLatency, Dur: time.Second, Latency: 3 * time.Millisecond, P: 1, Op: AnyOp, Count: 3, Gap: 50 * time.Millisecond},
		{At: 30 * time.Second, Dev: 1, Action: ActResetStorm, P: 1, Op: AnyOp, Count: 4, Gap: 25 * time.Millisecond},
		{At: 40 * time.Second, Dev: 2, Action: ActRingFull, Dur: 500 * time.Millisecond, P: 0.25, Op: AnyOp, Count: 3, Gap: 50 * time.Millisecond},
	}
	if len(s.Events) != len(want) {
		t.Fatalf("parsed %d events, want %d: %v", len(s.Events), len(want), s)
	}
	for i, w := range want {
		if s.Events[i] != w {
			t.Fatalf("event %d = %+v, want %+v", i, s.Events[i], w)
		}
	}

	// Rule mapping: window events become injector rules, storms do not.
	r, ok := s.Events[2].Rule()
	if !ok || r.Kind != Latency || r.Latency != 3*time.Millisecond || r.Endpoint != AnyEndpoint {
		t.Fatalf("latency event rule = %+v ok=%v", r, ok)
	}
	if _, ok := s.Events[3].Rule(); ok {
		t.Fatal("reset-storm must not map to an injector rule")
	}

	// String renders back in grammar form and re-parses to the same events.
	s2, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", s.String(), err)
	}
	for i := range want {
		if s2.Events[i] != want[i] {
			t.Fatalf("round-trip event %d = %+v, want %+v", i, s2.Events[i], want[i])
		}
	}
}

// TestParseScheduleEmpty: empty and comment-only scripts parse to the nil
// schedule, which Duration/String/Run/Apply all accept as a no-op.
func TestParseScheduleEmpty(t *testing.T) {
	for _, src := range emptySchedules {
		s, err := ParseSchedule(src)
		if err != nil || s != nil {
			t.Fatalf("ParseSchedule(%q) = %v, %v; want nil, nil", src, s, err)
		}
	}
	var s *Schedule
	if s.Duration() != 0 || s.String() != "" {
		t.Fatal("nil schedule must be quiet")
	}
	if err := s.Apply(context.Background(), nil, nil); err != nil {
		t.Fatalf("nil schedule Apply: %v", err)
	}
}

// scheduleErrorCases are malformed scripts and the problem each error
// message must name.
var scheduleErrorCases = []struct {
	src  string
	want string
}{
	{"dev1 stall 1s", "first token must be t="},
	{"t=1s stall", "want 't=<offset>"},
	{"t=nope dev1 stall 1s", "bad offset"},
	{"t=1s d1 stall 1s", "second token must be dev<N>"},
	{"t=1s dev-1 stall 1s", "bad device"},
	{"t=1s devx stall 1s", "bad device"},
	{"t=1s dev1 explode 1s", "unknown action"},
	{"t=1s dev1 stall", "needs a window duration"},
	{"t=1s dev1 stall 1s p=2", "probability"},
	{"t=1s dev1 stall 1s p=NaN", "probability"},
	{"t=1s dev1 stall 1s op=quantum", "unknown op"},
	{"t=1s dev1 stall 1s foo=bar", "unknown option"},
	{"t=1s dev1 latency 1s", "needs d=<delay>"},
	{"t=1s dev1 reset-storm 5s", "n=/gap= options"},
	{"t=1s dev1 reset-storm n=0", "n>=1"},
	{"t=5s dev1 stall 1s; t=1s dev0 stall 1s", "time order"},
}

// TestParseScheduleErrors pins rejection of malformed scripts with a
// message naming the problem.
func TestParseScheduleErrors(t *testing.T) {
	for _, c := range scheduleErrorCases {
		_, err := ParseSchedule(c.src)
		if err == nil {
			t.Fatalf("ParseSchedule(%q) accepted", c.src)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ParseSchedule(%q) error %q, want substring %q", c.src, err, c.want)
		}
	}
}

// TestScheduleDuration: the quiet point is the latest window close,
// counting a storm's full burst as its window.
func TestScheduleDuration(t *testing.T) {
	s, err := ParseSchedule(durationSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Duration(), 11*time.Second; got != want {
		t.Fatalf("Duration = %v, want %v", got, want)
	}
}

// TestScheduleApply replays a fast schedule against a real injector: the
// stall rule is installed for exactly its window, the storm fires its
// reset burst through the callback, and Apply blocks until both finish.
func TestScheduleApply(t *testing.T) {
	s, err := ParseSchedule(applySchedule)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(1)
	var mu sync.Mutex
	resets := map[int]int{}

	windowSeen := make(chan struct{})
	go func() {
		defer close(windowSeen)
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if len(inj.Rules()) == 1 && inj.AtService(0, 0).Stall {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	start := time.Now()
	err = s.Apply(context.Background(),
		func(dev int) *Injector {
			if dev == 0 {
				return inj
			}
			return nil
		},
		func(dev int) {
			mu.Lock()
			resets[dev]++
			mu.Unlock()
		})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("Apply returned after %v, before the stall window closed", elapsed)
	}
	<-windowSeen
	if len(inj.Rules()) != 0 {
		t.Fatalf("stall rule still installed after its window: %v", inj.Rules())
	}
	if inj.AtService(0, 0).Stall {
		t.Fatal("injector still stalling after the window closed")
	}
	mu.Lock()
	defer mu.Unlock()
	if resets[1] != 3 || len(resets) != 1 {
		t.Fatalf("reset bursts %v, want dev1 reset 3 times", resets)
	}
}

// TestScheduleRunCancel: a cancelled context aborts the replay before
// far-future events fire.
func TestScheduleRunCancel(t *testing.T) {
	s, err := ParseSchedule(cancelSchedule)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := s.Run(ctx, func(Event) { t.Error("far-future event fired") }); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Run did not abort promptly")
	}
}

// FuzzParseSchedule feeds operator bytes to the chaos grammar: parsing
// never panics, and a script that parses renders back (String) to a
// script that parses and renders the same again.
func FuzzParseSchedule(f *testing.F) {
	seeds := []string{grammarSchedule, durationSchedule, applySchedule, cancelSchedule,
		// The chaos soak's schedules and README's -chaos examples.
		"t=0ms dev1 stall 700ms",
		"t=0ms dev1 reset-storm n=4 gap=30ms",
		"t=5s dev1 stall 10s; t=30s dev0 reset-storm n=4 gap=50ms",
		"t=5s dev1 stall 10s",
		"t=2s dev1 stall 3s",
	}
	seeds = append(seeds, emptySchedules...)
	for _, c := range scheduleErrorCases {
		seeds = append(seeds, c.src)
	}
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseSchedule(src)
		if err != nil {
			return
		}
		if s == nil {
			return // an empty script
		}
		s.Duration()
		for _, e := range s.Events {
			if !(e.P >= 0 && e.P <= 1) {
				t.Fatalf("ParseSchedule(%q) accepted probability %v", src, e.P)
			}
		}
		text := s.String()
		again, err := ParseSchedule(text)
		if err != nil {
			t.Fatalf("ParseSchedule(%q) parsed, its rendering %q does not: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("ParseSchedule(%q) renders %q, which re-renders as %q", src, text, got)
		}
	})
}
