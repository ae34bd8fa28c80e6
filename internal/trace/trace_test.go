package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTraceRecordAndRecent(t *testing.T) {
	r := NewRecorder(16)
	r.SetEnabled(true)
	b := r.Buffer(3)
	base := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		b.Record(PhasePre, Op(0), TagNone, int64(100+i), base.Add(time.Duration(i)*time.Millisecond), time.Microsecond*time.Duration(i+1))
	}
	spans := r.Recent(0)
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	for i, s := range spans {
		if s.Phase != PhasePre || s.Op != Op(0) || s.Worker != 3 {
			t.Fatalf("span %d decoded wrong: %+v", i, s)
		}
		if s.Arg != int64(100+i) {
			t.Fatalf("span %d arg = %d (spans not in start order)", i, s.Arg)
		}
		if s.Dur != int64(time.Microsecond)*int64(i+1) {
			t.Fatalf("span %d dur = %d", i, s.Dur)
		}
	}
	if got := r.Recent(2); len(got) != 2 || got[1].Arg != 104 {
		t.Fatalf("Recent(2) = %+v, want the 2 newest", got)
	}
	if r.Count() != 5 {
		t.Fatalf("Count = %d", r.Count())
	}
}

func TestTraceRingOverwritesOldest(t *testing.T) {
	r := NewRecorder(8)
	r.SetEnabled(true)
	b := r.Buffer(0)
	for i := 0; i < 20; i++ {
		b.Record(PhasePoll, OpNone, TagHeuristic, int64(i), time.Unix(0, int64(i)), 0)
	}
	spans := r.Recent(0)
	if len(spans) != 8 {
		t.Fatalf("retained %d spans, want ring size 8", len(spans))
	}
	if spans[0].Arg != 12 || spans[7].Arg != 19 {
		t.Fatalf("ring kept wrong window: first=%d last=%d", spans[0].Arg, spans[7].Arg)
	}
	if r.Count() != 20 {
		t.Fatalf("Count = %d, want total recorded", r.Count())
	}
}

func TestTraceDisabledAndNilAreInert(t *testing.T) {
	r := NewRecorder(8)
	b := r.Buffer(0)
	if b.Active() {
		t.Fatal("buffer active before enable")
	}
	b.Record(PhasePre, OpNone, TagNone, 0, time.Now(), 0)
	if r.Count() != 0 {
		t.Fatal("disabled recorder kept a span")
	}

	var nilBuf *Buffer
	if nilBuf.Active() {
		t.Fatal("nil buffer active")
	}
	nilBuf.Record(PhasePre, OpNone, TagNone, 0, time.Now(), 0) // must not panic

	var nilRec *Recorder
	nilRec.SetEnabled(true)
	if nilRec.Buffer(0) != nil || nilRec.Recent(1) != nil || nilRec.Count() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

// The disabled span path must not allocate — the opt-out-cheap
// guarantee the server relies on to leave instrumentation compiled in.
func TestTraceDisabledRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(8)
	b := r.Buffer(0)
	now := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		b.Record(PhaseRetrieve, Op(0), TagNone, 7, now, time.Microsecond)
	}); n != 0 {
		t.Fatalf("disabled Record allocates %v times per call", n)
	}
	r.SetEnabled(true)
	if n := testing.AllocsPerRun(1000, func() {
		b.Record(PhaseRetrieve, Op(0), TagNone, 7, now, time.Microsecond)
	}); n != 0 {
		t.Fatalf("enabled Record allocates %v times per call", n)
	}
}

// Concurrent writers on their own buffers plus a reader merging them:
// exercised under -race; torn slots must be skipped, not corrupted.
func TestTraceConcurrentRecordAndSnapshot(t *testing.T) {
	r := NewRecorder(64)
	r.SetEnabled(true)
	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		b := r.Buffer(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b.Record(PhaseRetrieve, Op(uint8(i%5)), TagNone, int64(i), time.Now(), time.Nanosecond)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		for _, s := range r.Recent(0) {
			if s.Phase != PhaseRetrieve || int(s.Worker) >= workers || int(s.Op) >= 5 {
				t.Errorf("corrupt span read: %+v", s)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestTraceSpanJSON(t *testing.T) {
	s := Span{Start: 123, Dur: 456, Phase: PhaseNotify, Op: OpNone, Tag: TagHeuristic, Worker: 2, Arg: 9}
	out, err := json.Marshal([]Span{s})
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("span JSON does not round-trip: %v\n%s", err, out)
	}
	for _, want := range []string{`"phase":"notify"`, `"op":"none"`, `"tag":"heuristic"`, `"dur_ns":456`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("JSON missing %s: %s", want, out)
		}
	}
}

func TestTraceNames(t *testing.T) {
	if PhasePre.String() != "pre" || PhaseRetrieve.String() != "retrieve" ||
		PhaseNotify.String() != "notify" || PhasePost.String() != "post" ||
		PhasePoll.String() != "poll" {
		t.Fatal("phase names")
	}
	if TagFD.String() != "fd" || TagKernelBypass.String() != "kernel-bypass" || TagDrain.String() != "drain" {
		t.Fatal("tag names")
	}
	if Phase(99).String() == "" || Op(99).String() == "" || Tag(99).String() == "" {
		t.Fatal("unknown value rendering")
	}
	if Op(0).String() != "rsa" || Op(4).String() != "cipher" || OpNone.String() != "none" {
		t.Fatal("op names")
	}
	if len(OffloadPhases()) != 4 {
		t.Fatal("want 4 offload phases")
	}
	if got := PhaseSeriesName(PhasePre); got != `qtls_phase_ns{phase="pre"}` {
		t.Fatalf("series name = %s", got)
	}
}

func TestTraceSubscribeSeesCommittedSpans(t *testing.T) {
	r := NewRecorder(16)
	r.SetEnabled(true)
	var got []Span
	r.Subscribe(func(s Span) { got = append(got, s) })
	b := r.Buffer(2)
	base := time.Unix(2000, 0)
	b.Record(PhaseRetrieve, Op(1), TagRetry, 42, base, 3*time.Microsecond)
	if len(got) != 1 {
		t.Fatalf("hook saw %d spans, want 1", len(got))
	}
	s := got[0]
	if s.Phase != PhaseRetrieve || s.Op != Op(1) || s.Tag != TagRetry ||
		s.Worker != 2 || s.Arg != 42 || s.Dur != int64(3*time.Microsecond) ||
		s.Start != base.UnixNano() {
		t.Fatalf("hook span decoded wrong: %+v", s)
	}

	// A disabled recorder must not invoke the hook.
	r.SetEnabled(false)
	b.Record(PhasePre, Op(0), TagNone, 0, base, time.Microsecond)
	if len(got) != 1 {
		t.Fatal("hook fired while recorder disabled")
	}

	// Detach: spans keep flowing into the ring but not the hook.
	r.SetEnabled(true)
	r.Subscribe(nil)
	b.Record(PhasePre, Op(0), TagNone, 0, base, time.Microsecond)
	if len(got) != 1 {
		t.Fatal("hook fired after Subscribe(nil)")
	}

	var nilRec *Recorder
	nilRec.Subscribe(func(Span) {}) // must not panic
}

// A non-allocating subscriber must keep the enabled record path at zero
// allocations — flight's span hook depends on the span arriving by
// value.
func TestTraceSubscribedRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(8)
	var sink atomic.Int64
	r.Subscribe(func(s Span) { sink.Add(s.Dur) })
	b := r.Buffer(0)
	now := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		b.Record(PhaseRetrieve, Op(0), TagNone, 7, now, time.Microsecond)
	}); n != 0 {
		t.Fatalf("disabled Record with subscriber allocates %v times per call", n)
	}
	r.SetEnabled(true)
	if n := testing.AllocsPerRun(1000, func() {
		b.Record(PhaseRetrieve, Op(0), TagNone, 7, now, time.Microsecond)
	}); n != 0 {
		t.Fatalf("enabled Record with subscriber allocates %v times per call", n)
	}
	if sink.Load() == 0 {
		t.Fatal("subscriber never ran")
	}
}

func BenchmarkRecordDisabled(b *testing.B) {
	r := NewRecorder(4096)
	buf := r.Buffer(0)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Record(PhasePre, Op(0), TagNone, int64(i), now, time.Microsecond)
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	r := NewRecorder(4096)
	r.SetEnabled(true)
	buf := r.Buffer(0)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Record(PhasePre, Op(0), TagNone, int64(i), now, time.Microsecond)
	}
}

func BenchmarkRecordSubscribed(b *testing.B) {
	r := NewRecorder(4096)
	r.SetEnabled(true)
	var sink atomic.Int64
	r.Subscribe(func(s Span) { sink.Add(s.Dur) })
	buf := r.Buffer(0)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Record(PhasePre, Op(0), TagNone, int64(i), now, time.Microsecond)
	}
}
