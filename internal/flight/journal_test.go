package flight

import (
	"sync"
	"testing"
	"time"

	"qtls/internal/metrics"
	"qtls/internal/trace"
)

// Concurrent writers on their own journals plus readers merging and
// dumping them: exercised under -race; torn slots must be skipped, not
// corrupted.
func TestFlightConcurrentNoteAndSnapshot(t *testing.T) {
	r, _ := newTestRecorder(Config{})
	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		j := r.Journal(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				j.Note(KindShed, uint8(i%2), trace.OpNone, 0, int64(i))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		for _, e := range r.Events(0) {
			if e.Kind != KindShed || int(e.Worker) >= workers || e.Code > 1 {
				t.Errorf("corrupt event read: %+v", e)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// An incident floods a worker's journal with data-plane events (every
// span of a stalled device is a slow span); the control-plane decisions
// taken about it — here one re-home and one drain step, noted before the
// flood — must still be in the dump afterwards.
func TestJournalControlPlaneSurvivesDataFlood(t *testing.T) {
	r := New(Config{})
	tr := trace.NewRecorder(64)
	tr.SetEnabled(true)
	AttachTrace(tr, metrics.NewRegistry(), r)
	j := r.Journal(1)
	j.Note(KindPlacement, PlacementAsym, trace.OpNone, 1, 0)
	j.Note(KindDrain, DrainStart, trace.OpNone, 0, 3)
	buf := tr.Buffer(1)
	start := time.Now()
	for i := 0; i < 10*journalSize; i++ {
		buf.Record(trace.PhaseRetrieve, trace.Op(0), trace.TagNone, int64(i), start, 5*time.Millisecond)
		j.Note(KindFallback, FallbackTimeout, trace.OpNone, 0, int64(i))
	}
	kinds := map[Kind]int{}
	for _, e := range r.Events(0) {
		kinds[e.Kind]++
	}
	if kinds[KindPlacement] != 1 || kinds[KindDrain] != 1 {
		t.Fatalf("control-plane events evicted by data-plane volume: %v", kinds)
	}
	if kinds[KindSlowSpan]+kinds[KindFallback] != journalSize {
		t.Fatalf("data ring holds %d events, want its %d newest: %v", kinds[KindSlowSpan]+kinds[KindFallback], journalSize, kinds)
	}
}

// The off-path cost the CI bench guard enforces: a nil journal is one
// branch, no allocations.
func BenchmarkNoteDisabled(b *testing.B) {
	var j *Journal
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Note(KindShed, ShedAccept, trace.OpNone, 0, int64(i))
	}
}

func BenchmarkNoteEnabled(b *testing.B) {
	r := New(Config{})
	j := r.Journal(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Note(KindShed, ShedAccept, trace.OpNone, 0, int64(i))
	}
}

// The span fan-out without a flight recorder (tracing alone) feeds only
// the lifetime histograms.
func BenchmarkSpanHookDisabled(b *testing.B) {
	tr := trace.NewRecorder(4096)
	tr.SetEnabled(true)
	AttachTrace(tr, metrics.NewRegistry(), nil)
	buf := tr.Buffer(0)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Record(trace.PhaseRetrieve, trace.Op(0), trace.TagNone, int64(i), now, time.Microsecond)
	}
}

func BenchmarkSpanHookEnabled(b *testing.B) {
	r := New(Config{})
	tr := trace.NewRecorder(4096)
	tr.SetEnabled(true)
	AttachTrace(tr, metrics.NewRegistry(), r)
	buf := tr.Buffer(0)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// 5 ms spans take the full path: windows + journal.
		buf.Record(trace.PhaseRetrieve, trace.Op(0), trace.TagNone, int64(i), now, 5*time.Millisecond)
	}
}

func BenchmarkWindowObserve(b *testing.B) {
	w := NewWindow(12, 5*time.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i%1000+1), int64(i)*int64(time.Millisecond))
	}
}
