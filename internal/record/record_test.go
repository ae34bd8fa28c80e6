package record

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"qtls/internal/fault"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
)

// testKM returns GCM key material with an arbitrary starting sequence
// number, standing in for keys exported from a finished handshake.
func testKM() minitls.KeyMaterial {
	return minitls.KeyMaterial{
		Key: bytes.Repeat([]byte{0x11}, 16),
		IV:  bytes.Repeat([]byte{0x22}, 12),
		Seq: 7, // a handshake always consumes some records first
	}
}

// captureSink copies every record it receives (the engine's buffers are
// recycled after the call returns).
type captureSink struct {
	records [][]byte
	err     error
}

func (cs *captureSink) WriteRecord(rec []byte) error {
	if cs.err != nil {
		return cs.err
	}
	cs.records = append(cs.records, append([]byte(nil), rec...))
	return nil
}

// openAll decrypts the sink's records in order with a fresh codec,
// starting from the key material's sequence number. Any reordering,
// dropped record, or seq discontinuity fails authentication, so a clean
// roundtrip is also an ordering proof.
func openAll(t *testing.T, km minitls.KeyMaterial, records [][]byte) (types []uint8, payloads [][]byte) {
	t.Helper()
	cd, err := minitls.NewRecordCodec(km)
	if err != nil {
		t.Fatal(err)
	}
	seq := km.Seq
	for i, rec := range records {
		if len(rec) < minitls.RecordHeaderLen {
			t.Fatalf("record %d: short wire record (%d bytes)", i, len(rec))
		}
		typ, payload, err := cd.Open(seq, rec[0], rec[minitls.RecordHeaderLen:])
		if err != nil {
			t.Fatalf("record %d (seq %d): open: %v", i, seq, err)
		}
		seq++
		types = append(types, typ)
		payloads = append(payloads, append([]byte(nil), payload...))
	}
	return types, payloads
}

// drain polls until the stream has delivered everything or the deadline
// expires.
func drain(t *testing.T, e *Engine, s *Stream) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for (s.Pending() > 0 || e.Inflight() > 0) && time.Now().Before(deadline) {
		e.Poll()
		time.Sleep(50 * time.Microsecond)
	}
	if s.Pending() > 0 || e.Inflight() > 0 {
		t.Fatalf("stream did not drain: pending=%d inflight=%d err=%v",
			s.Pending(), e.Inflight(), s.Err())
	}
}

func TestStreamSoftwarePath(t *testing.T) {
	km := testKM()
	e := New(Config{Policy: offload.RecordPolicy{Mode: offload.RecordOffload}})
	sink := &captureSink{}
	s, err := e.NewStream(km, sink)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'s'}, 2*minitls.MaxPlaintext+500)
	if err := s.Write(payload); err != nil {
		t.Fatal(err)
	}
	// No instance: software seals complete inline, nothing pends.
	if s.Pending() != 0 {
		t.Fatalf("software path left %d records pending", s.Pending())
	}
	if len(sink.records) != 3 {
		t.Fatalf("got %d records, want 3", len(sink.records))
	}
	_, payloads := openAll(t, km, sink.records)
	if !bytes.Equal(bytes.Join(payloads, nil), payload) {
		t.Fatal("roundtrip mismatch")
	}
	st := e.Stats()
	if st.SoftwareOps != 3 || st.OffloadOps != 0 {
		t.Fatalf("stats = %+v, want 3 software / 0 offload", st)
	}
	if st.Bytes != int64(len(payload)) {
		t.Fatalf("stats.Bytes = %d, want %d", st.Bytes, len(payload))
	}
}

// TestStreamOffloadInOrder submits a burst whose first record is much
// slower to seal than the rest (byte-calibrated service time) and
// verifies the sink still observes sequence order: the in-order pending
// queue must hold the fast completions behind the slow head.
func TestStreamOffloadInOrder(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{
		Endpoints:          1,
		EnginesPerEndpoint: 8, // burst runs fully parallel
		SymPerKB:           200 * time.Microsecond,
	})
	defer dev.Close()
	inst, err := dev.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	km := testKM()
	e := New(Config{Instance: inst, Policy: offload.RecordPolicy{Mode: offload.RecordOffload}})
	sink := &captureSink{}
	s, err := e.NewStream(km, sink)
	if err != nil {
		t.Fatal(err)
	}

	// Head record: 16 KB (~3.2 ms occupancy). Tail: five 1 KB records
	// (~0.2 ms each) that will complete long before the head.
	var want []byte
	head := bytes.Repeat([]byte{'H'}, minitls.MaxPlaintext)
	if err := s.WriteRecord(minitls.RecordTypeApplicationData, head); err != nil {
		t.Fatal(err)
	}
	want = append(want, head...)
	for i := 0; i < 5; i++ {
		small := bytes.Repeat([]byte{byte('a' + i)}, 1024)
		if err := s.WriteRecord(minitls.RecordTypeApplicationData, small); err != nil {
			t.Fatal(err)
		}
		want = append(want, small...)
	}
	if e.Inflight() == 0 {
		t.Fatal("nothing in flight after offloaded writes")
	}
	drain(t, e, s)

	if len(sink.records) != 6 {
		t.Fatalf("got %d records, want 6", len(sink.records))
	}
	_, payloads := openAll(t, km, sink.records)
	if !bytes.Equal(bytes.Join(payloads, nil), want) {
		t.Fatal("records reached the sink out of sequence order")
	}
	st := e.Stats()
	if st.OffloadOps != 6 || st.SoftwareOps != 0 {
		t.Fatalf("stats = %+v, want 6 offload / 0 software", st)
	}
}

// TestStreamBurstBatchSubmit checks that one Write fragments into
// multiple records and submits them with a single doorbell.
func TestStreamBurstBatchSubmit(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 1})
	defer dev.Close()
	inst, err := dev.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	km := testKM()
	e := New(Config{Instance: inst, Policy: offload.RecordPolicy{Mode: offload.RecordOffload}})
	sink := &captureSink{}
	s, err := e.NewStream(km, sink)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'b'}, 4*minitls.MaxPlaintext)
	if err := s.Write(payload); err != nil {
		t.Fatal(err)
	}
	drain(t, e, s)
	stats := inst.Stats()
	if stats.Doorbells != 1 {
		t.Fatalf("burst rang %d doorbells, want 1", stats.Doorbells)
	}
	if stats.BatchSubmitted != 4 {
		t.Fatalf("batch submitted %d requests, want 4", stats.BatchSubmitted)
	}
	_, payloads := openAll(t, km, sink.records)
	if !bytes.Equal(bytes.Join(payloads, nil), payload) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestStreamAdaptiveThreshold(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 1})
	defer dev.Close()
	inst, err := dev.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	km := testKM()
	e := New(Config{Instance: inst, Policy: offload.RecordPolicy{Mode: offload.RecordAdaptive}})
	if e.Policy().SizeThreshold != offload.DefaultRecordThreshold {
		t.Fatalf("engine did not resolve the adaptive threshold default")
	}
	sink := &captureSink{}
	s, err := e.NewStream(km, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRecord(minitls.RecordTypeApplicationData, bytes.Repeat([]byte{'s'}, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRecord(minitls.RecordTypeApplicationData, bytes.Repeat([]byte{'L'}, 8192)); err != nil {
		t.Fatal(err)
	}
	drain(t, e, s)
	st := e.Stats()
	if st.SoftwareOps != 1 || st.OffloadOps != 1 {
		t.Fatalf("stats = %+v, want 1 software (1 KB) / 1 offload (8 KB)", st)
	}
	if _, payloads := openAll(t, km, sink.records); len(payloads) != 2 {
		t.Fatalf("got %d records, want 2", len(payloads))
	}
}

// TestStreamFallbackOnDeviceReset resets the endpoint mid-batch: the
// accepted prefix fails in flight and must be re-sealed in software at
// flush time under the original sequence numbers, keeping the stream
// decryptable with no gap.
func TestStreamFallbackOnDeviceReset(t *testing.T) {
	inj := fault.NewInjector(1, fault.Rule{
		Kind: fault.Reset, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp,
		P: 1, After: 2, Limit: 1,
	})
	dev := qat.NewDevice(qat.DeviceSpec{
		Endpoints:   1,
		SymBaseTime: 2 * time.Millisecond, // keep the prefix in flight at reset
		Injector:    inj,
	})
	defer dev.Close()
	inst, err := dev.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	km := testKM()
	e := New(Config{Instance: inst, Policy: offload.RecordPolicy{Mode: offload.RecordOffload}})
	sink := &captureSink{}
	s, err := e.NewStream(km, sink)
	if err != nil {
		t.Fatal(err)
	}
	// One burst of three records: two accepted before the injected
	// reset, the third sealed in software immediately.
	payload := bytes.Repeat([]byte{'r'}, 3*minitls.MaxPlaintext)
	if err := s.Write(payload); err != nil {
		t.Fatal(err)
	}
	drain(t, e, s)

	if len(sink.records) != 3 {
		t.Fatalf("got %d records, want 3", len(sink.records))
	}
	_, payloads := openAll(t, km, sink.records)
	if !bytes.Equal(bytes.Join(payloads, nil), payload) {
		t.Fatal("fallback re-seal broke sequence continuity")
	}
	st := e.Stats()
	if st.Fallbacks < 3 { // 2 failed in flight + 1 rejected at submit
		t.Fatalf("stats.Fallbacks = %d, want >= 3 (%+v)", st.Fallbacks, st)
	}
	if st.Records != 3 {
		t.Fatalf("stats.Records = %d, want 3", st.Records)
	}
}

// TestStreamRingFullFallback rejects the first submission with a
// ring-full storm; the record must seal in software with no sink gap.
func TestStreamRingFullFallback(t *testing.T) {
	inj := fault.NewInjector(1, fault.Rule{
		Kind: fault.RingFull, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp,
		P: 1, Limit: 1,
	})
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 1, Injector: inj})
	defer dev.Close()
	inst, err := dev.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	km := testKM()
	e := New(Config{Instance: inst, Policy: offload.RecordPolicy{Mode: offload.RecordOffload}})
	sink := &captureSink{}
	s, err := e.NewStream(km, sink)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{'f'}, 8192)
	if err := s.WriteRecord(minitls.RecordTypeApplicationData, rec); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRecord(minitls.RecordTypeApplicationData, rec); err != nil {
		t.Fatal(err)
	}
	drain(t, e, s)
	st := e.Stats()
	if st.RingFull != 1 || st.SoftwareOps != 1 || st.OffloadOps != 1 {
		t.Fatalf("stats = %+v, want 1 ring-full software fallback + 1 offload", st)
	}
	_, payloads := openAll(t, km, sink.records)
	if !bytes.Equal(bytes.Join(payloads, nil), append(append([]byte(nil), rec...), rec...)) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestStreamCloseNotify(t *testing.T) {
	km := testKM()
	e := New(Config{})
	sink := &captureSink{}
	s, err := e.NewStream(km, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write([]byte("goodbye")); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseNotify(); err != nil {
		t.Fatal(err)
	}
	if !s.Closed() {
		t.Fatal("Closed() = false after CloseNotify")
	}
	if err := s.Write([]byte("x")); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Write after close = %v, want ErrStreamClosed", err)
	}
	if err := s.CloseNotify(); err != nil {
		t.Fatalf("second CloseNotify: %v", err)
	}
	types, payloads := openAll(t, km, sink.records)
	if len(types) != 2 {
		t.Fatalf("got %d records, want 2", len(types))
	}
	if types[1] != minitls.RecordTypeAlert || !bytes.Equal(payloads[1], minitls.AlertCloseNotify()) {
		t.Fatalf("final record is %d/%v, want close-notify alert", types[1], payloads[1])
	}
	if st := e.Stats(); st.SoftwareOps != 2 {
		t.Fatalf("close-notify must seal in software; stats = %+v", st)
	}
}

// TestStreamCancelDropsInflight cancels a stream with offloads in
// flight: completions must be discarded without sink writes and without
// corrupting inflight accounting.
func TestStreamCancelDropsInflight(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 1, SymBaseTime: time.Millisecond})
	defer dev.Close()
	inst, err := dev.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Instance: inst, Policy: offload.RecordPolicy{Mode: offload.RecordOffload}})
	sink := &captureSink{}
	s, err := e.NewStream(testKM(), sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(bytes.Repeat([]byte{'c'}, 2*minitls.MaxPlaintext)); err != nil {
		t.Fatal(err)
	}
	if e.Inflight() != 2 {
		t.Fatalf("inflight = %d, want 2", e.Inflight())
	}
	s.Cancel()
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after cancel, want 0", s.Pending())
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Inflight() > 0 && time.Now().Before(deadline) {
		e.Poll()
		time.Sleep(50 * time.Microsecond)
	}
	if e.Inflight() != 0 {
		t.Fatal("inflight never drained after cancel")
	}
	if len(sink.records) != 0 {
		t.Fatalf("canceled stream delivered %d records", len(sink.records))
	}
	if err := s.Write([]byte("x")); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Write after cancel = %v, want ErrStreamClosed", err)
	}
}

// TestStreamSinkErrorSticky: a failing sink poisons the stream and the
// error surfaces on subsequent writes.
func TestStreamSinkErrorSticky(t *testing.T) {
	e := New(Config{})
	boom := errors.New("socket gone")
	sink := &captureSink{err: boom}
	s, err := e.NewStream(testKM(), sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want sink error", err)
	}
	if err := s.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want sink error", err)
	}
	if err := s.Write([]byte("y")); !errors.Is(err, boom) {
		t.Fatalf("second Write = %v, want sticky sink error", err)
	}
}

// TestBreakerShedsToSoftware trips the instance's circuit with repeated
// resets and checks further records seal in software, without reaching
// the device, while it is open (the health manager's clock is held).
func TestBreakerShedsToSoftware(t *testing.T) {
	inj := fault.NewInjector(1, fault.Rule{
		Kind: fault.Reset, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1,
	})
	pool := qat.PoolOf(qat.NewDevice(qat.DeviceSpec{Endpoints: 1, Injector: inj}))
	defer pool.Close()
	inst, err := pool.AllocInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	held := time.Now()
	e := New(Config{
		Instance:  inst,
		Policy:    offload.RecordPolicy{Mode: offload.RecordOffload},
		Lifecycle: qat.NewLifecycle(pool, func() time.Time { return held }),
	})
	sink := &captureSink{}
	km := testKM()
	s, err := e.NewStream(km, sink)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{'z'}, 8192)
	for i := 0; i < 8; i++ {
		if err := s.WriteRecord(minitls.RecordTypeApplicationData, rec); err != nil {
			t.Fatal(err)
		}
		drain(t, e, s)
	}
	// The circuit's minimum sample count of resets trips it; the rest of
	// the records never reach the device.
	if b := inst.Breaker(); b.State != qat.BreakerOpen || b.Trips != 1 {
		t.Fatalf("circuit after 8 reset submissions: %v", b)
	}
	if n := inj.Injected(fault.Reset); n != 4 {
		t.Fatalf("%d records reached the device, want the 4 before the trip", n)
	}
	st := e.Stats()
	if st.SoftwareOps != 8 {
		t.Fatalf("software seals = %d, want all 8: %+v", st.SoftwareOps, st)
	}
	if len(sink.records) != 8 {
		t.Fatalf("got %d records, want 8", len(sink.records))
	}
	if _, payloads := openAll(t, km, sink.records); len(payloads) != 8 {
		t.Fatal("roundtrip failed under breaker shedding")
	}
}

// TestOpenAsyncRoundtrip drives the decrypt-side seam: records sealed
// by one codec are opened through the engine, offloaded when the policy
// admits them and inline otherwise.
func TestOpenAsyncRoundtrip(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 1})
	defer dev.Close()
	inst, err := dev.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	km := testKM()
	seal, err := minitls.NewRecordCodec(km)
	if err != nil {
		t.Fatal(err)
	}
	open, err := minitls.NewRecordCodec(km)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Instance: inst, Policy: offload.RecordPolicy{Mode: offload.RecordAdaptive}})

	mkRecord := func(seq uint64, payload []byte) []byte {
		w, err := seal.Seal(seq, minitls.RecordTypeApplicationData, payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer minitls.PutWireBuf(w)
		return bytes.Clone(w.Bytes())
	}

	// Small record: opened inline in software (below threshold).
	smallDone := false
	small := bytes.Repeat([]byte{'s'}, 512)
	e.OpenAsync(open, km.Seq, mkRecord(km.Seq, small), func(typ uint8, payload []byte, err error) {
		if err != nil || typ != minitls.RecordTypeApplicationData || !bytes.Equal(payload, small) {
			t.Errorf("small open: typ=%d err=%v", typ, err)
		}
		smallDone = true
	})
	if !smallDone {
		t.Fatal("sub-threshold open did not complete inline")
	}

	// Large record: offloaded, completes via Poll.
	largeDone := false
	large := bytes.Repeat([]byte{'L'}, minitls.MaxPlaintext)
	e.OpenAsync(open, km.Seq+1, mkRecord(km.Seq+1, large), func(typ uint8, payload []byte, err error) {
		if err != nil || !bytes.Equal(payload, large) {
			t.Errorf("large open: typ=%d err=%v", typ, err)
		}
		largeDone = true
	})
	if largeDone {
		t.Fatal("above-threshold open completed inline; want offload")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !largeDone && time.Now().Before(deadline) {
		e.Poll()
		time.Sleep(50 * time.Microsecond)
	}
	if !largeDone {
		t.Fatal("offloaded open never completed")
	}

	// Tampered record: the codec verdict must surface, not be retried away.
	bad := mkRecord(km.Seq+2, small)
	bad[len(bad)-1] ^= 0x80
	gotErr := false
	e.OpenAsync(open, km.Seq+2, bad, func(typ uint8, payload []byte, err error) {
		gotErr = err != nil
	})
	if !gotErr {
		t.Fatal("tampered record opened successfully")
	}
	st := e.Stats()
	if st.OffloadOps != 1 || st.SoftwareOps != 2 {
		t.Fatalf("stats = %+v, want 1 offload / 2 software opens", st)
	}
}

// TestStreamWriteAllocations pins the software seal path's steady state:
// one 16 KB record through Stream.Write allocates its job and nothing
// else — no private buffer pool, no seal-then-copy (the ledger row
// record.stream_seal_16k_allocs).
func TestStreamWriteAllocations(t *testing.T) {
	for name, km := range map[string]minitls.KeyMaterial{
		"gcm": testKM(),
		"cbc": {Key: bytes.Repeat([]byte{0x11}, 16), MACKey: bytes.Repeat([]byte{0x22}, 20), Seq: 7},
	} {
		s, err := New(Config{}).NewStream(km, discardSink{})
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{'b'}, minitls.MaxPlaintext)
		if n := testing.AllocsPerRun(100, func() {
			if err := s.Write(payload); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Errorf("%s: Stream.Write of one 16 KB record allocates %v objects, want <= 2", name, n)
		}
	}
}

// BenchmarkStreamSeal measures the software seal path per 16 KB record
// (pool reuse keeps it allocation-light); the CI test job runs it once
// as a liveness check.
func BenchmarkStreamSeal(b *testing.B) {
	e := New(Config{})
	s, err := e.NewStream(testKM(), discardSink{})
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'b'}, minitls.MaxPlaintext)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
}

type discardSink struct{}

func (discardSink) WriteRecord([]byte) error { return nil }
