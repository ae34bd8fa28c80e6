package record

import (
	"bytes"
	"errors"
	"testing"

	"qtls/internal/minitls"
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

// TestStreamSoftwarePath writes three fragments' worth and opens what the
// sink received: the records arrive in sequence order, continuing from the
// key material's sequence number, and carry the payload.
func TestStreamSoftwarePath(t *testing.T) {
	km := testKM()
	e := New(Config{})
	sink := &captureSink{}
	s, err := e.NewStream(km, sink)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'s'}, 2*minitls.MaxPlaintext+500)
	if err := s.Write(payload); err != nil {
		t.Fatal(err)
	}
	if len(sink.records) != 3 {
		t.Fatalf("got %d records, want 3", len(sink.records))
	}
	_, payloads := openAll(t, km, sink.records)
	if !bytes.Equal(bytes.Join(payloads, nil), payload) {
		t.Fatal("roundtrip mismatch")
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
	if err := s.Write([]byte("y")); !errors.Is(err, boom) {
		t.Fatalf("second Write = %v, want sticky sink error", err)
	}
}

// TestStreamWriteAllocations pins the seal path's steady state: one 16 KB
// record through Stream.Write allocates nothing — the wire buffer comes
// from minitls's pool and goes back once the sink returns (the ledger row
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
		}); n != 0 {
			t.Errorf("%s: Stream.Write of one 16 KB record allocates %v objects, want 0", name, n)
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
