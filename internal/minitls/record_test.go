package minitls

import (
	"bytes"
	"crypto/rand"
	"io"
	"testing"
	"testing/quick"
)

// sealBody seals payload with p and returns the wire type and a copy of
// the wire body (open decrypts in place, so tests that open a record more
// than once work on clones).
func sealBody(t testing.TB, p recordProtection, seq uint64, typ uint8, payload []byte, rnd io.Reader) (uint8, []byte) {
	t.Helper()
	w, err := sealRecord(p, seq, typ, payload, nil, rnd)
	if err != nil {
		t.Fatalf("seal(%d bytes): %v", len(payload), err)
	}
	defer PutWireBuf(w)
	rec := w.Bytes()
	if got := int(rec[3])<<8 | int(rec[4]); got != len(rec)-recordHeaderLen || rec[1] != 3 || rec[2] != 3 {
		t.Fatalf("record header % x does not frame a %d-byte body", rec[:recordHeaderLen], len(rec)-recordHeaderLen)
	}
	return rec[0], bytes.Clone(rec[recordHeaderLen:])
}

func testCBCKeys() cbcKeys {
	return cbcKeys{
		cipherKey: bytes.Repeat([]byte{0x11}, 16),
		macKey:    bytes.Repeat([]byte{0x22}, 20),
	}
}

func TestCBCSealOpenRoundTrip(t *testing.T) {
	p, err := newCBCProtection(testCBCKeys())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 15, 16, 17, 100, MaxPlaintext} {
		payload := make([]byte, n)
		rand.Read(payload)
		wireTyp, body := sealBody(t, p, 7, recordApplicationData, payload, rand.Reader)
		typ, got, err := p.open(7, wireTyp, body)
		if err != nil {
			t.Fatalf("open(%d): %v", n, err)
		}
		if typ != recordApplicationData || !bytes.Equal(got, payload) {
			t.Fatalf("roundtrip(%d) mismatch", n)
		}
	}
}

func TestCBCWrongSequenceFailsMAC(t *testing.T) {
	p, _ := newCBCProtection(testCBCKeys())
	_, body := sealBody(t, p, 1, recordApplicationData, []byte("hello"), rand.Reader)
	if _, _, err := p.open(2, recordApplicationData, body); err == nil {
		t.Fatal("open with wrong seq should fail")
	}
}

func TestCBCTamperDetected(t *testing.T) {
	p, _ := newCBCProtection(testCBCKeys())
	payload := bytes.Repeat([]byte{0xab}, 64)
	_, body := sealBody(t, p, 0, recordApplicationData, payload, rand.Reader)
	for _, i := range []int{0, 16, len(body) - 1} {
		mut := bytes.Clone(body)
		mut[i] ^= 0x01
		if _, _, err := p.open(0, recordApplicationData, mut); err == nil {
			t.Fatalf("tamper at byte %d not detected", i)
		}
	}
}

func TestCBCRejectsBadLengths(t *testing.T) {
	p, _ := newCBCProtection(testCBCKeys())
	if _, _, err := p.open(0, recordApplicationData, make([]byte, 17)); err == nil {
		t.Fatal("non-block-multiple body accepted")
	}
	if _, _, err := p.open(0, recordApplicationData, make([]byte, 16)); err == nil {
		t.Fatal("too-short body accepted")
	}
}

func TestCBCKeyLengthValidation(t *testing.T) {
	if _, err := newCBCProtection(cbcKeys{cipherKey: make([]byte, 8), macKey: make([]byte, 20)}); err == nil {
		t.Fatal("bad cipher key accepted")
	}
	if _, err := newCBCProtection(cbcKeys{cipherKey: make([]byte, 16), macKey: make([]byte, 8)}); err == nil {
		t.Fatal("bad mac key accepted")
	}
}

func testGCMKeys() gcmKeys {
	return gcmKeys{
		key: bytes.Repeat([]byte{0x33}, 16),
		iv:  bytes.Repeat([]byte{0x44}, 12),
	}
}

func TestGCMSealOpenRoundTrip(t *testing.T) {
	p, err := newGCMProtection(testGCMKeys())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 100, MaxPlaintext} {
		payload := make([]byte, n)
		rand.Read(payload)
		wireTyp, body := sealBody(t, p, 3, recordHandshake, payload, nil)
		if wireTyp != recordApplicationData {
			t.Fatalf("wire type = %d; TLS 1.3 records masquerade as app data", wireTyp)
		}
		typ, got, err := p.open(3, wireTyp, body)
		if err != nil {
			t.Fatal(err)
		}
		if typ != recordHandshake || !bytes.Equal(got, payload) {
			t.Fatalf("roundtrip(%d) mismatch", n)
		}
	}
}

func TestGCMWrongSeqOrTamper(t *testing.T) {
	p, _ := newGCMProtection(testGCMKeys())
	_, body := sealBody(t, p, 5, recordApplicationData, []byte("data"), nil)
	if _, _, err := p.open(6, recordApplicationData, bytes.Clone(body)); err == nil {
		t.Fatal("wrong seq accepted")
	}
	mut := bytes.Clone(body)
	mut[0] ^= 1
	if _, _, err := p.open(5, recordApplicationData, mut); err == nil {
		t.Fatal("tampered record accepted")
	}
	if _, _, err := p.open(5, recordHandshake, body); err == nil {
		t.Fatal("non-appdata wire type accepted")
	}
}

func TestGCMKeyValidation(t *testing.T) {
	if _, err := newGCMProtection(gcmKeys{key: make([]byte, 8), iv: make([]byte, 12)}); err == nil {
		t.Fatal("bad key accepted")
	}
	if _, err := newGCMProtection(gcmKeys{key: make([]byte, 16), iv: make([]byte, 8)}); err == nil {
		t.Fatal("bad iv accepted")
	}
}

// Property: CBC and GCM protections round-trip arbitrary payloads at
// arbitrary sequence numbers.
func TestProtectionRoundTripProperty(t *testing.T) {
	cbc, _ := newCBCProtection(testCBCKeys())
	gcm, _ := newGCMProtection(testGCMKeys())
	f := func(payload []byte, seq uint64, typRaw uint8) bool {
		if len(payload) > MaxPlaintext {
			payload = payload[:MaxPlaintext]
		}
		typ := recordApplicationData
		if typRaw%2 == 0 {
			typ = recordHandshake
		}
		for _, p := range []recordProtection{cbc, gcm} {
			wt, body := sealBody(t, p, seq, typ, payload, rand.Reader)
			gotTyp, got, err := p.open(seq, wt, body)
			if err != nil || gotTyp != typ || !bytes.Equal(got, payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNullProtectionPassThrough(t *testing.T) {
	var p nullProtection
	wt, body := sealBody(t, p, 0, recordHandshake, []byte("x"), nil)
	if wt != recordHandshake || string(body) != "x" {
		t.Fatal("null seal should pass through")
	}
	typ, got, err := p.open(0, recordHandshake, []byte("y"))
	if err != nil || typ != recordHandshake || string(got) != "y" {
		t.Fatal("null open should pass through")
	}
}

func TestHalfConnSetProtectionResetsSeq(t *testing.T) {
	var h halfConn
	h.seq = 9
	h.setProtection(nullProtection{})
	if h.seq != 0 {
		t.Fatalf("seq = %d after setProtection", h.seq)
	}
	if h.protection() == nil {
		t.Fatal("protection nil")
	}
}
