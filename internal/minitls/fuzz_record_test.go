package minitls

import (
	"bytes"
	"testing"
)

// zeroIV is the CBC seal's randomness here: a fixed IV keeps every
// fuzzer finding reproducible from its corpus file alone.
type zeroIV struct{}

func (zeroIV) Read(p []byte) (int, error) { clear(p); return len(p), nil }

// FuzzRecordOpen fuzzes record decryption, the first parser a peer's
// bytes reach once keys are in place: cbcProtection.open (TLS 1.2) and
// gcmProtection.open (TLS 1.3). Properties:
//   - open never panics on any body;
//   - a record the seal path sealed opens to the sealed type and payload;
//   - the same record with any one body byte changed fails (padding, MAC
//     or AEAD) and never opens to other plaintext.
//
// The corpus is seeded with sealed records, so the fuzzer's body
// mutations start from bodies that get past the framing checks.
func FuzzRecordOpen(f *testing.F) {
	cbc, err := newCBCProtection(testCBCKeys())
	if err != nil {
		f.Fatal(err)
	}
	gcm, err := newGCMProtection(testGCMKeys())
	if err != nil {
		f.Fatal(err)
	}
	prot := func(tls13 bool) recordProtection {
		if tls13 {
			return gcm
		}
		return cbc
	}
	const seq = 9
	for _, tls13 := range []bool{false, true} {
		for _, n := range []int{0, 1, 15, 16, 17, 100, 1000} {
			payload := bytes.Repeat([]byte{byte(n)}, n)
			_, body := sealBody(f, prot(tls13), seq, recordApplicationData, payload, zeroIV{})
			f.Add(tls13, uint64(seq), uint8(recordApplicationData), payload, body, uint16(n), byte(0x80))
		}
	}
	f.Fuzz(func(t *testing.T, tls13 bool, seq uint64, typ uint8, payload, body []byte, at uint16, x byte) {
		p := prot(tls13)

		// Any body: an error or a plaintext, never a panic. A TLS 1.3
		// open rejects every wire type but application data before the
		// AEAD, so that is the one worth feeding it.
		wireTyp := typ
		if tls13 {
			wireTyp = recordApplicationData
		}
		p.open(seq, wireTyp, bytes.Clone(body))

		// A record sealed from the fuzzed payload, under one of the four
		// content types (a TLS 1.3 inner type is never zero).
		typ = recordChangeCipherSpec + typ%4
		if len(payload) > MaxPlaintext {
			payload = payload[:MaxPlaintext]
		}
		wireTyp, sealed := sealBody(t, p, seq, typ, payload, zeroIV{})
		gotTyp, got, err := p.open(seq, wireTyp, bytes.Clone(sealed))
		if err != nil {
			t.Fatalf("untouched %d-byte record: %v", len(payload), err)
		}
		if gotTyp != typ || !bytes.Equal(got, payload) {
			t.Fatalf("untouched record opened to type %d, %d bytes; sealed type %d, %d bytes", gotTyp, len(got), typ, len(payload))
		}

		if x == 0 {
			x = 1
		}
		i := int(at) % len(sealed)
		sealed[i] ^= x
		if gotTyp, got, err := p.open(seq, wireTyp, sealed); err == nil {
			t.Fatalf("record with body byte %d changed (^%#x) opened to type %d, %d bytes", i, x, gotTyp, len(got))
		}
	})
}
