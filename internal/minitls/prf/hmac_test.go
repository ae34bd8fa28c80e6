package prf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"math/rand"
	"testing"
)

// stdlibHMAC is the oracle: crypto/hmac over the same digest.
func stdlibHMAC(h Hash, key, msg []byte) []byte {
	newHash := sha256.New
	if h == SHA1 {
		newHash = sha1.New
	}
	m := hmac.New(newHash, key)
	m.Write(msg)
	return m.Sum(nil)
}

// rekeyAllocs is what SetKey allocates: nothing where the digests append
// their state (go1.24 on), one MarshalBinary per pad before that.
func rekeyAllocs() float64 {
	if _, ok := sha256.New().(binaryAppender); ok {
		return 0
	}
	return 2
}

// TestHMACMatchesStdlib: the keyed hash agrees with crypto/hmac for SHA-1
// and SHA-256, over every key length 0–200 (the 64-byte block, past which
// the key is hashed first, is crossed) and every message length 0–300 —
// fresh, after Reset between messages, re-keyed after use, and taken from
// and given back to the pool.
func TestHMACMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for _, h := range []Hash{SHA1, SHA256} {
		reused := newHMAC(h, nil)
		for keyLen := 0; keyLen <= 200; keyLen++ {
			key := bytesOf(keyLen)
			fresh := newHMAC(h, key)
			reused.SetKey(key) // re-keyed after use
			pooled := GetHMAC(h, key)
			// Three messages per key, Reset between them; together the keys
			// walk every message length 0–300.
			for i := 0; i < 3; i++ {
				msg := bytesOf((keyLen*3 + i) % 301)
				want := stdlibHMAC(h, key, msg)
				for name, m := range map[string]*HMAC{"fresh": fresh, "re-keyed": reused, "pooled": pooled} {
					m.Reset()
					m.Write(msg)
					if got := m.Sum(nil); !bytes.Equal(got, want) {
						t.Fatalf("%s HMAC(h=%d, key %d B, msg %d B) = %x, want %x", name, h, keyLen, len(msg), got, want)
					}
					// Sum leaves the input as it was.
					if got := m.Sum([]byte("prefix")); !bytes.Equal(got[6:], want) || string(got[:6]) != "prefix" {
						t.Fatalf("%s: a second Sum appended %x, want %x", name, got, want)
					}
				}
			}
			PutHMAC(pooled)
		}
		for msgLen := 0; msgLen <= 300; msgLen++ {
			key, msg := bytesOf(msgLen%97), bytesOf(msgLen)
			m := GetHMAC(h, key)
			m.Write(msg[:msgLen/2]) // written in two pieces
			m.Write(msg[msgLen/2:])
			if got, want := m.Sum(nil), stdlibHMAC(h, key, msg); !bytes.Equal(got, want) {
				t.Fatalf("HMAC(h=%d, msg %d B) = %x, want %x", h, msgLen, got, want)
			}
			PutHMAC(m)
		}
	}
}

// TestHMACRekeyAllocations: re-keying a pooled keyed hash and MACing with
// it allocates nothing (on go1.23 the saved states cost one allocation
// each per key).
func TestHMACRekeyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	key, msg := make([]byte, 48), make([]byte, 100)
	out := make([]byte, 0, sha256.Size)
	for _, h := range []Hash{SHA1, SHA256} {
		PutHMAC(GetHMAC(h, key))
		if n := testing.AllocsPerRun(100, func() {
			m := GetHMAC(h, key)
			m.Write(msg)
			m.Sum(out)
			PutHMAC(m)
		}); n != rekeyAllocs() {
			t.Errorf("h=%d: a pooled re-key and MAC allocate %v objects, want %v", h, n, rekeyAllocs())
		}
	}
}

// BenchmarkHMACRecordMAC is the CBC record MAC of one 16 KB record (the
// per-record cost, which must match crypto/hmac's).
func BenchmarkHMACRecordMAC(b *testing.B) {
	key, hdr, payload := make([]byte, 20), make([]byte, 13), make([]byte, 16384)
	out := make([]byte, 0, sha1.Size)
	b.Run("prf", func(b *testing.B) {
		m := newHMAC(SHA1, key)
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Reset()
			m.Write(hdr)
			m.Write(payload)
			m.Sum(out)
		}
	})
	b.Run("crypto-hmac", func(b *testing.B) {
		m := hmac.New(sha1.New, key)
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Reset()
			m.Write(hdr)
			m.Write(payload)
			m.Sum(out)
		}
	})
}
