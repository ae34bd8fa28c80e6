package prf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"math/rand"
	"testing"
)

// stdlibHMAC is the oracle: crypto/hmac over crypto/sha256.
func stdlibHMAC(key, msg []byte) []byte {
	m := hmac.New(sha256.New, key)
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

// TestHMACMatchesStdlib: the keyed hash agrees with crypto/hmac over every key length 0–200 (the 64-byte block, past which
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
	reused := newHMAC(nil)
	for keyLen := 0; keyLen <= 200; keyLen++ {
		key := bytesOf(keyLen)
		fresh := newHMAC(key)
		reused.SetKey(key) // re-keyed after use
		pooled := GetHMAC(key)
		// Three messages per key, Reset between them; together the keys
		// walk every message length 0–300.
		for i := 0; i < 3; i++ {
			msg := bytesOf((keyLen*3 + i) % 301)
			want := stdlibHMAC(key, msg)
			for name, m := range map[string]*HMAC{"fresh": fresh, "re-keyed": reused, "pooled": pooled} {
				m.Reset()
				m.Write(msg)
				if got := m.Sum(nil); !bytes.Equal(got, want) {
					t.Fatalf("%s HMAC(key %d B, msg %d B) = %x, want %x", name, keyLen, len(msg), got, want)
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
		m := GetHMAC(key)
		m.Write(msg[:msgLen/2]) // written in two pieces
		m.Write(msg[msgLen/2:])
		if got, want := m.Sum(nil), stdlibHMAC(key, msg); !bytes.Equal(got, want) {
			t.Fatalf("HMAC(msg %d B) = %x, want %x", msgLen, got, want)
		}
		PutHMAC(m)
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
	PutHMAC(GetHMAC(key))
	if n := testing.AllocsPerRun(100, func() {
		m := GetHMAC(key)
		m.Write(msg)
		m.Sum(out)
		PutHMAC(m)
	}); n != rekeyAllocs() {
		t.Errorf("a pooled re-key and MAC allocate %v objects, want %v", n, rekeyAllocs())
	}
}
