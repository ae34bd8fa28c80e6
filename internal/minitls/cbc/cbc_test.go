package cbc

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// paths names the implementations this host can run: the standard
// library always, the kernels where the CPU has them.
func paths() []string {
	if haveKernels {
		return []string{"kernel", "stdlib"}
	}
	return []string{"stdlib"}
}

// newKeys builds Keys on the named path.
func newKeys(tb testing.TB, path string, cipherKey, macKey []byte) *Keys {
	tb.Helper()
	defer func(saved bool) { useKernels = saved }(useKernels)
	useKernels = path == "kernel"
	k := new(Keys)
	if err := k.Init(cipherKey, macKey); err != nil {
		tb.Fatal(err)
	}
	if (k.block == nil) != (path == "kernel") {
		tb.Fatalf("Keys built for %s took the other path", path)
	}
	return k
}

// forEachPath runs f once per implementation.
func forEachPath(t *testing.T, f func(t *testing.T, path string)) {
	for _, p := range paths() {
		t.Run(p, func(t *testing.T) { f(t, p) })
	}
	if !haveKernels {
		t.Log("no kernels on this build or CPU: the standard library alone was checked")
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// refMAC is the oracle record MAC: crypto/hmac over crypto/sha1.
func refMAC(macKey []byte, seq uint64, typ uint8, payload []byte) []byte {
	m := hmac.New(sha1.New, macKey)
	var hdr [13]byte
	binary.BigEndian.PutUint64(hdr[:], seq)
	hdr[8] = typ
	hdr[9], hdr[10] = 3, 3
	binary.BigEndian.PutUint16(hdr[11:], uint16(len(payload)))
	m.Write(hdr[:])
	m.Write(payload)
	return m.Sum(nil)
}

// refSeal is the oracle record: IV ‖ CBC(payload ‖ mac ‖ padding), built
// from crypto/aes and crypto/cipher. The mac and padding are the
// caller's, so a test can tamper with either.
func refSeal(cipherKey, iv, payload, mac []byte, padLen int, padByte byte) []byte {
	plain := append(append([]byte(nil), payload...), mac...)
	for i := 0; i <= padLen; i++ {
		plain = append(plain, padByte)
	}
	plain[len(plain)-1] = byte(padLen)
	block, _ := aes.NewCipher(cipherKey)
	out := append([]byte(nil), iv...)
	out = append(out, make([]byte, len(plain))...)
	cipher.NewCBCEncrypter(block, iv).CryptBlocks(out[BlockSize:], plain)
	return out
}

// padFor is the padding length TLS needs after n payload bytes and a MAC.
func padFor(n int) int { return BlockSize - 1 - (n+MACSize)%BlockSize }

// TestSHA1MatchesStdlib: the compression and the finishing path agree with
// crypto/sha1 for every message length 64–3 000 (the first block goes
// through compress, the rest through finish, split at a random point), and
// the record MAC agrees with crypto/hmac for every payload length 0–3 000.
func TestSHA1MatchesStdlib(t *testing.T) {
	forEachPath(t, func(t *testing.T, path string) {
		rng := rand.New(rand.NewSource(44))
		macKey := randBytes(rng, MACSize)
		k := newKeys(t, path, randBytes(rng, 16), macKey)
		msg := randBytes(rng, 3000)
		for n := 0; n <= 3000; n++ {
			if n >= 64 {
				h := sha1Init
				k.compress(&h, (*[64]byte)(msg))
				rest := msg[64:n]
				split := rng.Intn(min(len(rest), 64) + 1)
				var got [MACSize]byte
				k.finish(&got, &h, rest[:split], rest[split:])
				if want := sha1.Sum(msg[:n]); got != want {
					t.Fatalf("SHA-1 of %d bytes split at 64+%d: %x, want %x", n, split, got, want)
				}
			}
			seq := rng.Uint64()
			var got [MACSize]byte
			k.mac(&got, seq, 23, msg[:n])
			if want := refMAC(macKey, seq, 23, msg[:n]); !bytes.Equal(got[:], want) {
				t.Fatalf("record MAC of %d bytes: %x, want %x", n, got, want)
			}
		}
	})
}

// TestCBCMatchesStdlib: encrypt and decrypt agree with crypto/cipher's CBC
// modes on 500 random keys, IVs and lengths, in place and out of place
// from an unaligned source.
func TestCBCMatchesStdlib(t *testing.T) {
	forEachPath(t, func(t *testing.T, path string) {
		rng := rand.New(rand.NewSource(45))
		for i := 0; i < 500; i++ {
			key, ivb := randBytes(rng, 16), randBytes(rng, BlockSize)
			iv := (*[BlockSize]byte)(ivb)
			k := newKeys(t, path, key, make([]byte, MACSize))
			block, _ := aes.NewCipher(key)
			n := BlockSize * rng.Intn(70)
			plain := randBytes(rng, n)
			want := make([]byte, n)
			cipher.NewCBCEncrypter(block, ivb).CryptBlocks(want, plain)

			src := make([]byte, n+1)[1:] // unaligned
			copy(src, plain)
			dst := make([]byte, n)
			k.encrypt(iv, dst, src)
			if !bytes.Equal(dst, want) || !bytes.Equal(src, plain) {
				t.Fatalf("out-of-place encrypt of %d bytes differs from crypto/cipher", n)
			}
			k.encrypt(iv, src, src)
			if !bytes.Equal(src, want) {
				t.Fatalf("in-place encrypt of %d bytes differs from crypto/cipher", n)
			}
			k.decrypt(iv, dst, src)
			if !bytes.Equal(dst, plain) || !bytes.Equal(src, want) {
				t.Fatalf("out-of-place decrypt of %d bytes differs from crypto/cipher", n)
			}
			k.decrypt(iv, src, src)
			if !bytes.Equal(src, plain) {
				t.Fatalf("in-place decrypt of %d bytes differs from crypto/cipher", n)
			}
		}
	})
}

// TestRecordMatchesStdlib: a sealed record is byte for byte the one the
// oracle builds, at the edge lengths of the record path (empty, one byte,
// the 1 151-byte first record of a turn, and both sides of 16 KB); both
// sides open each other's records; and a record with a wrong MAC, wrong
// padding bytes, a padding length past the body, a flipped bit or a
// ragged length is refused.
func TestRecordMatchesStdlib(t *testing.T) {
	forEachPath(t, func(t *testing.T, path string) {
		rng := rand.New(rand.NewSource(46))
		cipherKey, macKey := randBytes(rng, 16), randBytes(rng, MACSize)
		k := newKeys(t, path, cipherKey, macKey)
		for _, n := range []int{0, 1, 1151, 16383, 16384} {
			t.Run(fmt.Sprint(n), func(t *testing.T) {
				iv, payload := randBytes(rng, BlockSize), randBytes(rng, n)
				seq := rng.Uint64()
				mac := refMAC(macKey, seq, 23, payload)
				want := refSeal(cipherKey, iv, payload, mac, padFor(n), byte(padFor(n)))

				rec := make([]byte, n+Overhead)
				copy(rec, iv)
				copy(rec[BlockSize:], payload)
				end := k.Seal(rec, n, seq, 23)
				if !bytes.Equal(rec[:end], want) {
					t.Fatalf("sealed record differs from crypto/cipher + crypto/hmac")
				}
				got, err := k.Open(append([]byte(nil), want...), seq, 23)
				if err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("opening the oracle's record: %v", err)
				}
				if _, err := k.Open(append([]byte(nil), want...), seq+1, 23); err != errMAC {
					t.Fatalf("record opened under the wrong sequence number: %v", err)
				}

				bad := append([]byte(nil), mac...)
				bad[rng.Intn(MACSize)] ^= 1
				tampered := map[string][]byte{
					"mac":          refSeal(cipherKey, iv, payload, bad, padFor(n), byte(padFor(n))),
					"padding byte": refSeal(cipherKey, iv, payload, mac, padFor(n)+BlockSize, byte(padFor(n))),
					"padding len":  refSeal(cipherKey, iv, nil, nil, 31, 31),
					"ragged":       want[:len(want)-1],
					"short":        want[:BlockSize],
				}
				flipped := append([]byte(nil), want...)
				flipped[BlockSize+rng.Intn(len(want)-BlockSize)] ^= 0x80
				tampered["flipped bit"] = flipped
				for name, body := range tampered {
					if _, err := k.Open(append([]byte(nil), body...), seq, 23); err == nil {
						t.Errorf("%s: tampered record opened", name)
					}
				}
			})
		}
	})
}

// TestConcurrentSealOpen: one Keys seals and opens from several goroutines
// at once, as an offloaded seal and its software fallback may, and every
// record is still the oracle's.
func TestConcurrentSealOpen(t *testing.T) {
	forEachPath(t, func(t *testing.T, path string) {
		cipherKey, macKey := bytes.Repeat([]byte{1}, 16), bytes.Repeat([]byte{2}, MACSize)
		k := newKeys(t, path, cipherKey, macKey)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				iv, payload := make([]byte, BlockSize), bytes.Repeat([]byte{byte(g)}, 3000+g)
				want := refSeal(cipherKey, iv, payload, refMAC(macKey, uint64(g), 23, payload), padFor(len(payload)), byte(padFor(len(payload))))
				rec := make([]byte, len(payload)+Overhead)
				for i := 0; i < 50; i++ {
					copy(rec[BlockSize:], payload)
					end := k.Seal(rec, len(payload), uint64(g), 23)
					if !bytes.Equal(rec[:end], want) {
						t.Error("a concurrent seal differs from the oracle")
						return
					}
					if got, err := k.Open(rec[:end], uint64(g), 23); err != nil || !bytes.Equal(got, payload) {
						t.Errorf("a concurrent open failed: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestRecordAllocations: sealing and opening allocate nothing on either
// path.
func TestRecordAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	forEachPath(t, func(t *testing.T, path string) {
		k := newKeys(t, path, make([]byte, 16), make([]byte, MACSize))
		rec := make([]byte, 16384+Overhead)
		if n := testing.AllocsPerRun(20, func() {
			end := k.Seal(rec, 16384, 1, 23)
			if _, err := k.Open(rec[:end], 1, 23); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("a seal and an open allocate %v objects, want 0", n)
		}
	})
}

// FuzzRecordKernels: for any keys, IV and payload, both paths seal the
// oracle's record; for any body, both paths agree on whether it opens and
// on the payload.
func FuzzRecordKernels(f *testing.F) {
	f.Add(make([]byte, 36), make([]byte, 16), []byte("hello"), uint64(0))
	f.Add(bytes.Repeat([]byte{7}, 36), bytes.Repeat([]byte{9}, 16), make([]byte, 1151), uint64(1)<<40)
	f.Fuzz(func(t *testing.T, keys, iv, payload []byte, seq uint64) {
		if len(keys) < 36 || len(iv) < BlockSize || len(payload) > 16384 {
			return
		}
		cipherKey, macKey := keys[:16], keys[16:36]
		want := refSeal(cipherKey, iv[:BlockSize], payload, refMAC(macKey, seq, 23, payload), padFor(len(payload)), byte(padFor(len(payload))))
		var opened [][]byte
		var errs []error
		for _, path := range paths() {
			k := newKeys(t, path, cipherKey, macKey)
			rec := make([]byte, len(payload)+Overhead)
			copy(rec, iv)
			copy(rec[BlockSize:], payload)
			if end := k.Seal(rec, len(payload), seq, 23); !bytes.Equal(rec[:end], want) {
				t.Fatalf("%s: sealed record differs from the oracle", path)
			}
			// The fuzzer's payload, read as a body to open.
			got, err := k.Open(append([]byte(nil), payload...), seq, 23)
			opened, errs = append(opened, got), append(errs, err)
		}
		if len(errs) == 2 && (errs[0] != errs[1] || !bytes.Equal(opened[0], opened[1])) {
			t.Fatalf("kernel and stdlib disagree on a body: %v / %v", errs[0], errs[1])
		}
	})
}

// BenchmarkRecord is the record layer's cost: one seal and one open at the
// first-record size, 4 KB and a full 16 KB record, on each path. An open
// first copies the sealed record back over the one it decrypted in place.
func BenchmarkRecord(b *testing.B) {
	for _, op := range []string{"seal", "open"} {
		for _, n := range []int{1151, 4096, 16384} {
			for _, path := range paths() {
				b.Run(fmt.Sprintf("%s/%d/%s", op, n, path), func(b *testing.B) {
					k := newKeys(b, path, make([]byte, 16), make([]byte, MACSize))
					rec := make([]byte, n+Overhead)
					end := k.Seal(rec, n, 1, 23)
					sealed := append([]byte(nil), rec[:end]...)
					b.SetBytes(int64(n))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if op == "seal" {
							k.Seal(rec, n, 1, 23)
							continue
						}
						copy(rec, sealed)
						if _, err := k.Open(rec[:end], 1, 23); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
