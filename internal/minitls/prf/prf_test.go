package prf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// Published TLS 1.2 PRF (P_SHA256) test vector, widely used for
// interoperability testing (e.g. IETF TLS WG mail archive).
func TestTLS12KnownVector(t *testing.T) {
	secret := unhex(t, "9bbe436ba940f017b17652849a71db35")
	seed := unhex(t, "a0ba9f936cda311827a6f796ffd5198c")
	want := unhex(t,
		"e3f229ba727be17b8d122620557cd453c2aab21d07c3d495329b52d4e61edb5a"+
			"6b301791e90d35c9c9a46b4e14baf9af0fa022f7077def17abfd3797c0564bab"+
			"4fbc91666e9def9b97fce34f796789baa48082d122ee42c5a72e5a5110fff701"+
			"87347b66")
	got := TLS12(secret, "test label", seed, 100)
	if !bytes.Equal(got, want) {
		t.Fatalf("PRF mismatch:\n got %x\nwant %x", got, want)
	}
}

func TestTLS12Properties(t *testing.T) {
	secret := []byte("secret")
	seed := []byte("seed")
	a := TLS12(secret, "label", seed, 48)
	b := TLS12(secret, "label", seed, 48)
	if !bytes.Equal(a, b) {
		t.Fatal("PRF not deterministic")
	}
	// Prefix property: shorter output is a prefix of longer output.
	long := TLS12(secret, "label", seed, 100)
	if !bytes.Equal(long[:48], a) {
		t.Fatal("PRF output not prefix-consistent")
	}
	// Different label produces different output.
	c := TLS12(secret, "other", seed, 48)
	if bytes.Equal(a, c) {
		t.Fatal("different labels produced same output")
	}
	// Different secret produces different output.
	d := TLS12([]byte("secret2"), "label", seed, 48)
	if bytes.Equal(a, d) {
		t.Fatal("different secrets produced same output")
	}
}

// referenceTLS12 is the textbook P_SHA256 construction — a fresh label ‖
// seed copy, one Sum(nil) per block — kept as the oracle for TLS12.
func referenceTLS12(secret []byte, label string, seed []byte, length int) []byte {
	labelAndSeed := append([]byte(label), seed...)
	out := make([]byte, 0, length)
	mac := hmac.New(sha256.New, secret)
	mac.Write(labelAndSeed)
	a := mac.Sum(nil)
	for len(out) < length {
		mac.Reset()
		mac.Write(a)
		mac.Write(labelAndSeed)
		out = append(out, mac.Sum(nil)...)
		mac.Reset()
		mac.Write(a)
		a = mac.Sum(nil)
	}
	return out[:length]
}

// TLS12, and a key reused across derivations of different labels, seeds
// and lengths (the connection's master-secret key), agree with the
// reference over random inputs and every length 0–200.
func TestPRFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bytesOf := func(max int) []byte {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return b
	}
	labels := []string{"", "master secret", "key expansion", "client finished", "server finished", "x"}
	for i := 0; i < 300; i++ {
		secret := bytesOf(100) // past SHA-256's block size, HMAC hashes the key
		key := NewTLS12Key(secret)
		for length := i % 7; length <= 200; length += 7 {
			label := labels[rng.Intn(len(labels))]
			seed := bytesOf(80)
			want := referenceTLS12(secret, label, seed, length)
			if got := TLS12(secret, label, seed, length); !bytes.Equal(got, want) {
				t.Fatalf("TLS12(%x, %q, %x, %d) = %x, want %x", secret, label, seed, length, got, want)
			}
			if got := key.Derive(label, seed, length); !bytes.Equal(got, want) {
				t.Fatalf("reused key: Derive(%q, %x, %d) = %x, want %x", label, seed, length, got, want)
			}
		}
	}
	secret := unhex(t, "9bbe436ba940f017b17652849a71db35")
	seed := unhex(t, "a0ba9f936cda311827a6f796ffd5198c")
	if !bytes.Equal(TLS12(secret, "test label", seed, 100), referenceTLS12(secret, "test label", seed, 100)) {
		t.Fatal("the known vector disagrees with the reference")
	}
}

// A one-shot derivation allocates the keyed HMAC (five objects, two more
// when its first Reset saves the keyed state), the key and the result; a
// reused key allocates only the result. (Under -race the one-shot makes
// two more.)
func TestPRFAllocations(t *testing.T) {
	secret := make([]byte, 48)
	seed := make([]byte, 64)
	if n := testing.AllocsPerRun(100, func() { TLS12(secret, "key expansion", seed, 72) }); n > 9 && !raceEnabled {
		t.Errorf("TLS12: %v allocations per call, want at most 9", n)
	}
	key := NewTLS12Key(secret)
	if n := testing.AllocsPerRun(100, func() { key.Derive("client finished", seed[:32], 12) }); n != 1 {
		t.Errorf("reused key: %v allocations per derivation, want 1 (the result)", n)
	}
}

func TestTLS12ZeroLength(t *testing.T) {
	if got := TLS12([]byte("s"), "l", []byte("x"), 0); len(got) != 0 {
		t.Fatalf("len = %d, want 0", len(got))
	}
}

// RFC 5869 Appendix A, test case 1 (SHA-256).
func TestHKDFRFC5869Case1(t *testing.T) {
	ikm := unhex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt := unhex(t, "000102030405060708090a0b0c")
	info := unhex(t, "f0f1f2f3f4f5f6f7f8f9")
	wantPRK := unhex(t, "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
	wantOKM := unhex(t, "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")

	prk := HKDFExtract(salt, ikm)
	if !bytes.Equal(prk, wantPRK) {
		t.Fatalf("PRK = %x, want %x", prk, wantPRK)
	}
	okm := HKDFExpand(prk, info, 42)
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM = %x, want %x", okm, wantOKM)
	}
}

// RFC 5869 Appendix A, test case 3 (SHA-256, zero-length salt/info).
func TestHKDFRFC5869Case3(t *testing.T) {
	ikm := unhex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	wantOKM := unhex(t, "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8")
	prk := HKDFExtract(nil, ikm)
	okm := HKDFExpand(prk, nil, 42)
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM = %x, want %x", okm, wantOKM)
	}
}

func TestHKDFExpandTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HKDFExpand(make([]byte, 32), nil, 255*sha256.Size+1)
}

func TestHKDFExpandLabelStructure(t *testing.T) {
	secret := bytes.Repeat([]byte{0x42}, 32)
	th := sha256.Sum256(nil)
	a := HKDFExpandLabel(secret, "c hs traffic", th[:], 32)
	b := HKDFExpandLabel(secret, "s hs traffic", th[:], 32)
	if bytes.Equal(a, b) {
		t.Fatal("distinct labels must derive distinct secrets")
	}
	if len(a) != 32 {
		t.Fatalf("len = %d", len(a))
	}
	// Deterministic.
	if !bytes.Equal(a, HKDFExpandLabel(secret, "c hs traffic", th[:], 32)) {
		t.Fatal("not deterministic")
	}
}

func TestDeriveSecretLength(t *testing.T) {
	s := DeriveSecret(make([]byte, 32), "derived", make([]byte, 32))
	if len(s) != sha256.Size {
		t.Fatalf("len = %d", len(s))
	}
}

// Property: requested output length is always honored exactly, and outputs
// for different lengths agree on their common prefix.
func TestOutputLengthProperty(t *testing.T) {
	f := func(secret, seed []byte, n uint8) bool {
		l1 := int(n % 200)
		l2 := l1 + 13
		a := TLS12(secret, "x", seed, l1)
		b := TLS12(secret, "x", seed, l2)
		if len(a) != l1 || len(b) != l2 {
			return false
		}
		return bytes.Equal(b[:l1], a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	g := func(prk, info []byte, n uint8) bool {
		if len(prk) == 0 {
			prk = []byte{0}
		}
		l := int(n)%100 + 1
		return len(HKDFExpand(prk, info, l)) == l
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTLS12PRF48(b *testing.B) {
	secret := make([]byte, 48)
	seed := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TLS12(secret, "master secret", seed, 48)
	}
}

func BenchmarkHKDFExpandLabel(b *testing.B) {
	secret := make([]byte, 32)
	th := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HKDFExpandLabel(secret, "s ap traffic", th, 32)
	}
}
