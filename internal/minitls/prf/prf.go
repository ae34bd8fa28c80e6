// Package prf implements the TLS key-derivation primitives the QTLS paper
// counts in Table 1: the TLS 1.2 pseudo random function (RFC 5246 §5) and
// the TLS 1.3 HMAC-based key derivation function HKDF (RFC 5869) together
// with the HKDF-Expand-Label construction of RFC 8446 §7.1.
//
// In QTLS, PRF operations are offloadable to the QAT accelerator while
// HKDF is not ("the TLS 1.3 protocol introduces a new key derivation
// function named HKDF, which cannot be offloaded through the QAT Engine
// currently", §5.2) — which is why the TLS 1.3 speedup in Fig. 8 is lower
// than the TLS 1.2 one. Both are implemented here in pure Go over one
// re-keyable HMAC (HMAC) on the standard library's digests; the engine
// layer decides what gets offloaded.
package prf

import (
	"crypto/sha256"
)

// TLS12 computes PRF(secret, label, seed) with P_SHA256 as specified by
// RFC 5246 §5 for TLS 1.2, producing length bytes.
func TLS12(secret []byte, label string, seed []byte, length int) []byte {
	k := NewTLS12Key(secret)
	out := k.Derive(label, seed, length)
	k.Release()
	return out
}

// TLS12Key is the TLS 1.2 PRF under one secret. Its HMAC is keyed once and
// reset per block, so a caller deriving several values from one secret (a
// connection's key block and both Finished messages from its master
// secret) keys it once. The zero TLS12Key is unkeyed; SetKey keys it with
// a pooled HMAC, which Release gives back. A TLS12Key is not safe for
// concurrent use, and a keyed one must not be copied.
type TLS12Key struct {
	mac *HMAC
	buf []byte // A(i) ‖ label ‖ seed, reused across derivations
	// scratch backs buf while A(i) ‖ label ‖ seed fits: every derivation of
	// a TLS 1.2 handshake (two 32-byte randoms or one transcript hash as the
	// seed) does.
	scratch [128]byte
	// block holds a final output block that only partly fits the result.
	block [sha256.Size]byte
}

// NewTLS12Key keys the PRF's HMAC with secret.
func NewTLS12Key(secret []byte) *TLS12Key {
	k := new(TLS12Key)
	k.SetKey(secret)
	return k
}

// SetKey keys k with secret, taking an HMAC from the pool if k holds none.
func (k *TLS12Key) SetKey(secret []byte) {
	if k.mac == nil {
		k.mac = GetHMAC(secret)
	} else {
		k.mac.SetKey(secret)
	}
	k.buf = k.scratch[:0]
}

// Release gives k's HMAC back to the pool. k must be keyed again before
// its next derivation.
func (k *TLS12Key) Release() {
	if k.mac != nil {
		PutHMAC(k.mac)
		k.mac = nil
	}
}

// Derive is PRF(secret, label, seed) producing length bytes, in a slice
// of its own: the derivation's only allocation.
func (k *TLS12Key) Derive(label string, seed []byte, length int) []byte {
	out := make([]byte, length)
	k.DeriveTo(out, label, seed)
	return out
}

// DeriveTo fills out with PRF(secret, label, seed): P_SHA256 of RFC 5246
// §5 over label ‖ seed,
//
//	P_hash(secret, seed) = HMAC_hash(secret, A(1) + seed) +
//	                       HMAC_hash(secret, A(2) + seed) + ...
//	A(0) = seed, A(i) = HMAC_hash(secret, A(i-1))
//
// A(i) is summed into the front of the buffer it is then MACed with, and
// each whole output block straight into out; it allocates nothing once
// the buffer has grown.
func (k *TLS12Key) DeriveTo(out []byte, label string, seed []byte) {
	const n = sha256.Size
	buf := append(k.buf[:0], make([]byte, n)...)
	buf = append(buf, label...)
	buf = append(buf, seed...)
	k.buf = buf
	a := buf[:n]
	prev := buf[n:] // A(0) = label ‖ seed
	for off := 0; off < len(out); off += n {
		k.mac.Reset()
		k.mac.Write(prev)
		k.mac.Sum(a[:0]) // A(i)
		prev = a
		k.mac.Reset()
		k.mac.Write(buf)
		if len(out)-off >= n {
			k.mac.Sum(out[off:off])
		} else {
			copy(out[off:], k.mac.Sum(k.block[:0]))
		}
	}
}

// zeroSalt is HKDF-Extract's salt when none is given: HashLen zeros.
var zeroSalt [sha256.Size]byte

// HKDFExtract computes HKDF-Extract(salt, ikm) with SHA-256 (RFC 5869 §2.2).
// A nil or empty salt is replaced by a string of HashLen zeros.
func HKDFExtract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = zeroSalt[:]
	}
	mac := GetHMAC(salt)
	mac.Write(ikm)
	out := mac.Sum(make([]byte, 0, sha256.Size))
	PutHMAC(mac)
	return out
}

// HKDFExpand computes HKDF-Expand(prk, info, length) with SHA-256
// (RFC 5869 §2.3). length must not exceed 255*HashLen.
func HKDFExpand(prk, info []byte, length int) []byte {
	const n = sha256.Size
	if length > 255*n {
		panic("prf: HKDF-Expand length too large")
	}
	out := make([]byte, 0, (length+n-1)/n*n)
	mac := GetHMAC(prk)
	var t []byte // T(0) is empty
	for ctr := byte(1); len(out) < length; ctr++ {
		mac.Reset()
		mac.Write(t)
		mac.Write(info)
		mac.Write([]byte{ctr})
		out = mac.Sum(out)
		t = out[len(out)-n:]
	}
	PutHMAC(mac)
	return out[:length]
}

// HKDFExpandLabel implements HKDF-Expand-Label of RFC 8446 §7.1:
//
//	HKDF-Expand(Secret, HkdfLabel, Length) where HkdfLabel is
//	uint16 length || opaque label<7..255> = "tls13 " + Label ||
//	opaque context<0..255>
func HKDFExpandLabel(secret []byte, label string, context []byte, length int) []byte {
	fullLabel := "tls13 " + label
	info := make([]byte, 0, 2+1+len(fullLabel)+1+len(context))
	info = append(info, byte(length>>8), byte(length))
	info = append(info, byte(len(fullLabel)))
	info = append(info, fullLabel...)
	info = append(info, byte(len(context)))
	info = append(info, context...)
	return HKDFExpand(secret, info, length)
}

// DeriveSecret implements Derive-Secret of RFC 8446 §7.1; transcriptHash
// is the hash of the handshake messages so far.
func DeriveSecret(secret []byte, label string, transcriptHash []byte) []byte {
	return HKDFExpandLabel(secret, label, transcriptHash, sha256.Size)
}
