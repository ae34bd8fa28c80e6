// Package prf implements the TLS key-derivation primitives the QTLS paper
// counts in Table 1: the TLS 1.2 pseudo random function (RFC 5246 §5) and
// the TLS 1.3 HMAC-based key derivation function HKDF (RFC 5869) together
// with the HKDF-Expand-Label construction of RFC 8446 §7.1.
//
// In QTLS, PRF operations are offloadable to the QAT accelerator while
// HKDF is not ("the TLS 1.3 protocol introduces a new key derivation
// function named HKDF, which cannot be offloaded through the QAT Engine
// currently", §5.2) — which is why the TLS 1.3 speedup in Fig. 8 is lower
// than the TLS 1.2 one. Both are implemented here in pure Go over the
// standard library's HMAC; the engine layer decides what gets offloaded.
package prf

import (
	"crypto/hmac"
	"crypto/sha256"
	"hash"
)

// TLS12 computes PRF(secret, label, seed) with P_SHA256 as specified by
// RFC 5246 §5 for TLS 1.2, producing length bytes.
func TLS12(secret []byte, label string, seed []byte, length int) []byte {
	return NewTLS12Key(secret).Derive(label, seed, length)
}

// TLS12Key is the TLS 1.2 PRF under one secret. Its HMAC is keyed once and
// reset per block, so a caller deriving several values from one secret (a
// connection's key block and both Finished messages from its master
// secret) keys it once. A TLS12Key is not safe for concurrent use.
type TLS12Key struct {
	mac hash.Hash
	buf []byte // A(i) ‖ label ‖ seed, reused across derivations
	// scratch backs buf while A(i) ‖ label ‖ seed fits: every derivation of
	// a TLS 1.2 handshake (two 32-byte randoms or one transcript hash as the
	// seed) does.
	scratch [128]byte
}

// NewTLS12Key keys the PRF's HMAC with secret.
func NewTLS12Key(secret []byte) *TLS12Key {
	k := &TLS12Key{mac: hmac.New(sha256.New, secret)}
	k.buf = k.scratch[:0]
	return k
}

// Derive is PRF(secret, label, seed) producing length bytes: P_SHA256 of
// RFC 5246 §5 over label ‖ seed,
//
//	P_hash(secret, seed) = HMAC_hash(secret, A(1) + seed) +
//	                       HMAC_hash(secret, A(2) + seed) + ...
//	A(0) = seed, A(i) = HMAC_hash(secret, A(i-1))
//
// A(i) is summed into the front of the buffer it is then MACed with, and
// each output block straight into the result, which is the only
// allocation once the buffer has grown.
func (k *TLS12Key) Derive(label string, seed []byte, length int) []byte {
	const n = sha256.Size
	buf := append(k.buf[:0], make([]byte, n)...)
	buf = append(buf, label...)
	buf = append(buf, seed...)
	k.buf = buf
	a := buf[:n]
	prev := buf[n:] // A(0) = label ‖ seed
	out := make([]byte, 0, (length+n-1)/n*n)
	for len(out) < length {
		k.mac.Reset()
		k.mac.Write(prev)
		k.mac.Sum(a[:0]) // A(i)
		prev = a
		k.mac.Reset()
		k.mac.Write(buf)
		out = k.mac.Sum(out)
	}
	return out[:length]
}

// HKDFExtract computes HKDF-Extract(salt, ikm) with SHA-256 (RFC 5869 §2.2).
// A nil or empty salt is replaced by a string of HashLen zeros.
func HKDFExtract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, sha256.Size)
	}
	mac := hmac.New(sha256.New, salt)
	mac.Write(ikm)
	return mac.Sum(nil)
}

// HKDFExpand computes HKDF-Expand(prk, info, length) with SHA-256
// (RFC 5869 §2.3). length must not exceed 255*HashLen.
func HKDFExpand(prk, info []byte, length int) []byte {
	if length > 255*sha256.Size {
		panic("prf: HKDF-Expand length too large")
	}
	var (
		out  = make([]byte, 0, length)
		t    []byte
		ctr  byte
		hmac = hmac.New(sha256.New, prk)
	)
	for len(out) < length {
		ctr++
		hmac.Reset()
		hmac.Write(t)
		hmac.Write(info)
		hmac.Write([]byte{ctr})
		t = hmac.Sum(nil)
		out = append(out, t...)
	}
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
