package prf

import (
	"crypto/sha256"
	"encoding"
	"hash"
	"sync"
)

// maxState bounds SHA-256's marshalled state: a 4-byte magic, eight
// 32-bit words, one 64-byte block and a 64-bit length.
const maxState = 108

// blockSize is SHA-256's block size.
const blockSize = 64

// HMAC is HMAC-SHA256 (RFC 2104), re-keyable in place. It does what
// crypto/hmac does after its first Reset — the inner and outer digests'
// states after absorbing key⊕ipad and key⊕opad are saved once per key and
// restored on Reset and Sum, so a MAC costs the same compressions — but
// keeping the saved states and its scratch in the value, it allocates
// nothing once built, however often it is re-keyed.
// GetHMAC and PutHMAC pool them across connections.
//
// An HMAC is not safe for concurrent use, and it must not be copied.
type HMAC struct {
	inner, outer hash.Hash
	iload, oload encoding.BinaryUnmarshaler // inner and outer, for restoring
	// ipad and opad are the saved states, backed by istate and ostate (or,
	// on a toolchain whose digests cannot append their state, by one
	// allocation each per key).
	ipad, opad     []byte
	istate, ostate [maxState]byte
	// pad is SetKey's scratch: a hashed key, then key⊕ipad and key⊕opad.
	// Bytes handed to a digest escape, so it lives here, not on the stack.
	pad [blockSize]byte
}

// newHMAC builds an HMAC keyed with key.
func newHMAC(key []byte) *HMAC {
	m := &HMAC{inner: sha256.New(), outer: sha256.New()}
	m.iload = m.inner.(encoding.BinaryUnmarshaler)
	m.oload = m.outer.(encoding.BinaryUnmarshaler)
	m.SetKey(key)
	return m
}

// SetKey re-keys m with key and resets it.
func (m *HMAC) SetKey(key []byte) {
	if len(key) > blockSize {
		m.outer.Reset()
		m.outer.Write(key)
		key = m.outer.Sum(m.pad[:0])
	}
	n := copy(m.pad[:], key)
	clear(m.pad[n:])
	for i := range m.pad {
		m.pad[i] ^= 0x36
	}
	m.inner.Reset()
	m.inner.Write(m.pad[:])
	m.ipad = saveState(m.inner, m.istate[:0])
	for i := range m.pad {
		m.pad[i] ^= 0x36 ^ 0x5c
	}
	m.outer.Reset()
	m.outer.Write(m.pad[:])
	m.opad = saveState(m.outer, m.ostate[:0])
}

// binaryAppender is encoding.BinaryAppender, which the standard digests
// implement from go1.24 on; it is declared here so the package still
// builds with go1.23, where saveState falls back to MarshalBinary.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// saveState appends d's state to buf.
func saveState(d hash.Hash, buf []byte) []byte {
	var s []byte
	var err error
	if a, ok := d.(binaryAppender); ok {
		s, err = a.AppendBinary(buf)
	} else {
		s, err = d.(encoding.BinaryMarshaler).MarshalBinary()
	}
	if err != nil {
		panic("prf: " + err.Error()) // unreachable: the standard digests marshal
	}
	return s
}

// restore loads a state saveState took.
func restore(d encoding.BinaryUnmarshaler, state []byte) {
	if err := d.UnmarshalBinary(state); err != nil {
		panic("prf: " + err.Error()) // unreachable: the state is the digest's own
	}
}

// Reset restores the keyed state: the next Sum covers what is written
// from now on.
func (m *HMAC) Reset() { restore(m.iload, m.ipad) }

// Write adds p to the MAC's input. It never fails.
func (m *HMAC) Write(p []byte) (int, error) { return m.inner.Write(p) }

// Sum appends the MAC of what was written since the last Reset to b. It
// does not change the input, and it writes its inner digest into b's
// spare capacity first, so a caller with room there allocates nothing.
func (m *HMAC) Sum(b []byte) []byte {
	n := len(b)
	b = m.inner.Sum(b)
	restore(m.oload, m.opad)
	m.outer.Write(b[n:])
	return m.outer.Sum(b[:n])
}

// hmacPool holds idle HMACs.
var hmacPool sync.Pool

// GetHMAC returns an HMAC keyed with key, from the pool when one is idle.
// Give it back with PutHMAC.
func GetHMAC(key []byte) *HMAC {
	if m, ok := hmacPool.Get().(*HMAC); ok {
		m.SetKey(key)
		return m
	}
	return newHMAC(key)
}

// PutHMAC returns m to the pool. The caller must hold the only reference:
// nothing may use m afterwards.
func PutHMAC(m *HMAC) { hmacPool.Put(m) }
