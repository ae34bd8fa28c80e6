// Package cbc protects TLS 1.2 records under AES-128-CBC with HMAC-SHA1
// (TLS_*_WITH_AES_128_CBC_SHA: MAC-then-encrypt, a per-record explicit IV,
// RFC 5246 §6.2.3.2).
//
// Four functions carry the work: SHA-1 compression, AES-128 key expansion,
// a CBC-encrypt chain and a CBC decrypt. On amd64 with AES-NI, SHA-NI,
// SSSE3 and SSE4.1 they are assembly kernels (kernels_amd64.s). Elsewhere,
// and under the purego build tag, the standard library stands in: crypto/aes
// for the cipher, crypto/sha1 for the digest. One Go path above them holds
// the HMAC pad states, the 13-byte MAC pseudo-header, the padding and the
// IVs, so both choices seal and open byte-identical records.
package cbc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha1"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"errors"
	"hash"
	"sync"
)

const (
	// BlockSize is the AES block, which is also the explicit IV's length.
	BlockSize = aes.BlockSize
	// MACSize is the HMAC-SHA1 tag length.
	MACSize = sha1.Size
	// Overhead bounds what a record body adds to its payload: the
	// explicit IV, the MAC and at most one block of padding.
	Overhead = BlockSize + MACSize + BlockSize
)

var (
	errKeyLen  = errors.New("cbc: bad key lengths")
	errLength  = errors.New("cbc: record body is not whole blocks")
	errPadding = errors.New("cbc: bad record padding")
	errMAC     = errors.New("cbc: record MAC mismatch")
)

// useKernels selects the assembly kernels for Keys initialised from now
// on. It is set once from CPUID; tests switch it to compare both paths.
var useKernels = haveKernels

// Keys is one direction's keys, expanded once by Init. It is never
// written afterwards, so Seal and Open may run on one Keys at the same
// time, any number of times, and a Keys may be copied.
type Keys struct {
	// enc and dec are the AES-128 encrypt and AESIMC decrypt schedules
	// of the kernel path.
	enc, dec [44]uint32
	// block is the standard library's cipher on the fallback path, and
	// nil on the kernel path: a Keys stays on the path it was built on.
	block cipher.Block
	// ipad and opad are the SHA-1 states after one block of key⊕ipad
	// and key⊕opad (RFC 2104).
	ipad, opad [5]uint32
}

// Init keys k with a 16-byte AES key and a 20-byte MAC key.
func (k *Keys) Init(cipherKey, macKey []byte) error {
	if len(cipherKey) != 16 || len(macKey) != MACSize {
		return errKeyLen
	}
	*k = Keys{}
	if useKernels {
		expandKey((*[16]byte)(cipherKey), &k.enc, &k.dec)
	} else {
		block, err := aes.NewCipher(cipherKey)
		if err != nil {
			return err
		}
		k.block = block
	}
	var pad [64]byte
	copy(pad[:], macKey)
	for i := range pad {
		pad[i] ^= 0x36
	}
	k.ipad = sha1Init
	k.compress(&k.ipad, &pad)
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	k.opad = sha1Init
	k.compress(&k.opad, &pad)
	return nil
}

// Seal protects one record in place. rec[:BlockSize] holds the explicit
// IV and rec[BlockSize:BlockSize+n] the payload; Seal appends the MAC and
// the padding, encrypts everything after the IV and returns the body's
// length. rec must have room for Overhead-BlockSize bytes past the payload.
func (k *Keys) Seal(rec []byte, n int, seq uint64, typ uint8) int {
	end := BlockSize + n
	var tag [MACSize]byte
	k.mac(&tag, seq, typ, rec[BlockSize:end])
	end += copy(rec[end:], tag[:])
	// padLen bytes each holding padLen, plus the length byte itself: the
	// encrypted part becomes whole blocks.
	padLen := BlockSize - 1 - (end-BlockSize)%BlockSize
	for i := 0; i <= padLen; i++ {
		rec[end] = byte(padLen)
		end++
	}
	body := rec[BlockSize:end]
	k.encrypt((*[BlockSize]byte)(rec), body, body)
	return end
}

// Open decrypts body (explicit IV ‖ ciphertext) in place, checks its
// padding and MAC, and returns the payload, which aliases body.
func (k *Keys) Open(body []byte, seq uint64, typ uint8) ([]byte, error) {
	if len(body) < 2*BlockSize || len(body)%BlockSize != 0 {
		return nil, errLength
	}
	plain := body[BlockSize:]
	k.decrypt((*[BlockSize]byte)(body), plain, plain)
	padLen := int(plain[len(plain)-1])
	if padLen+1+MACSize > len(plain) {
		return nil, errPadding
	}
	for _, b := range plain[len(plain)-1-padLen:] {
		if int(b) != padLen {
			return nil, errPadding
		}
	}
	plain = plain[:len(plain)-1-padLen]
	payload, got := plain[:len(plain)-MACSize], plain[len(plain)-MACSize:]
	var want [MACSize]byte
	k.mac(&want, seq, typ, payload)
	if subtle.ConstantTimeCompare(got, want[:]) != 1 {
		return nil, errMAC
	}
	return payload, nil
}

// mac writes the record MAC of payload: HMAC-SHA1 over the 13-byte
// pseudo-header (sequence number, type, version, length) and the payload.
func (k *Keys) mac(out *[MACSize]byte, seq uint64, typ uint8, payload []byte) {
	var hdr [13]byte
	binary.BigEndian.PutUint64(hdr[:8], seq)
	hdr[8] = typ
	binary.BigEndian.PutUint16(hdr[9:11], 0x0303) // TLS 1.2
	binary.BigEndian.PutUint16(hdr[11:13], uint16(len(payload)))
	var inner [MACSize]byte
	k.finish(&inner, &k.ipad, hdr[:], payload)
	k.finish(out, &k.opad, inner[:], nil)
}

// sha1Init is SHA-1's initial state.
var sha1Init = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}

// compress absorbs one block into the SHA-1 state h.
func (k *Keys) compress(h *[5]uint32, block *[64]byte) {
	if k.block == nil {
		sha1Block(h, block[:])
		return
	}
	s := stdSHA1Pool.Get().(*stdSHA1)
	s.compress(h, block)
	stdSHA1Pool.Put(s)
}

// finish completes a SHA-1 that has absorbed one block into state h, over
// p0‖p1, and writes the digest to out. p0 is at most one block.
func (k *Keys) finish(out *[MACSize]byte, h *[5]uint32, p0, p1 []byte) {
	if k.block != nil {
		s := stdSHA1Pool.Get().(*stdSHA1)
		s.finish(out, h, p0, p1)
		stdSHA1Pool.Put(s)
		return
	}
	total := 64 + len(p0) + len(p1)
	st := *h
	var buf [128]byte
	m := copy(buf[:], p0)
	if len(p1) >= 64-m {
		p1 = p1[copy(buf[m:64], p1):]
		sha1Block(&st, buf[:64])
		whole := len(p1) &^ 63
		sha1Block(&st, p1[:whole])
		m = copy(buf[:], p1[whole:])
	} else {
		m += copy(buf[m:], p1)
	}
	// Padding: 0x80, zeros, then the message length in bits, key block
	// included.
	n := 64
	if m+9 > 64 {
		n = 128
	}
	buf[m] = 0x80
	clear(buf[m+1 : n-8])
	binary.BigEndian.PutUint64(buf[n-8:n], uint64(total)*8)
	sha1Block(&st, buf[:n])
	for i, v := range st {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
}

// encrypt CBC-encrypts src into dst under iv. len(src) is whole blocks,
// and dst and src overlap entirely or not at all.
func (k *Keys) encrypt(iv *[BlockSize]byte, dst, src []byte) {
	if k.block == nil {
		encryptCBC(&k.enc, dst, src, iv)
		return
	}
	b := dst[:copy(dst, src)]
	prev := iv[:]
	for len(b) > 0 {
		subtle.XORBytes(b[:BlockSize], b[:BlockSize], prev)
		k.block.Encrypt(b, b)
		prev, b = b[:BlockSize], b[BlockSize:]
	}
}

// decrypt CBC-decrypts src into dst under iv, as encrypt. The fallback
// walks the blocks from the last, so in place each block's predecessor is
// still ciphertext when it is needed.
func (k *Keys) decrypt(iv *[BlockSize]byte, dst, src []byte) {
	if k.block == nil {
		decryptCBC(&k.dec, dst, src, iv)
		return
	}
	b := dst[:copy(dst, src)]
	for i := len(b) - BlockSize; i >= 0; i -= BlockSize {
		k.block.Decrypt(b[i:], b[i:])
		prev := iv[:]
		if i > 0 {
			prev = b[i-BlockSize : i]
		}
		subtle.XORBytes(b[i:i+BlockSize], b[i:i+BlockSize], prev)
	}
}

// stdSHA1 is a crypto/sha1 digest with scratch of its own, pooled so the
// fallback allocates nothing per record and concurrent calls never share
// one: whatever is handed to the digest escapes through hash.Hash, so
// short inputs are copied into buf first.
type stdSHA1 struct {
	d     hash.Hash
	state [96]byte // crypto/sha1's marshalled state
	buf   [64]byte
}

var stdSHA1Pool = sync.Pool{New: func() any { return &stdSHA1{d: sha1.New()} }}

// binaryAppender is encoding.BinaryAppender, which crypto/sha1 implements
// from go1.24 on; declared here so the package builds with go1.23, where
// compress falls back to MarshalBinary.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// compress is Keys.compress on crypto/sha1: it hashes the block from h and
// reads the new state back out of the digest's marshalled form.
func (s *stdSHA1) compress(h *[5]uint32, block *[64]byte) {
	s.resume(h, 0)
	copy(s.buf[:], block[:])
	s.d.Write(s.buf[:])
	var b []byte
	var err error
	if a, ok := s.d.(binaryAppender); ok {
		b, err = a.AppendBinary(s.state[:0])
	} else {
		b, err = s.d.(encoding.BinaryMarshaler).MarshalBinary()
	}
	if err != nil {
		panic("cbc: " + err.Error()) // unreachable: crypto/sha1 marshals
	}
	for i := range h {
		h[i] = binary.BigEndian.Uint32(b[4+4*i:])
	}
}

// finish is Keys.finish on crypto/sha1.
func (s *stdSHA1) finish(out *[MACSize]byte, h *[5]uint32, p0, p1 []byte) {
	s.resume(h, 64)
	s.d.Write(s.buf[:copy(s.buf[:], p0)])
	s.d.Write(p1)
	copy(out[:], s.d.Sum(s.buf[:0]))
}

// resume sets the digest to state h after n bytes (a multiple of the
// block size) through crypto/sha1's marshalled form: magic, state,
// pending block, length.
func (s *stdSHA1) resume(h *[5]uint32, n uint64) {
	b := s.state[:]
	copy(b, "sha\x01")
	for i, v := range h {
		binary.BigEndian.PutUint32(b[4+4*i:], v)
	}
	clear(b[24:88])
	binary.BigEndian.PutUint64(b[88:], n)
	if err := s.d.(encoding.BinaryUnmarshaler).UnmarshalBinary(b); err != nil {
		panic("cbc: " + err.Error()) // unreachable: the layout is crypto/sha1's
	}
}
