package minitls

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"qtls/internal/minitls/cbc"
)

// Record content types.
const (
	recordChangeCipherSpec uint8 = 20
	recordAlert            uint8 = 21
	recordHandshake        uint8 = 22
	recordApplicationData  uint8 = 23
)

// MaxPlaintext is the maximum TLS plaintext fragment (RFC 5246/8446
// §6.2.1): data objects larger than 16 KB are fragmented (§2.1), which is
// what makes the cipher-op count grow with file size in Fig. 10 (one
// 128 KB response = 8 cipher operations). Write fragments at this
// boundary, but for the first record of a turn, which fits one TCP segment
// (Conn.firstRecordLen); the software record stream (internal/record)
// sizes its pooled buffers from it.
const MaxPlaintext = 16384

// RecordHeaderLen is the TLS record header size on the wire
// (type + legacy version + length).
const RecordHeaderLen = 5

const recordHeaderLen = RecordHeaderLen

// MaxCiphertext bounds an encrypted record body (plaintext + IV + MAC +
// padding + AEAD overhead, with slack).
const MaxCiphertext = MaxPlaintext + 512

const maxCiphertext = MaxCiphertext

var errRecordOverflow = errors.New("minitls: oversized record")

// alertError is a fatal alert received from the peer.
type alertError struct {
	level uint8
	desc  uint8
}

func (a *alertError) Error() string {
	if a.level == 1 && a.desc == 0 {
		return "minitls: close notify"
	}
	return fmt.Sprintf("minitls: alert level=%d desc=%d", a.level, a.desc)
}

// errCloseNotify is the orderly-shutdown alert.
var errCloseNotify = &alertError{level: 1, desc: 0}

// WireBuf is a pooled wire buffer with room for one whole TLS record, laid
// out [5-byte header | explicit IV or nothing | payload | MAC/tag |
// padding]. Records are sealed into it and encrypted in place. Ownership
// (DESIGN.md "Record plane: who owns a wire buffer"): every run of a seal
// takes a buffer of its own (sealRecord) and hands it on as its result;
// the consumer calls PutWireBuf only after the transport's Write has
// returned; a result nobody consumes (a late or cancelled offload) is
// left to the garbage collector, never Put. During the handshake one
// WireBuf per Conn also serves as the flight buffer, holding several
// sealed records back to back (Conn.queueFlight).
type WireBuf struct {
	n int // length of the sealed record in b
	// nonce is the AEAD nonce scratch: an array on the sealing goroutine's
	// stack would escape to the heap through the cipher.AEAD interface.
	nonce [12]byte
	b     [RecordHeaderLen + MaxCiphertext]byte
}

var wireBufPool = sync.Pool{New: func() any { return new(WireBuf) }}

// PutWireBuf returns w to the pool. The caller must hold the only
// reference, and nothing may still read w.Bytes().
func PutWireBuf(w *WireBuf) { wireBufPool.Put(w) }

// sealRecord seals one record into a pooled wire buffer taken for this
// call alone.
func sealRecord(prot recordProtection, seq uint64, typ uint8, p0, p1 []byte, rnd io.Reader) (*WireBuf, error) {
	if len(p0)+len(p1) > MaxPlaintext {
		return nil, errRecordOverflow
	}
	w := wireBufPool.Get().(*WireBuf)
	if err := prot.seal(w, seq, typ, p0, p1, rnd); err != nil {
		PutWireBuf(w)
		return nil, err
	}
	return w, nil
}

// Bytes returns the sealed wire record, header included. It aliases the
// buffer: valid until PutWireBuf.
func (w *WireBuf) Bytes() []byte { return w.b[:w.n] }

// gather copies p0‖p1 into w at off and returns the end offset.
func (w *WireBuf) gather(off int, p0, p1 []byte) int {
	off += copy(w.b[off:], p0)
	return off + copy(w.b[off:], p1)
}

// finish writes the record header for a record ending at offset end.
func (w *WireBuf) finish(wireTyp uint8, end int) {
	w.b[0], w.b[1], w.b[2] = wireTyp, 0x03, 0x03
	binary.BigEndian.PutUint16(w.b[3:5], uint16(end-recordHeaderLen))
	w.n = end
}

// recordProtection seals and opens records in place. Implementations:
// nullProtection, cbcProtection (TLS 1.2 AES-128-CBC + HMAC-SHA1,
// MAC-then-encrypt) and gcmProtection (TLS 1.3 AES-128-GCM). seal and
// open keep no state between records that a concurrent call could
// corrupt (the caller owns sequence numbers): an offloaded seal may run
// twice, even at once — the op-deadline fallback recomputes it on the
// worker while a slow device still executes the original.
type recordProtection interface {
	// seal writes the whole wire record protecting the payload p0‖p1
	// (either part may be empty; sealRecord bounds their sum to
	// MaxPlaintext) into w and encrypts it in place.
	seal(w *WireBuf, seq uint64, typ uint8, p0, p1 []byte, rnd io.Reader) error
	// open decrypts a wire body in place, returning the inner record type
	// and the plaintext, which aliases body.
	open(seq uint64, wireTyp uint8, body []byte) (typ uint8, payload []byte, err error)
	// overhead returns the per-record ciphertext expansion upper bound. It
	// also sizes the first record of a turn, whose header, payload and
	// expansion fit one TCP segment (Conn.firstRecordLen).
	overhead() int
}

// nullProtection is the initial (plaintext) state.
type nullProtection struct{}

func (nullProtection) seal(w *WireBuf, _ uint64, typ uint8, p0, p1 []byte, _ io.Reader) error {
	w.finish(typ, w.gather(recordHeaderLen, p0, p1))
	return nil
}

func (nullProtection) open(_ uint64, wireTyp uint8, body []byte) (uint8, []byte, error) {
	return wireTyp, body, nil
}

func (nullProtection) overhead() int { return 0 }

// cbcKeys is the directional key material for the CBC+HMAC suite.
type cbcKeys struct {
	cipherKey []byte // 16 bytes (AES-128)
	macKey    []byte // 20 bytes (HMAC-SHA1)
}

// cbcProtection implements TLS 1.2 AES-128-CBC with HMAC-SHA1,
// MAC-then-encrypt with a per-record explicit IV, on package cbc's
// kernels. Its expanded keys and MAC pad states are held by value and
// never written after init, so a seal or open may run twice, even at once,
// with nothing to take or give back. init rewrites them only when a Conn
// starts a new life, and a Conn with an abandoned op never does
// (Conn.OpAbandoned).
type cbcProtection struct {
	raw  cbcKeys // for key export
	keys cbc.Keys
}

func newCBCProtection(k cbcKeys) (*cbcProtection, error) {
	p := new(cbcProtection)
	if err := p.init(k); err != nil {
		return nil, err
	}
	return p, nil
}

// init keys p in place, replacing whatever it held: a halfConn keeps its
// CBC protection by value.
func (p *cbcProtection) init(k cbcKeys) error {
	if err := p.keys.Init(k.cipherKey, k.macKey); err != nil {
		return fmt.Errorf("minitls: CBC keys: %w", err)
	}
	p.raw = k
	return nil
}

func (p *cbcProtection) overhead() int { return cbc.Overhead }

func (p *cbcProtection) seal(w *WireBuf, seq uint64, typ uint8, p0, p1 []byte, rnd io.Reader) error {
	rec := w.b[recordHeaderLen:] // explicit IV ‖ payload ‖ MAC ‖ padding
	if _, err := io.ReadFull(rnd, rec[:cbc.BlockSize]); err != nil {
		return err
	}
	n := w.gather(recordHeaderLen+cbc.BlockSize, p0, p1) - recordHeaderLen - cbc.BlockSize
	w.finish(typ, recordHeaderLen+p.keys.Seal(rec, n, seq, typ))
	return nil
}

func (p *cbcProtection) open(seq uint64, wireTyp uint8, body []byte) (uint8, []byte, error) {
	payload, err := p.keys.Open(body, seq, wireTyp)
	if err != nil {
		return 0, nil, fmt.Errorf("minitls: %w", err)
	}
	return wireTyp, payload, nil
}

// gcmKeys is the directional key material for the TLS 1.3 AEAD.
type gcmKeys struct {
	key []byte // 16 bytes
	iv  []byte // 12 bytes
}

// gcmProtection implements TLS 1.3 AES-128-GCM record protection with the
// inner-content-type construction of RFC 8446 §5.2. The raw key is
// retained for the key-export seam (Conn.ExportWriteKeys), which hands it
// to a RecordCodec outside the Conn after the handshake.
type gcmProtection struct {
	aead cipher.AEAD
	key  []byte
	iv   []byte
}

func newGCMProtection(k gcmKeys) (*gcmProtection, error) {
	if len(k.key) != 16 || len(k.iv) != 12 {
		return nil, errors.New("minitls: bad GCM key lengths")
	}
	block, err := aes.NewCipher(k.key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &gcmProtection{aead: aead, key: k.key, iv: k.iv}, nil
}

func (p *gcmProtection) overhead() int { return 1 + p.aead.Overhead() }

// nonce writes the per-record nonce (IV xor sequence number) into n.
func (p *gcmProtection) nonce(n []byte, seq uint64) []byte {
	copy(n, p.iv)
	for i := 0; i < 8; i++ {
		n[4+i] ^= byte(seq >> (56 - 8*i))
	}
	return n
}

func (p *gcmProtection) seal(w *WireBuf, seq uint64, typ uint8, p0, p1 []byte, _ io.Reader) error {
	end := w.gather(recordHeaderLen, p0, p1)
	w.b[end] = typ
	end++
	// The additional data is the record header as it goes on the wire
	// (RFC 8446 §5.2), so it is written first and read from the buffer.
	w.finish(recordApplicationData, end+p.aead.Overhead())
	inner := w.b[recordHeaderLen:end]
	p.aead.Seal(inner[:0], p.nonce(w.nonce[:], seq), inner, w.b[:recordHeaderLen])
	return nil
}

func (p *gcmProtection) open(seq uint64, wireTyp uint8, body []byte) (uint8, []byte, error) {
	if wireTyp != recordApplicationData {
		// Unprotected CCS records may appear in TLS 1.3 middlebox-compat
		// mode; this stack never sends them.
		return 0, nil, errDecode
	}
	// One scratch allocation for nonce and additional data (both escape
	// through the cipher.AEAD interface).
	scratch := make([]byte, 12+recordHeaderLen)
	aad := append(scratch[12:12], recordApplicationData, 0x03, 0x03, byte(len(body)>>8), byte(len(body)))
	inner, err := p.aead.Open(body[:0], p.nonce(scratch[:12], seq), body, aad)
	if err != nil {
		return 0, nil, errors.New("minitls: record authentication failed")
	}
	// Strip zero padding then the inner content type.
	i := len(inner) - 1
	for i >= 0 && inner[i] == 0 {
		i--
	}
	if i < 0 {
		return 0, nil, errDecode
	}
	return inner[i], inner[:i], nil
}

// halfConn is one direction of a connection's record state. A TLS 1.2
// direction's protection is its own cbc, held by value.
type halfConn struct {
	prot recordProtection
	seq  uint64
	cbc  cbcProtection
}

func (h *halfConn) protection() recordProtection {
	if h.prot == nil {
		return nullProtection{}
	}
	return h.prot
}

// setProtection installs new keys and resets the sequence number (as on
// ChangeCipherSpec / TLS 1.3 key install).
func (h *halfConn) setProtection(p recordProtection) {
	h.prot = p
	h.seq = 0
}

// setCBC keys the direction's own CBC protection and installs it.
func (h *halfConn) setCBC(k cbcKeys) error {
	if err := h.cbc.init(k); err != nil {
		return err
	}
	h.setProtection(&h.cbc)
	return nil
}
