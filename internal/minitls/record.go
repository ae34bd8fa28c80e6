package minitls

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha1"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"qtls/internal/minitls/prf"
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

// cbcMode is a CBC mode that can be re-keyed with a new IV (every
// standard-library implementation; crypto/tls relies on the same).
type cbcMode interface {
	cipher.BlockMode
	SetIV([]byte)
}

// cbcState is the mutable half of a CBC direction: one keyed HMAC, reset
// per record, and the CBC modes, re-keyed per record with SetIV.
type cbcState struct {
	mac      *prf.HMAC
	enc, dec cbcMode
	// scratch holds the 13-byte MAC pseudo-header and, on open, the
	// expected MAC — here so neither escapes to the heap per record.
	scratch [13 + sha1.Size]byte
}

// cbcProtection implements TLS 1.2 style AES-CBC with HMAC-SHA1,
// MAC-then-encrypt with a per-record explicit IV. The AES block is
// stateless and shared; the mutable state is built with the protection
// and taken by one execution at a time.
type cbcProtection struct {
	keys  cbcKeys
	block cipher.Block
	// busy is set while an execution holds st, and for good once release
	// has given st's MAC back to the pool. An execution that finds it set
	// builds a state of its own.
	busy atomic.Bool
	st   cbcState
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
	if len(k.cipherKey) != 16 || len(k.macKey) != 20 {
		return errors.New("minitls: bad CBC key lengths")
	}
	block, err := aes.NewCipher(k.cipherKey)
	if err != nil {
		return err
	}
	*p = cbcProtection{keys: k, block: block}
	p.st.mac = prf.GetHMAC(prf.SHA1, k.macKey)
	return nil
}

// takeState returns p's own state, or a new one keyed from the pool when
// another execution holds it. Give it back with putState.
func (p *cbcProtection) takeState() *cbcState {
	if p.busy.CompareAndSwap(false, true) {
		return &p.st
	}
	return &cbcState{mac: prf.GetHMAC(prf.SHA1, p.keys.macKey)}
}

// putState ends an execution's hold on st. A state of its own goes back
// to the pool with its MAC: the execution that built it is its only owner.
func (p *cbcProtection) putState(st *cbcState) {
	if st == &p.st {
		p.busy.Store(false)
		return
	}
	prf.PutHMAC(st.mac)
}

// release gives the MAC back to the pool once the connection is done with
// p. An execution still holding the state — a seal abandoned at its op
// deadline, still running on a device — keeps it, and it goes to the
// garbage collector with p. Once the MAC is back, every execution builds
// its own.
func (p *cbcProtection) release() {
	if p.busy.CompareAndSwap(false, true) {
		prf.PutHMAC(p.st.mac)
		p.st.mac = nil
	}
}

func (p *cbcProtection) overhead() int { return aes.BlockSize /*IV*/ + sha1.Size + aes.BlockSize /*pad*/ }

// appendMAC appends the record MAC of payload to dst.
func (st *cbcState) appendMAC(dst []byte, seq uint64, typ uint8, payload []byte) []byte {
	hdr := st.scratch[:13]
	binary.BigEndian.PutUint64(hdr[:8], seq)
	hdr[8] = typ
	binary.BigEndian.PutUint16(hdr[9:11], VersionTLS12)
	binary.BigEndian.PutUint16(hdr[11:13], uint16(len(payload)))
	st.mac.Reset()
	st.mac.Write(hdr)
	st.mac.Write(payload)
	return st.mac.Sum(dst)
}

func (p *cbcProtection) seal(w *WireBuf, seq uint64, typ uint8, p0, p1 []byte, rnd io.Reader) error {
	const start = recordHeaderLen + aes.BlockSize // first encrypted byte
	iv := w.b[recordHeaderLen:start]
	if _, err := io.ReadFull(rnd, iv); err != nil {
		return err
	}
	end := w.gather(start, p0, p1)
	st := p.takeState()
	end = len(st.appendMAC(w.b[:end], seq, typ, w.b[start:end]))
	// TLS padding: padLen bytes each holding padLen, plus the length byte
	// itself; total padded length is a multiple of the block size.
	padLen := aes.BlockSize - (end-start+1)%aes.BlockSize
	if padLen == aes.BlockSize {
		padLen = 0
	}
	for i := 0; i <= padLen; i++ {
		w.b[end] = byte(padLen)
		end++
	}
	if st.enc == nil {
		st.enc = cipher.NewCBCEncrypter(p.block, iv).(cbcMode)
	} else {
		st.enc.SetIV(iv)
	}
	st.enc.CryptBlocks(w.b[start:end], w.b[start:end])
	p.putState(st)
	w.finish(typ, end)
	return nil
}

func (p *cbcProtection) open(seq uint64, wireTyp uint8, body []byte) (uint8, []byte, error) {
	if len(body) < 2*aes.BlockSize || len(body)%aes.BlockSize != 0 {
		return 0, nil, errDecode
	}
	iv, plain := body[:aes.BlockSize], body[aes.BlockSize:]
	st := p.takeState()
	defer p.putState(st)
	if st.dec == nil {
		st.dec = cipher.NewCBCDecrypter(p.block, iv).(cbcMode)
	} else {
		st.dec.SetIV(iv)
	}
	st.dec.CryptBlocks(plain, plain)
	padLen := int(plain[len(plain)-1])
	if padLen+1+sha1.Size > len(plain) {
		return 0, nil, errors.New("minitls: bad record padding")
	}
	for _, b := range plain[len(plain)-1-padLen:] {
		if int(b) != padLen {
			return 0, nil, errors.New("minitls: bad record padding")
		}
	}
	plain = plain[:len(plain)-1-padLen]
	payload, mac := plain[:len(plain)-sha1.Size], plain[len(plain)-sha1.Size:]
	want := st.appendMAC(st.scratch[13:13], seq, wireTyp, payload)
	if subtle.ConstantTimeCompare(mac, want) != 1 {
		return 0, nil, errors.New("minitls: record MAC mismatch")
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
