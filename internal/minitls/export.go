package minitls

import (
	"errors"
	"io"
)

// Key-export seam. After a handshake completes, the negotiated
// record-protection keys of the write direction can be exported and built
// into a RecordCodec that seals and opens records outside the Conn
// (internal/record, the record-path tests and benchmark probes).

// Exported wire record-type values, for code that frames or inspects
// records outside a Conn.
const (
	// RecordTypeAlert frames alert records (close-notify).
	RecordTypeAlert uint8 = recordAlert
	// RecordTypeApplicationData frames application-data records.
	RecordTypeApplicationData uint8 = recordApplicationData
)

var (
	errNotExportable = errors.New("minitls: record protection is not exportable")
	errNotDone       = errors.New("minitls: handshake not complete")
)

// KeyMaterial is one direction's record-protection state, exported after
// handshake completion. Exactly one of MACKey (TLS 1.2 CBC+HMAC) or IV
// (TLS 1.3 AES-GCM) is set; Seq is the sequence number the next record
// in that direction must use — continuity is what keeps the peer able to
// read records sealed outside the Conn.
type KeyMaterial struct {
	Version uint16
	Suite   uint16
	// Key is the AES-128 cipher key (both suite families).
	Key []byte
	// MACKey is the HMAC-SHA1 key (TLS 1.2 CBC suites).
	MACKey []byte
	// IV is the implicit per-connection nonce (TLS 1.3 GCM suites).
	IV []byte
	// Seq is the next record sequence number for this direction.
	Seq uint64
}

// RecordCodec seals and opens TLS records outside a Conn, built from
// exported KeyMaterial. The caller owns sequence numbers, and Seal and
// Open keep no state between records that concurrent calls could corrupt,
// so one codec may protect records concurrently.
type RecordCodec interface {
	// Seal protects payload as a record of the given type under seq. The
	// whole wire record (header included) is sealed in place in a pooled
	// buffer taken for this call; the caller gives it to PutWireBuf once
	// its bytes are written, or drops it.
	Seal(seq uint64, typ uint8, payload []byte, rnd io.Reader) (*WireBuf, error)
	// Open decrypts a wire body under seq in place, returning the inner
	// record type and the plaintext, which aliases body.
	Open(seq uint64, wireTyp uint8, body []byte) (typ uint8, payload []byte, err error)
	// Overhead is the per-record ciphertext expansion upper bound.
	Overhead() int
}

// codec adapts the internal recordProtection to the exported interface.
type codec struct{ prot recordProtection }

func (c codec) Seal(seq uint64, typ uint8, payload []byte, rnd io.Reader) (*WireBuf, error) {
	return sealRecord(c.prot, seq, typ, payload, nil, rnd)
}

func (c codec) Open(seq uint64, wireTyp uint8, body []byte) (uint8, []byte, error) {
	return c.prot.open(seq, wireTyp, body)
}

func (c codec) Overhead() int { return c.prot.overhead() }

// NewRecordCodec builds a RecordCodec from exported key material. The
// suite family is inferred from which key fields are present.
func NewRecordCodec(km KeyMaterial) (RecordCodec, error) {
	switch {
	case len(km.MACKey) > 0:
		p, err := newCBCProtection(cbcKeys{cipherKey: km.Key, macKey: km.MACKey})
		if err != nil {
			return nil, err
		}
		return codec{prot: p}, nil
	case len(km.IV) > 0:
		p, err := newGCMProtection(gcmKeys{key: km.Key, iv: km.IV})
		if err != nil {
			return nil, err
		}
		return codec{prot: p}, nil
	default:
		return nil, errors.New("minitls: key material carries neither MAC key nor IV")
	}
}

// keyExporter is implemented by protections whose raw keys can be
// exported (nullProtection cannot — exporting before the handshake
// installed keys is always an error).
type keyExporter interface {
	exportKeys() KeyMaterial
}

func (p *cbcProtection) exportKeys() KeyMaterial {
	return KeyMaterial{
		Key:    append([]byte(nil), p.raw.cipherKey...),
		MACKey: append([]byte(nil), p.raw.macKey...),
	}
}

func (p *gcmProtection) exportKeys() KeyMaterial {
	return KeyMaterial{
		Key: append([]byte(nil), p.key...),
		IV:  append([]byte(nil), p.iv...),
	}
}

// ExportWriteKeys exports the out-direction record keys and the next
// sequence number. Valid only after the handshake has completed.
func (c *Conn) ExportWriteKeys() (KeyMaterial, error) {
	if !c.handshakeDone {
		return KeyMaterial{}, errNotDone
	}
	if c.permErr != nil {
		return KeyMaterial{}, c.permErr
	}
	ex, ok := c.out.protection().(keyExporter)
	if !ok {
		return KeyMaterial{}, errNotExportable
	}
	km := ex.exportKeys()
	km.Version = c.version
	km.Suite = c.suite
	km.Seq = c.out.seq
	return km, nil
}
