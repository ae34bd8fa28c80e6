package minitls

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Handshake message types (RFC 5246 / RFC 8446 values).
const (
	typeClientHello         uint8 = 1
	typeServerHello         uint8 = 2
	typeNewSessionTicket    uint8 = 4
	typeEncryptedExtensions uint8 = 8
	typeCertificate         uint8 = 11
	typeServerKeyExchange   uint8 = 12
	typeServerHelloDone     uint8 = 14
	typeCertificateVerify   uint8 = 15
	typeClientKeyExchange   uint8 = 16
	typeFinished            uint8 = 20
)

// Extension identifiers.
const (
	extServerName        uint16 = 0
	extSessionTicket     uint16 = 35
	extPreSharedKey      uint16 = 41
	extSupportedVersions uint16 = 43
	extKeyShare          uint16 = 51
)

// Named curve identifiers (RFC 8422).
const (
	curveP256 uint16 = 23
	curveP384 uint16 = 24
)

// errDecode is returned on any malformed message.
var errDecode = errors.New("minitls: malformed message")

// builder assembles length-prefixed wire structures.
type builder struct{ b []byte }

func (w *builder) bytes() []byte  { return w.b }
func (w *builder) u8(v uint8)     { w.b = append(w.b, v) }
func (w *builder) u16(v uint16)   { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *builder) u24(v int)      { w.b = append(w.b, byte(v>>16), byte(v>>8), byte(v)) }
func (w *builder) u32(v uint32)   { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *builder) raw(p []byte)   { w.b = append(w.b, p...) }
func (w *builder) vec8(p []byte)  { w.u8(uint8(len(p))); w.raw(p) }
func (w *builder) vec16(p []byte) { w.u16(uint16(len(p))); w.raw(p) }
func (w *builder) vec24(p []byte) { w.u24(len(p)); w.raw(p) }

// prefixed16 and prefixed24 append a length prefix, then whatever body
// appends, and fill the prefix in: a nested vector is built in place, not
// in a builder of its own.
func (w *builder) prefixed16(body func()) {
	at := len(w.b)
	w.u16(0)
	body()
	binary.BigEndian.PutUint16(w.b[at:], uint16(len(w.b)-at-2))
}

func (w *builder) prefixed24(body func()) {
	at := len(w.b)
	w.u24(0)
	body()
	n := len(w.b) - at - 3
	w.b[at], w.b[at+1], w.b[at+2] = byte(n>>16), byte(n>>8), byte(n)
}

// newMsg starts a handshake message of type typ in dst's storage, or, when
// dst has no room for about size body bytes, in one new allocation of that
// size: either way the message is built where it is sent from.
func newMsg(dst []byte, typ uint8, size int) builder {
	if cap(dst) < 4+size {
		dst = make([]byte, 0, 4+size)
	}
	return builder{b: append(dst[:0], typ, 0, 0, 0)}
}

// msg fills in the length of a message newMsg started and returns it,
// framed: msg_type(1) || length(3) || body.
func (w *builder) msg() []byte {
	n := len(w.b) - 4
	w.b[1], w.b[2], w.b[3] = byte(n>>16), byte(n>>8), byte(n)
	return w.b
}

// reader consumes length-prefixed wire structures.
type reader struct{ b []byte }

func (r *reader) empty() bool { return len(r.b) == 0 }

func (r *reader) u8() (uint8, error) {
	if len(r.b) < 1 {
		return 0, errDecode
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if len(r.b) < 2 {
		return 0, errDecode
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v, nil
}

func (r *reader) u24() (int, error) {
	if len(r.b) < 3 {
		return 0, errDecode
	}
	v := int(r.b[0])<<16 | int(r.b[1])<<8 | int(r.b[2])
	r.b = r.b[3:]
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, errDecode
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || len(r.b) < n {
		return nil, errDecode
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) vec8() ([]byte, error) {
	n, err := r.u8()
	if err != nil {
		return nil, err
	}
	return r.take(int(n))
}

func (r *reader) vec16() ([]byte, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	return r.take(int(n))
}

func (r *reader) vec24() ([]byte, error) {
	n, err := r.u24()
	if err != nil {
		return nil, err
	}
	return r.take(n)
}

// readExtensions calls f on each extension of the optional block that
// ends a hello message, in order; f's error stops the walk. data aliases
// the message.
func readExtensions(r *reader, f func(typ uint16, data []byte) error) error {
	if r.empty() {
		return nil // extensions block is optional
	}
	body, err := r.vec16()
	if err != nil {
		return err
	}
	er := reader{b: body}
	for !er.empty() {
		typ, err := er.u16()
		if err != nil {
			return err
		}
		data, err := er.vec16()
		if err != nil {
			return err
		}
		if err := f(typ, data); err != nil {
			return err
		}
	}
	return nil
}

// extSet records the extensions a parser interprets, to refuse one sent
// twice (RFC 8446 §4.2).
type extSet uint8

// add marks typ seen, failing if it already was. Types this stack does not
// interpret are not tracked.
func (s *extSet) add(typ uint16) error {
	var bit extSet
	switch typ {
	case extServerName:
		bit = 1
	case extSessionTicket:
		bit = 2
	case extPreSharedKey:
		bit = 4
	case extSupportedVersions:
		bit = 8
	case extKeyShare:
		bit = 16
	}
	if *s&bit != 0 {
		return errDecode
	}
	*s |= bit
	return nil
}

// handshakeMsg frames a handshake body, msg_type(1) || length(3) || body,
// in dst's storage when it has room.
func handshakeMsg(dst []byte, typ uint8, body []byte) []byte {
	w := newMsg(dst, typ, len(body))
	w.raw(body)
	return w.msg()
}

// clientHelloMsg is the ClientHello handshake message.
type clientHelloMsg struct {
	version           uint16
	random            [32]byte
	sessionID         []byte
	cipherSuites      []uint16
	serverName        string
	sessionTicket     []byte // nil: no ext; empty: empty ext (ticket requested)
	hasTicketExt      bool
	supportedVersions []uint16
	keyShareGroup     uint16
	keyShareData      []byte
	hasKeyShare       bool
	// TLS 1.3 PSK resumption (pre_shared_key must be the last extension,
	// RFC 8446 §4.2.11; the binder covers the ClientHello up to the
	// binders list).
	pskIdentity []byte
	pskBinder   []byte
	hasPSK      bool
}

func (m *clientHelloMsg) marshal(dst []byte) []byte {
	w := newMsg(dst, typeClientHello, 128+2*len(m.cipherSuites)+len(m.serverName)+
		len(m.sessionTicket)+len(m.keyShareData)+len(m.pskIdentity))
	w.u16(m.version)
	w.raw(m.random[:])
	w.vec8(m.sessionID)
	w.prefixed16(func() {
		for _, s := range m.cipherSuites {
			w.u16(s)
		}
	})
	w.u8(1) // compression methods: null only
	w.u8(0)
	w.prefixed16(func() {
		if m.serverName != "" {
			// RFC 6066 §3: server_name_list, one host_name entry.
			w.u16(extServerName)
			w.prefixed16(func() {
				w.prefixed16(func() {
					w.u8(0) // name_type: host_name
					w.u16(uint16(len(m.serverName)))
					w.b = append(w.b, m.serverName...)
				})
			})
		}
		if m.hasTicketExt {
			w.u16(extSessionTicket)
			w.vec16(m.sessionTicket)
		}
		if len(m.supportedVersions) > 0 {
			// The bare version list this stack has always sent (the
			// parser takes RFC 8446's length-prefixed form too).
			w.u16(extSupportedVersions)
			w.prefixed16(func() {
				for _, v := range m.supportedVersions {
					w.u16(v)
				}
			})
		}
		if m.hasKeyShare {
			w.u16(extKeyShare)
			w.prefixed16(func() {
				w.u16(m.keyShareGroup)
				w.vec16(m.keyShareData)
			})
		}
		if m.hasPSK {
			// identities: one entry {identity<2..>, obfuscated_ticket_age u32}
			// followed by binders: {binder<1..>}. Must be the final extension.
			w.u16(extPreSharedKey)
			w.prefixed16(func() {
				w.prefixed16(func() {
					w.vec16(m.pskIdentity)
					w.u32(0) // obfuscated_ticket_age: lifetimes are server-policed here
				})
				w.prefixed16(func() {
					if len(m.pskBinder) == binderLen {
						w.vec8(m.pskBinder)
					} else {
						w.u8(binderLen) // zeros, patched once the binder is known
						w.raw(make([]byte, binderLen))
					}
				})
			})
		}
	})
	return w.msg()
}

func (m *clientHelloMsg) unmarshal(body []byte) error {
	r := reader{b: body}
	var err error
	if m.version, err = r.u16(); err != nil {
		return err
	}
	rnd, err := r.take(32)
	if err != nil {
		return err
	}
	copy(m.random[:], rnd)
	if m.sessionID, err = r.vec8(); err != nil {
		return err
	}
	if len(m.sessionID) > 32 {
		return errDecode
	}
	suites, err := r.vec16()
	if err != nil {
		return err
	}
	if len(suites)%2 != 0 || len(suites) == 0 {
		return errDecode
	}
	m.cipherSuites = m.cipherSuites[:0]
	for i := 0; i < len(suites); i += 2 {
		m.cipherSuites = append(m.cipherSuites, binary.BigEndian.Uint16(suites[i:]))
	}
	if _, err = r.vec8(); err != nil { // compression
		return err
	}
	var seen extSet
	return readExtensions(&r, func(typ uint16, data []byte) error {
		if err := seen.add(typ); err != nil {
			return err
		}
		switch typ {
		case extServerName:
			name, err := parseServerName(data)
			if err != nil {
				return err
			}
			m.serverName = name
		case extSessionTicket:
			m.hasTicketExt = true
			m.sessionTicket = data
		case extSupportedVersions:
			vr := reader{b: data}
			if len(data)%2 == 1 {
				// RFC 8446 §4.2.1: versions<2..254>, a one-byte length
				// first. The even-length form is this stack's own client's
				// bare list.
				list, err := vr.vec8()
				if err != nil || !vr.empty() {
					return errDecode
				}
				vr.b = list
			}
			for !vr.empty() {
				v, err := vr.u16()
				if err != nil {
					return err
				}
				m.supportedVersions = append(m.supportedVersions, v)
			}
		case extKeyShare:
			kr := reader{b: data}
			if m.keyShareGroup, err = kr.u16(); err != nil {
				return err
			}
			if m.keyShareData, err = kr.vec16(); err != nil {
				return err
			}
			m.hasKeyShare = true
		case extPreSharedKey:
			pr := reader{b: data}
			ids, err := pr.vec16()
			if err != nil {
				return err
			}
			ir := reader{b: ids}
			if m.pskIdentity, err = ir.vec16(); err != nil {
				return err
			}
			if _, err = ir.u32(); err != nil { // obfuscated age
				return err
			}
			binders, err := pr.vec16()
			if err != nil {
				return err
			}
			br := reader{b: binders}
			if m.pskBinder, err = br.vec8(); err != nil {
				return err
			}
			if len(m.pskBinder) != binderLen {
				return errDecode
			}
			m.hasPSK = true
		}
		return nil
	})
}

// parseServerName returns the host_name of an RFC 6066 server_name
// extension ("" when it lists none).
func parseServerName(data []byte) (string, error) {
	r := reader{b: data}
	list, err := r.vec16()
	if err != nil || !r.empty() || len(list) == 0 {
		return "", errDecode
	}
	lr := reader{b: list}
	for !lr.empty() {
		typ, err := lr.u8()
		if err != nil {
			return "", err
		}
		name, err := lr.vec16()
		if err != nil {
			return "", err
		}
		if typ == 0 && len(name) > 0 {
			return string(name), nil
		}
	}
	return "", nil
}

// serverHelloMsg is the ServerHello handshake message.
type serverHelloMsg struct {
	version       uint16
	random        [32]byte
	sessionID     []byte
	cipherSuite   uint16
	ticketOffered bool   // 1.2: server will send NewSessionTicket
	keyShareGroup uint16 // 1.3
	keyShareData  []byte // 1.3
	hasKeyShare   bool
	pskSelected   bool // 1.3: pre_shared_key accepted (identity 0)
}

func (m *serverHelloMsg) marshal(dst []byte) []byte {
	w := newMsg(dst, typeServerHello, 96+len(m.keyShareData))
	w.u16(m.version)
	w.raw(m.random[:])
	w.vec8(m.sessionID)
	w.u16(m.cipherSuite)
	w.u8(0) // compression
	w.prefixed16(func() {
		if m.ticketOffered {
			w.u16(extSessionTicket)
			w.u16(0)
		}
		if m.hasKeyShare {
			w.u16(extKeyShare)
			w.prefixed16(func() {
				w.u16(m.keyShareGroup)
				w.vec16(m.keyShareData)
			})
		}
		if m.pskSelected {
			w.u16(extPreSharedKey)
			w.u16(2)
			w.u16(0) // selected_identity
		}
	})
	return w.msg()
}

func (m *serverHelloMsg) unmarshal(body []byte) error {
	r := reader{b: body}
	var err error
	if m.version, err = r.u16(); err != nil {
		return err
	}
	rnd, err := r.take(32)
	if err != nil {
		return err
	}
	copy(m.random[:], rnd)
	if m.sessionID, err = r.vec8(); err != nil {
		return err
	}
	if m.cipherSuite, err = r.u16(); err != nil {
		return err
	}
	if _, err = r.u8(); err != nil {
		return err
	}
	var seen extSet
	return readExtensions(&r, func(typ uint16, data []byte) error {
		if err := seen.add(typ); err != nil {
			return err
		}
		switch typ {
		case extSessionTicket:
			m.ticketOffered = true
		case extKeyShare:
			kr := reader{b: data}
			if m.keyShareGroup, err = kr.u16(); err != nil {
				return err
			}
			if m.keyShareData, err = kr.vec16(); err != nil {
				return err
			}
			m.hasKeyShare = true
		case extPreSharedKey:
			m.pskSelected = true
		}
		return nil
	})
}

// certificateMsg carries the certificate chain (leaf first).
type certificateMsg struct {
	chain [][]byte
}

func (m *certificateMsg) marshal(dst []byte) []byte {
	size := 3
	for _, c := range m.chain {
		size += 3 + len(c)
	}
	w := newMsg(dst, typeCertificate, size)
	w.prefixed24(func() {
		for _, c := range m.chain {
			w.vec24(c)
		}
	})
	return w.msg()
}

func (m *certificateMsg) unmarshal(body []byte) error {
	r := reader{b: body}
	list, err := r.vec24()
	if err != nil {
		return err
	}
	lr := reader{b: list}
	m.chain = m.chain[:0]
	for !lr.empty() {
		c, err := lr.vec24()
		if err != nil {
			return err
		}
		m.chain = append(m.chain, c)
	}
	if len(m.chain) == 0 {
		return errDecode
	}
	return nil
}

// Signature algorithm identifiers used in serverKeyExchange /
// certificateVerify (subset of RFC 8446 SignatureScheme).
const (
	sigRSAPKCS1SHA256 uint16 = 0x0401
	sigECDSAP256      uint16 = 0x0403
	sigECDSAP384      uint16 = 0x0503
)

// serverKeyExchangeMsg carries the server's ephemeral ECDHE parameters
// and their signature (ECDHE suites, TLS 1.2).
type serverKeyExchangeMsg struct {
	curveID   uint16
	publicKey []byte
	sigAlg    uint16
	signature []byte
}

// paramsBytes returns the signed parameter block (curve_type || curve ||
// pubkey), the portion covered by the signature together with the randoms.
func (m *serverKeyExchangeMsg) paramsBytes() []byte {
	var w builder
	m.appendParams(&w)
	return w.bytes()
}

func (m *serverKeyExchangeMsg) appendParams(w *builder) {
	w.u8(3) // curve_type: named_curve
	w.u16(m.curveID)
	w.vec8(m.publicKey)
}

func (m *serverKeyExchangeMsg) marshal(dst []byte) []byte {
	w := newMsg(dst, typeServerKeyExchange, 8+len(m.publicKey)+len(m.signature))
	m.appendParams(&w)
	w.u16(m.sigAlg)
	w.vec16(m.signature)
	return w.msg()
}

func (m *serverKeyExchangeMsg) unmarshal(body []byte) error {
	r := reader{b: body}
	ct, err := r.u8()
	if err != nil || ct != 3 {
		return errDecode
	}
	if m.curveID, err = r.u16(); err != nil {
		return err
	}
	if m.publicKey, err = r.vec8(); err != nil {
		return err
	}
	if m.sigAlg, err = r.u16(); err != nil {
		return err
	}
	if m.signature, err = r.vec16(); err != nil {
		return err
	}
	return nil
}

// clientKeyExchangeMsg carries the RSA-encrypted premaster secret or the
// client's ephemeral ECDHE public key.
type clientKeyExchangeMsg struct {
	// exchange is the encrypted premaster (RSA kx, 16-bit length prefix)
	// or the EC point (ECDHE kx, 8-bit length prefix).
	rsaCiphertext []byte
	ecdhPublic    []byte
	isRSA         bool
}

func (m *clientKeyExchangeMsg) marshal(dst []byte) []byte {
	w := newMsg(dst, typeClientKeyExchange, 2+len(m.rsaCiphertext)+len(m.ecdhPublic))
	if m.isRSA {
		w.vec16(m.rsaCiphertext)
	} else {
		w.vec8(m.ecdhPublic)
	}
	return w.msg()
}

func (m *clientKeyExchangeMsg) unmarshal(body []byte, isRSA bool) error {
	r := reader{b: body}
	m.isRSA = isRSA
	var err error
	if isRSA {
		m.rsaCiphertext, err = r.vec16()
	} else {
		m.ecdhPublic, err = r.vec8()
	}
	if err != nil {
		return err
	}
	if !r.empty() {
		return errDecode
	}
	return nil
}

// finishedMsg carries the verify_data.
type finishedMsg struct {
	verifyData []byte
}

func (m *finishedMsg) marshal(dst []byte) []byte {
	return handshakeMsg(dst, typeFinished, m.verifyData)
}

func (m *finishedMsg) unmarshal(body []byte) error {
	if len(body) == 0 {
		return errDecode
	}
	m.verifyData = body
	return nil
}

// newSessionTicketMsg (unified 1.2/1.3 layout): lifetime(4) ||
// ticket<2..>.
type newSessionTicketMsg struct {
	lifetimeSeconds uint32
	ticket          []byte
}

func (m *newSessionTicketMsg) marshal(dst []byte) []byte {
	w := newMsg(dst, typeNewSessionTicket, 6+len(m.ticket))
	w.u32(m.lifetimeSeconds)
	w.vec16(m.ticket)
	return w.msg()
}

func (m *newSessionTicketMsg) unmarshal(body []byte) error {
	r := reader{b: body}
	var err error
	if m.lifetimeSeconds, err = r.u32(); err != nil {
		return err
	}
	if m.ticket, err = r.vec16(); err != nil {
		return err
	}
	return nil
}

// certificateVerifyMsg (TLS 1.3).
type certificateVerifyMsg struct {
	sigAlg    uint16
	signature []byte
}

func (m *certificateVerifyMsg) marshal(dst []byte) []byte {
	w := newMsg(dst, typeCertificateVerify, 4+len(m.signature))
	w.u16(m.sigAlg)
	w.vec16(m.signature)
	return w.msg()
}

func (m *certificateVerifyMsg) unmarshal(body []byte) error {
	r := reader{b: body}
	var err error
	if m.sigAlg, err = r.u16(); err != nil {
		return err
	}
	if m.signature, err = r.vec16(); err != nil {
		return err
	}
	return nil
}

// encryptedExtensionsMsg (TLS 1.3); extensions are unused here but the
// message is part of the flight and the transcript.
type encryptedExtensionsMsg struct{}

func (m *encryptedExtensionsMsg) marshal(dst []byte) []byte {
	w := newMsg(dst, typeEncryptedExtensions, 2)
	w.u16(0) // no extensions
	return w.msg()
}

func (m *encryptedExtensionsMsg) unmarshal(body []byte) error {
	r := reader{b: body}
	return readExtensions(&r, func(uint16, []byte) error { return nil })
}

// serverHelloDone is empty; helpers for symmetry.
func marshalServerHelloDone(dst []byte) []byte { return handshakeMsg(dst, typeServerHelloDone, nil) }

func msgTypeName(t uint8) string {
	switch t {
	case typeClientHello:
		return "ClientHello"
	case typeServerHello:
		return "ServerHello"
	case typeNewSessionTicket:
		return "NewSessionTicket"
	case typeEncryptedExtensions:
		return "EncryptedExtensions"
	case typeCertificate:
		return "Certificate"
	case typeServerKeyExchange:
		return "ServerKeyExchange"
	case typeServerHelloDone:
		return "ServerHelloDone"
	case typeCertificateVerify:
		return "CertificateVerify"
	case typeClientKeyExchange:
		return "ClientKeyExchange"
	case typeFinished:
		return "Finished"
	default:
		return fmt.Sprintf("handshake(%d)", t)
	}
}
