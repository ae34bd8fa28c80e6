package minitls

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/subtle"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
)

// clientHS carries client handshake state. The client mirrors the paper's
// load generators (OpenSSL s_time, ApacheBench): it runs linearly with
// software crypto on a blocking transport.
type clientHS struct {
	hello        clientHelloMsg
	serverHello  serverHelloMsg
	clientRandom [32]byte
	serverRandom [32]byte
	serverCert   *x509.Certificate

	ecdhPriv  *ecdh.PrivateKey
	premaster []byte
	pre       prfKey
	master    prfKey
	clientCBC cbcKeys
	serverCBC cbcKeys

	masterSeed, expandSeed [64]byte
	// The PRF results read past the next op, which reuses the connection's
	// result slot (see serverHS).
	masterBuf [masterSecretLen]byte
	keyBlock  [keyBlockLen]byte

	ticket []byte

	// TLS 1.3
	sec        tls13Secrets
	psk        []byte // PSK offered for resumption
	offeredPSK bool
	resMaster  []byte         // resumption master secret (for tickets)
	session13  *ClientSession // session captured from a NewSessionTicket
}

// clientHandshake runs the full client handshake. It requires a blocking
// transport: a would-block mid-handshake is surfaced as ErrWantRead but
// the client does not checkpoint between messages.
func (c *Conn) clientHandshake() error {
	hs := &clientHS{}
	c.hcli = hs

	if _, err := io.ReadFull(c.config.rand(), hs.clientRandom[:]); err != nil {
		return err
	}
	maxV := c.config.maxVersion()
	hello := clientHelloMsg{
		version:      VersionTLS12,
		random:       hs.clientRandom,
		cipherSuites: c.config.clientSuites(maxV),
		serverName:   c.config.ServerName,
	}
	sess := c.config.Session
	if sess != nil && sess.Version == VersionTLS12 {
		hello.sessionID = sess.SessionID
		if len(sess.Ticket) > 0 {
			hello.hasTicketExt = true
			hello.sessionTicket = sess.Ticket
		}
	} else if sess == nil && c.config.RequestTicket {
		hello.hasTicketExt = true
	}
	if maxV >= VersionTLS13 {
		hello.supportedVersions = []uint16{VersionTLS13, VersionTLS12}
		curve := c.config.curve()
		priv, err := curve.GenerateKey(c.config.rand())
		if err != nil {
			return err
		}
		hs.ecdhPriv = priv
		hello.hasKeyShare = true
		hello.keyShareGroup = curveIDFor(curve)
		hello.keyShareData = priv.PublicKey().Bytes()
		if sess != nil && sess.Version == VersionTLS13 && len(sess.Ticket) > 0 {
			hello.hasPSK = true
			hello.pskIdentity = sess.Ticket
			hs.psk = sess.MasterSecret
			hs.offeredPSK = true
		}
	}
	hs.hello = hello
	msg := hello.marshal(c.msgBuf)
	if hello.hasPSK {
		// Patch the binder: it MACs the ClientHello up to (excluding)
		// the binders list (RFC 8446 §4.2.11).
		early := hkdfExtract(nil, hs.psk)
		binder := computeBinder(early, truncatedCHHash(msg))
		copy(msg[len(msg)-binderLen:], binder)
	}
	if err := c.writeMsg(msg); err != nil {
		return err
	}

	typ, body, err := c.readHandshakeMsg()
	if err != nil {
		return err
	}
	if typ != typeServerHello {
		return unexpectedMsg(typ, "ServerHello")
	}
	if err := hs.serverHello.unmarshal(body); err != nil {
		return err
	}
	// The session ID outlives the message (a later session offers it).
	hs.serverHello.sessionID = bytes.Clone(hs.serverHello.sessionID)
	hs.serverRandom = hs.serverHello.random
	c.version = hs.serverHello.version
	c.suite = hs.serverHello.cipherSuite

	if c.version == VersionTLS13 {
		return c.clientHandshake13()
	}

	// TLS 1.2: did the server accept resumption? (It echoes our session
	// ID, or we offered a ticket and it jumped straight to CCS.)
	if sess := c.config.Session; sess != nil && sess.Version == VersionTLS12 {
		echoed := len(hello.sessionID) > 0 && bytes.Equal(hs.serverHello.sessionID, hello.sessionID)
		offeredTicket := len(sess.Ticket) > 0
		if echoed || offeredTicket {
			// Distinguish abbreviated from full by what follows: an
			// abbreviated handshake continues with CCS, a full one with
			// Certificate. For the ticket case the session IDs may match
			// coincidentally, so peek at the next record.
			if c.nextIsCCS() {
				c.didResume = true
				hs.master.secret = sess.MasterSecret
				return c.clientFinishResumption()
			}
		}
	}
	return c.clientFull12()
}

// nextIsCCS reports whether the next record is a ChangeCipherSpec without
// consuming handshake data. It may block to read one record.
func (c *Conn) nextIsCCS() bool {
	if len(c.handBuf) > c.handOff {
		return false
	}
	// Read one record; if it is CCS we remember it, otherwise its payload
	// lands in handBuf.
	typ, payload, err := c.readRecord()
	if err != nil {
		return false
	}
	if typ == recordChangeCipherSpec {
		c.pendingCCS = true
		return true
	}
	if typ == recordHandshake {
		c.appendHandshake(payload)
	}
	return false
}

// clientFull12 runs the full TLS 1.2 client handshake after ServerHello.
func (c *Conn) clientFull12() error {
	hs := c.hcli
	kx, ok := suiteKeyExchange(c.suite)
	if !ok || kx == kxTLS13 {
		return fmt.Errorf("minitls: server selected unusable suite 0x%04x", c.suite)
	}

	// Certificate.
	typ, body, err := c.readHandshakeMsg()
	if err != nil {
		return err
	}
	if typ != typeCertificate {
		return unexpectedMsg(typ, "Certificate")
	}
	var certMsg certificateMsg
	if err := certMsg.unmarshal(body); err != nil {
		return err
	}
	leaf, err := x509.ParseCertificate(bytes.Clone(certMsg.chain[0]))
	if err != nil {
		return err
	}
	hs.serverCert = leaf

	// ServerKeyExchange (ECDHE suites).
	var skx serverKeyExchangeMsg
	if kx != kxRSA {
		typ, body, err = c.readHandshakeMsg()
		if err != nil {
			return err
		}
		if typ != typeServerKeyExchange {
			return unexpectedMsg(typ, "ServerKeyExchange")
		}
		if err := skx.unmarshal(body); err != nil {
			return err
		}
		if err := c.verifySKX(&skx); err != nil {
			return err
		}
		skx.publicKey = bytes.Clone(skx.publicKey) // used past the next read
	}

	// ServerHelloDone.
	typ, _, err = c.readHandshakeMsg()
	if err != nil {
		return err
	}
	if typ != typeServerHelloDone {
		return unexpectedMsg(typ, "ServerHelloDone")
	}

	// ClientKeyExchange.
	var cke clientKeyExchangeMsg
	switch kx {
	case kxRSA:
		pub, ok := hs.serverCert.PublicKey.(*rsa.PublicKey)
		if !ok {
			return errors.New("minitls: RSA suite with non-RSA certificate")
		}
		hs.premaster = make([]byte, 48)
		if _, err := io.ReadFull(c.config.rand(), hs.premaster); err != nil {
			return err
		}
		hs.premaster[0], hs.premaster[1] = 0x03, 0x03
		ct, err := rsa.EncryptPKCS1v15(c.config.rand(), pub, hs.premaster)
		if err != nil {
			return err
		}
		cke = clientKeyExchangeMsg{isRSA: true, rsaCiphertext: ct}
	default:
		curve, err := curveForID(skx.curveID)
		if err != nil {
			return err
		}
		priv, err := curve.GenerateKey(c.config.rand())
		if err != nil {
			return err
		}
		peer, err := curve.NewPublicKey(skx.publicKey)
		if err != nil {
			return err
		}
		hs.premaster, err = priv.ECDH(peer)
		if err != nil {
			return err
		}
		cke = clientKeyExchangeMsg{ecdhPublic: priv.PublicKey().Bytes()}
	}
	if err := c.writeMsg(cke.marshal(c.msgBuf)); err != nil {
		return err
	}

	// Key derivation.
	hs.pre.secret = hs.premaster
	if err := c.doPRF(hs.masterBuf[:], &hs.pre, "master secret",
		prfSeed(&hs.masterSeed, &hs.clientRandom, &hs.serverRandom)); err != nil {
		return err
	}
	hs.pre.release()
	hs.master.secret = hs.masterBuf[:]
	if err := c.doPRF(hs.keyBlock[:], &hs.master, "key expansion",
		prfSeed(&hs.expandSeed, &hs.serverRandom, &hs.clientRandom)); err != nil {
		return err
	}
	hs.clientCBC, hs.serverCBC = splitKeyBlock(hs.keyBlock[:])

	// CCS + client Finished.
	if err := c.writeRecord(recordChangeCipherSpec, ccsPayload); err != nil {
		return err
	}
	if err := c.out.setCBC(hs.clientCBC); err != nil {
		return err
	}
	var verify [finishedVerify12]byte
	if err := c.doPRF(verify[:], &hs.master, "client finished", c.transcriptHash()); err != nil {
		return err
	}
	fin := finishedMsg{verifyData: verify[:]}
	if err := c.writeMsg(fin.marshal(c.msgBuf)); err != nil {
		return err
	}

	// [NewSessionTicket] + server CCS + Finished.
	if hs.serverHello.ticketOffered {
		typ, body, err = c.readHandshakeMsg()
		if err != nil {
			return err
		}
		if typ != typeNewSessionTicket {
			return unexpectedMsg(typ, "NewSessionTicket")
		}
		var nst newSessionTicketMsg
		if err := nst.unmarshal(body); err != nil {
			return err
		}
		hs.ticket = bytes.Clone(nst.ticket)
	}
	if err := c.readServerFinished12(); err != nil {
		return err
	}
	c.finishHandshake()
	return nil
}

// clientFinishResumption completes the abbreviated handshake after a
// resumption-accepting ServerHello.
func (c *Conn) clientFinishResumption() error {
	hs := c.hcli
	if err := c.doPRF(hs.keyBlock[:], &hs.master, "key expansion",
		prfSeed(&hs.expandSeed, &hs.serverRandom, &hs.clientRandom)); err != nil {
		return err
	}
	hs.clientCBC, hs.serverCBC = splitKeyBlock(hs.keyBlock[:])
	// Server CCS + Finished first, then ours.
	if err := c.readServerFinished12(); err != nil {
		return err
	}
	if err := c.writeRecord(recordChangeCipherSpec, ccsPayload); err != nil {
		return err
	}
	if err := c.out.setCBC(hs.clientCBC); err != nil {
		return err
	}
	var verify [finishedVerify12]byte
	if err := c.doPRF(verify[:], &hs.master, "client finished", c.transcriptHash()); err != nil {
		return err
	}
	fin := finishedMsg{verifyData: verify[:]}
	if err := c.writeMsg(fin.marshal(c.msgBuf)); err != nil {
		return err
	}
	c.finishHandshake()
	return nil
}

// readServerFinished12 consumes the server's CCS and verifies its
// Finished message.
func (c *Conn) readServerFinished12() error {
	hs := c.hcli
	if c.pendingCCS {
		c.pendingCCS = false
	} else if err := c.readChangeCipherSpec(); err != nil {
		return err
	}
	if err := c.in.setCBC(hs.serverCBC); err != nil {
		return err
	}
	typ, body, err := c.readHandshakeMsg()
	if err != nil {
		return err
	}
	if typ != typeFinished {
		return unexpectedMsg(typ, "Finished")
	}
	var fin finishedMsg
	if err := fin.unmarshal(body); err != nil {
		return err
	}
	var want [finishedVerify12]byte
	if err := c.doPRF(want[:], &hs.master, "server finished", c.preMsgHash); err != nil {
		return err
	}
	if subtle.ConstantTimeCompare(want[:], fin.verifyData) != 1 {
		return errors.New("minitls: server Finished verification failed")
	}
	return nil
}

// verifySKX verifies the ServerKeyExchange signature against the server
// certificate's public key.
func (c *Conn) verifySKX(skx *serverKeyExchangeMsg) error {
	hs := c.hcli
	var signInput bytes.Buffer
	signInput.Write(hs.clientRandom[:])
	signInput.Write(hs.serverRandom[:])
	signInput.Write(skx.paramsBytes())
	digest := sha256.Sum256(signInput.Bytes())
	switch pub := hs.serverCert.PublicKey.(type) {
	case *rsa.PublicKey:
		return rsa.VerifyPKCS1v15(pub, cryptoSHA256, digest[:], skx.signature)
	case *ecdsa.PublicKey:
		if !ecdsa.VerifyASN1(pub, digest[:], skx.signature) {
			return errors.New("minitls: ECDSA ServerKeyExchange signature invalid")
		}
		return nil
	default:
		return errors.New("minitls: unsupported certificate key type")
	}
}

// clientHandshake13 completes the TLS 1.3 client handshake after
// ServerHello.
func (c *Conn) clientHandshake13() error {
	hs := c.hcli
	sh := &hs.serverHello
	if !sh.hasKeyShare {
		return errors.New("minitls: TLS 1.3 ServerHello without key share")
	}
	curve, err := curveForID(sh.keyShareGroup)
	if err != nil {
		return err
	}
	peer, err := curve.NewPublicKey(sh.keyShareData)
	if err != nil {
		return err
	}
	shared, err := hs.ecdhPriv.ECDH(peer)
	if err != nil {
		return err
	}

	// PSK acceptance: the server echoes the pre_shared_key extension.
	if sh.pskSelected {
		if !hs.offeredPSK {
			return errors.New("minitls: server selected a PSK we did not offer")
		}
		c.didResume = true
	}

	th := c.transcriptHash() // CH..SH
	ikm := zeros32()
	if c.didResume {
		ikm = hs.psk
	}
	early := hkdfExtract(nil, ikm)
	derived := deriveSecret(early, "derived", emptyHash())
	hsSecret := hkdfExtract(derived, shared)
	hs.sec.clientHS = deriveSecret(hsSecret, "c hs traffic", th)
	hs.sec.serverHS = deriveSecret(hsSecret, "s hs traffic", th)
	derived2 := deriveSecret(hsSecret, "derived", emptyHash())
	hs.sec.masterSecret = hkdfExtract(derived2, zeros32())

	inProt, err := newGCMProtection(trafficKeys(hs.sec.serverHS))
	if err != nil {
		return err
	}
	c.in.setProtection(inProt)
	outProt, err := newGCMProtection(trafficKeys(hs.sec.clientHS))
	if err != nil {
		return err
	}
	c.out.setProtection(outProt)

	// EncryptedExtensions.
	typ, body, err := c.readHandshakeMsg()
	if err != nil {
		return err
	}
	if typ != typeEncryptedExtensions {
		return unexpectedMsg(typ, "EncryptedExtensions")
	}
	var ee encryptedExtensionsMsg
	if err := ee.unmarshal(body); err != nil {
		return err
	}

	// Certificate + CertificateVerify (skipped on PSK resumption: the
	// PSK itself authenticates the server).
	if !c.didResume {
		typ, body, err = c.readHandshakeMsg()
		if err != nil {
			return err
		}
		if typ != typeCertificate {
			return unexpectedMsg(typ, "Certificate")
		}
		var certMsg certificateMsg
		if err := certMsg.unmarshal(body); err != nil {
			return err
		}
		leaf, err := x509.ParseCertificate(bytes.Clone(certMsg.chain[0]))
		if err != nil {
			return err
		}
		hs.serverCert = leaf
		cvHash := c.transcriptHash() // CH..Certificate

		typ, body, err = c.readHandshakeMsg()
		if err != nil {
			return err
		}
		if typ != typeCertificateVerify {
			return unexpectedMsg(typ, "CertificateVerify")
		}
		var cv certificateVerifyMsg
		if err := cv.unmarshal(body); err != nil {
			return err
		}
		content := certVerifyContent13(cvHash)
		digest := sha256.Sum256(content)
		switch pub := leaf.PublicKey.(type) {
		case *rsa.PublicKey:
			if err := rsa.VerifyPSS(pub, cryptoSHA256, digest[:], cv.signature, nil); err != nil {
				return errors.New("minitls: CertificateVerify signature invalid")
			}
		case *ecdsa.PublicKey:
			if !ecdsa.VerifyASN1(pub, digest[:], cv.signature) {
				return errors.New("minitls: CertificateVerify signature invalid")
			}
		default:
			return errors.New("minitls: unsupported certificate key type")
		}
	}

	// Server Finished.
	typ, body, err = c.readHandshakeMsg()
	if err != nil {
		return err
	}
	if typ != typeFinished {
		return unexpectedMsg(typ, "Finished")
	}
	var fin finishedMsg
	if err := fin.unmarshal(body); err != nil {
		return err
	}
	want := finishedMAC13(hs.sec.serverHS, c.preMsgHash)
	if subtle.ConstantTimeCompare(want, fin.verifyData) != 1 {
		return errors.New("minitls: server Finished verification failed")
	}
	finishedTH := c.transcriptHash() // CH..server Finished

	// Client Finished (encrypted with client handshake keys).
	verify := finishedMAC13(hs.sec.clientHS, finishedTH)
	cfin := finishedMsg{verifyData: verify}
	if err := c.writeMsg(cfin.marshal(c.msgBuf)); err != nil {
		return err
	}

	// Application keys, and the resumption master secret over the full
	// transcript (through our Finished) for later tickets.
	hs.sec.clientApp = deriveSecret(hs.sec.masterSecret, "c ap traffic", finishedTH)
	hs.sec.serverApp = deriveSecret(hs.sec.masterSecret, "s ap traffic", finishedTH)
	hs.resMaster = resumptionMasterSecret(hs.sec.masterSecret, c.transcriptHash())
	inApp, err := newGCMProtection(trafficKeys(hs.sec.serverApp))
	if err != nil {
		return err
	}
	c.in.setProtection(inApp)
	outApp, err := newGCMProtection(trafficKeys(hs.sec.clientApp))
	if err != nil {
		return err
	}
	c.out.setProtection(outApp)
	c.finishHandshake()
	return nil
}

// ResumptionSession returns the client-side session state usable for a
// later resumed connection, or nil when resumption is not possible. For
// TLS 1.3 the session comes from a post-handshake NewSessionTicket, so
// the caller must have performed at least one Read after the handshake.
func (c *Conn) ResumptionSession() *ClientSession {
	if c.isServer || !c.handshakeDone || c.hcli == nil {
		return nil
	}
	if c.version == VersionTLS13 {
		return c.hcli.session13
	}
	if c.version != VersionTLS12 {
		return nil
	}
	hs := c.hcli
	if len(hs.ticket) == 0 && len(hs.serverHello.sessionID) == 0 {
		return nil
	}
	if len(hs.master.secret) == 0 {
		return nil
	}
	return &ClientSession{
		SessionID:    hs.serverHello.sessionID,
		Ticket:       hs.ticket,
		Version:      c.version,
		CipherSuite:  c.suite,
		MasterSecret: hs.master.secret,
	}
}
