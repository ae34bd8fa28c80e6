package minitls

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
)

// serverHS carries server handshake intermediate state across state-machine
// steps. Keeping every input of a crypto operation here is what makes
// stack-async re-entry safe: a re-entered state finds its inputs intact and
// the provider finds its pending result.
type serverHS struct {
	clientHello  clientHelloMsg
	clientRandom [32]byte
	serverRandom [32]byte
	sessionID    []byte
	kx           keyExchange

	ecdhPriv *ecdh.PrivateKey
	skx      serverKeyExchangeMsg
	cke      clientKeyExchangeMsg

	premaster []byte
	pre       prfKey // the premaster secret, for the master secret alone
	master    prfKey // its secret is masterBuf, or a resumed session's
	clientCBC cbcKeys
	serverCBC cbcKeys
	// The PRF seeds, and the transcript hashes the Finished messages cover:
	// each an op's argument, kept for as long as an abandoned run of that op
	// may read it.
	masterSeed, expandSeed [64]byte
	finHash                [sha256.Size]byte // covered by the client Finished
	srvFinHash             [sha256.Size]byte // covered by the server Finished
	// The PRF results read past the next op, which reuses the connection's
	// result slot: the master secret, the key block the CBC keys alias (the
	// server direction is keyed after the client Finished is verified), and
	// the server's verify_data.
	masterBuf    [masterSecretLen]byte
	keyBlock     [keyBlockLen]byte
	serverVerify [finishedVerify12]byte

	clientVerify []byte // client Finished verify_data, copied into verifyBuf
	verifyBuf    [finishedVerify12]byte

	// Backing for the ClientHello fields that outlive the message, which
	// aliases the connection's handshake buffer only until the next read,
	// and for its lists, so parsing them allocates nothing.
	sessionIDBuf [32]byte
	suiteBuf     [32]uint16
	versionBuf   [8]uint16

	offerTicket bool
	// ticketPlain is where a session ticket is opened: the resumed master
	// secret aliases it.
	ticketPlain [64]byte

	// TLS 1.3 state.
	clientShare  []byte
	sharedSecret []byte
	sec          tls13Secrets
	certVerify   []byte
	cvHash       []byte
	psk          []byte // resumption PSK accepted from the ClientHello
}

// serverHandshakeStep advances the server handshake state machine until it
// completes or a retriable condition (want-read / want-async) surfaces.
// This is the QTLS-modified Nginx/OpenSSL handshake path: each state is a
// clean re-entry point, so a paused offload job resumes without redoing
// completed work (§3.2, §4.1).
func (c *Conn) serverHandshakeStep() error {
	if c.config.Identity == nil && c.config.GetIdentity == nil {
		return errors.New("minitls: server requires an Identity")
	}
	if c.state == stateStart {
		c.identity = c.config.Identity
		c.state = stateS12ReadClientHello
	}
	for !c.handshakeDone {
		if err := c.serverStateStep(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Conn) serverStateStep() error {
	hs := &c.hsrv
	switch c.state {
	case stateS12ReadClientHello:
		return c.srvReadClientHello()

	// --- TLS 1.2 full handshake ---------------------------------------

	case stateS12GenServerKey:
		curve := c.config.curve()
		rnd := c.config.rand()
		res, err := c.do(KindECDH, func() (any, error) {
			return curve.GenerateKey(rnd)
		})
		if err != nil {
			return err
		}
		hs.ecdhPriv = res.(*ecdh.PrivateKey)
		hs.skx = serverKeyExchangeMsg{
			curveID:   curveIDFor(curve),
			publicKey: hs.ecdhPriv.PublicKey().Bytes(),
		}
		c.state = stateS12SignSKX
		return nil

	case stateS12SignSKX:
		var signInput bytes.Buffer
		signInput.Write(hs.clientRandom[:])
		signInput.Write(hs.serverRandom[:])
		signInput.Write(hs.skx.paramsBytes())
		digest := sha256.Sum256(signInput.Bytes())
		sig, alg, err := c.signDigest(digest[:])
		if err != nil {
			return err
		}
		hs.skx.sigAlg = alg
		hs.skx.signature = sig
		c.state = stateS12FlushHello
		return nil

	case stateS12FlushHello:
		sh := serverHelloMsg{
			version:       VersionTLS12,
			random:        hs.serverRandom,
			sessionID:     hs.sessionID,
			cipherSuite:   c.suite,
			ticketOffered: hs.offerTicket,
		}
		if err := c.writeMsg(sh.marshal(c.msgBuf)); err != nil {
			return err
		}
		cert := certificateMsg{chain: c.identity.CertDER}
		if err := c.writeMsg(cert.marshal(c.msgBuf)); err != nil {
			return err
		}
		if hs.kx != kxRSA {
			if err := c.writeMsg(hs.skx.marshal(c.msgBuf)); err != nil {
				return err
			}
		}
		if err := c.writeMsg(marshalServerHelloDone(c.msgBuf)); err != nil {
			return err
		}
		c.state = stateS12ReadCKE
		return nil

	case stateS12ReadCKE:
		typ, body, err := c.readHandshakeMsg()
		if err != nil {
			return err
		}
		if typ != typeClientKeyExchange {
			return unexpectedMsg(typ, "ClientKeyExchange")
		}
		if err := hs.cke.unmarshal(body, hs.kx == kxRSA); err != nil {
			return err
		}
		// The offloaded key exchange reads these past the next read.
		hs.cke.rsaCiphertext = bytes.Clone(hs.cke.rsaCiphertext)
		hs.cke.ecdhPublic = bytes.Clone(hs.cke.ecdhPublic)
		c.state = stateS12ProcessCKE
		return nil

	case stateS12ProcessCKE:
		if hs.kx == kxRSA {
			key, ok := c.identity.PrivateKey.(*rsa.PrivateKey)
			if !ok {
				return errors.New("minitls: RSA suite without RSA key")
			}
			ct := hs.cke.rsaCiphertext
			res, err := c.do(KindRSA, func() (any, error) {
				return rsa.DecryptPKCS1v15(nil, key, ct)
			})
			if err != nil {
				return err
			}
			hs.premaster = res.([]byte)
			if len(hs.premaster) != 48 {
				return errors.New("minitls: bad premaster length")
			}
		} else {
			priv := hs.ecdhPriv
			pubBytes := hs.cke.ecdhPublic
			curve := c.config.curve()
			res, err := c.do(KindECDH, func() (any, error) {
				peer, err := curve.NewPublicKey(pubBytes)
				if err != nil {
					return nil, err
				}
				return priv.ECDH(peer)
			})
			if err != nil {
				return err
			}
			hs.premaster = res.([]byte)
		}
		c.state = stateS12DeriveMaster
		return nil

	case stateS12DeriveMaster:
		hs.pre.secret = hs.premaster
		if err := c.doPRF(hs.masterBuf[:], &hs.pre, "master secret",
			prfSeed(&hs.masterSeed, &hs.clientRandom, &hs.serverRandom)); err != nil {
			return err
		}
		hs.pre.release()
		hs.master.secret = hs.masterBuf[:]
		c.state = stateS12DeriveKeys
		return nil

	case stateS12DeriveKeys:
		if err := c.doPRF(hs.keyBlock[:], &hs.master, "key expansion",
			prfSeed(&hs.expandSeed, &hs.serverRandom, &hs.clientRandom)); err != nil {
			return err
		}
		hs.clientCBC, hs.serverCBC = splitKeyBlock(hs.keyBlock[:])
		c.state = stateS12ReadCCS
		return nil

	case stateS12ReadCCS:
		if err := c.readChangeCipherSpec(); err != nil {
			return err
		}
		if err := c.in.setCBC(hs.clientCBC); err != nil {
			return err
		}
		c.state = stateS12ReadFinished
		return nil

	case stateS12ReadFinished:
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
		hs.clientVerify = append(hs.verifyBuf[:0], fin.verifyData...)
		copy(hs.finHash[:], c.preMsgHash)
		c.state = stateS12VerifyFin
		return nil

	case stateS12VerifyFin:
		var want [finishedVerify12]byte
		if err := c.doPRF(want[:], &hs.master, "client finished", hs.finHash[:]); err != nil {
			return err
		}
		if subtle.ConstantTimeCompare(want[:], hs.clientVerify) != 1 {
			return errors.New("minitls: client Finished verification failed")
		}
		c.state = stateS12SendFinished
		return nil

	case stateS12SendFinished:
		// Ticket (if offered), then CCS; no crypto offload in this state.
		if hs.offerTicket {
			ticket, err := c.config.sealSessionTicket(SessionState{
				Version:      VersionTLS12,
				CipherSuite:  c.suite,
				MasterSecret: hs.master.secret,
			})
			if err != nil {
				return err
			}
			nst := newSessionTicketMsg{lifetimeSeconds: 3600, ticket: ticket}
			if err := c.writeMsg(nst.marshal(c.msgBuf)); err != nil {
				return err
			}
			c.ticketSent = true
		}
		if err := c.writeRecord(recordChangeCipherSpec, ccsPayload); err != nil {
			return err
		}
		if err := c.out.setCBC(hs.serverCBC); err != nil {
			return err
		}
		c.state = stateS12ComputeFin
		return nil

	case stateS12ComputeFin:
		if err := c.doPRF(hs.serverVerify[:], &hs.master, "server finished", c.transcriptSum(&hs.srvFinHash)); err != nil {
			return err
		}
		c.state = stateDone
		fin := finishedMsg{verifyData: hs.serverVerify[:]}
		if err := c.writeMsg(fin.marshal(c.msgBuf)); err != nil {
			return err
		}
		if len(hs.sessionID) > 0 && c.config.SessionCache != nil {
			c.config.SessionCache.Put(hs.sessionID, SessionState{
				Version:     VersionTLS12,
				CipherSuite: c.suite,
				// The cache outlives this connection's storage.
				MasterSecret: bytes.Clone(hs.master.secret),
			})
		}
		c.finishHandshake()
		return nil

	// --- TLS 1.2 abbreviated handshake (session resumption) ------------

	case stateS12ResumeKeys:
		if err := c.doPRF(hs.keyBlock[:], &hs.master, "key expansion",
			prfSeed(&hs.expandSeed, &hs.serverRandom, &hs.clientRandom)); err != nil {
			return err
		}
		hs.clientCBC, hs.serverCBC = splitKeyBlock(hs.keyBlock[:])
		c.state = stateS12ResumeSrvFin
		return nil

	case stateS12ResumeSrvFin:
		if err := c.doPRF(hs.serverVerify[:], &hs.master, "server finished", c.transcriptSum(&hs.srvFinHash)); err != nil {
			return err
		}
		c.state = stateS12ResumeSend
		return nil

	case stateS12ResumeSend:
		if err := c.writeRecord(recordChangeCipherSpec, ccsPayload); err != nil {
			return err
		}
		if err := c.out.setCBC(hs.serverCBC); err != nil {
			return err
		}
		fin := finishedMsg{verifyData: hs.serverVerify[:]}
		if err := c.writeMsg(fin.marshal(c.msgBuf)); err != nil {
			return err
		}
		c.state = stateS12ResumeReadCCS
		return nil

	case stateS12ResumeReadCCS:
		if err := c.readChangeCipherSpec(); err != nil {
			return err
		}
		if err := c.in.setCBC(hs.clientCBC); err != nil {
			return err
		}
		c.state = stateS12ResumeReadFin
		return nil

	case stateS12ResumeReadFin:
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
		hs.clientVerify = append(hs.verifyBuf[:0], fin.verifyData...)
		copy(hs.finHash[:], c.preMsgHash)
		c.state = stateS12ResumeVerify
		return nil

	case stateS12ResumeVerify:
		var want [finishedVerify12]byte
		if err := c.doPRF(want[:], &hs.master, "client finished", hs.finHash[:]); err != nil {
			return err
		}
		if subtle.ConstantTimeCompare(want[:], hs.clientVerify) != 1 {
			return errors.New("minitls: client Finished verification failed")
		}
		c.state = stateDone
		c.finishHandshake()
		return nil

	// --- TLS 1.3 --------------------------------------------------------

	case stateS13GenKey:
		curve := c.config.curve()
		rnd := c.config.rand()
		res, err := c.do(KindECDH, func() (any, error) {
			return curve.GenerateKey(rnd)
		})
		if err != nil {
			return err
		}
		hs.ecdhPriv = res.(*ecdh.PrivateKey)
		c.state = stateS13Derive
		return nil

	case stateS13Derive:
		priv := hs.ecdhPriv
		share := hs.clientShare
		curve := c.config.curve()
		res, err := c.do(KindECDH, func() (any, error) {
			peer, err := curve.NewPublicKey(share)
			if err != nil {
				return nil, err
			}
			return priv.ECDH(peer)
		})
		if err != nil {
			return err
		}
		hs.sharedSecret = res.([]byte)
		c.state = stateS13Schedule1
		return nil

	case stateS13Schedule1:
		// ServerHello first: the handshake secrets cover CH..SH.
		sh := serverHelloMsg{
			version:       VersionTLS13,
			random:        hs.serverRandom,
			sessionID:     hs.clientHello.sessionID,
			cipherSuite:   c.suite,
			hasKeyShare:   true,
			keyShareGroup: curveIDFor(c.config.curve()),
			keyShareData:  hs.ecdhPriv.PublicKey().Bytes(),
			pskSelected:   c.didResume,
		}
		if err := c.writeMsg(sh.marshal(c.msgBuf)); err != nil {
			return err
		}
		if err := c.schedule13Handshake(); err != nil {
			return err
		}
		// Install handshake protections and send the encrypted flight up
		// to Certificate (PSK resumption skips the certificate flight).
		outProt, err := newGCMProtection(trafficKeys(hs.sec.serverHS))
		if err != nil {
			return err
		}
		c.out.setProtection(outProt)
		inProt, err := newGCMProtection(trafficKeys(hs.sec.clientHS))
		if err != nil {
			return err
		}
		c.in.setProtection(inProt)
		var ee encryptedExtensionsMsg
		if err := c.writeMsg(ee.marshal(c.msgBuf)); err != nil {
			return err
		}
		if c.didResume {
			c.state = stateS13Flush
			return nil
		}
		cert := certificateMsg{chain: c.identity.CertDER}
		if err := c.writeMsg(cert.marshal(c.msgBuf)); err != nil {
			return err
		}
		hs.cvHash = c.transcriptHash()
		c.state = stateS13SignCV
		return nil

	case stateS13SignCV:
		content := certVerifyContent13(hs.cvHash)
		digest := sha256.Sum256(content)
		sig, alg, err := c.signDigest13(digest[:])
		if err != nil {
			return err
		}
		hs.certVerify = sig
		cv := certificateVerifyMsg{sigAlg: alg, signature: sig}
		if err := c.writeMsg(cv.marshal(c.msgBuf)); err != nil {
			return err
		}
		c.state = stateS13Flush
		return nil

	case stateS13Flush:
		// Server Finished over the transcript through CertificateVerify.
		verify, err := c.hkdfOp(func() []byte {
			return finishedMAC13(hs.sec.serverHS, c.transcriptHash())
		})
		if err != nil {
			return err
		}
		fin := finishedMsg{verifyData: verify}
		if err := c.writeMsg(fin.marshal(c.msgBuf)); err != nil {
			return err
		}
		// Application traffic secrets cover CH..server Finished.
		if err := c.schedule13App(c.transcriptHash()); err != nil {
			return err
		}
		outProt, err := newGCMProtection(trafficKeys(hs.sec.serverApp))
		if err != nil {
			return err
		}
		c.out.setProtection(outProt)
		c.state = stateS13ReadFin
		return nil

	case stateS13ReadFin:
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
		want, err := c.hkdfOp(func() []byte {
			return finishedMAC13(hs.sec.clientHS, c.preMsgHash)
		})
		if err != nil {
			return err
		}
		if subtle.ConstantTimeCompare(want, fin.verifyData) != 1 {
			return errors.New("minitls: client Finished verification failed")
		}
		inProt, err := newGCMProtection(trafficKeys(hs.sec.clientApp))
		if err != nil {
			return err
		}
		c.in.setProtection(inProt)
		// Post-handshake NewSessionTicket: wrap the resumption PSK so a
		// later connection can run the PSK handshake (RFC 8446 §4.6.1).
		if c.config.hasTicketKey() {
			resMaster, err := c.hkdfOp(func() []byte {
				return resumptionMasterSecret(hs.sec.masterSecret, c.transcriptHash())
			})
			if err != nil {
				return err
			}
			psk, err := c.hkdfOp(func() []byte { return resumptionPSK(resMaster) })
			if err != nil {
				return err
			}
			ticket, err := c.config.sealSessionTicket(SessionState{
				Version:      VersionTLS13,
				CipherSuite:  c.suite,
				MasterSecret: psk,
			})
			if err != nil {
				return err
			}
			nst := newSessionTicketMsg{lifetimeSeconds: 3600, ticket: ticket}
			// Post-handshake message: sent under application keys and
			// excluded from the handshake transcript.
			if err := c.writeRecord(recordHandshake, nst.marshal(c.msgBuf)); err != nil {
				return err
			}
			c.ticketSent = true
		}
		c.state = stateDone
		c.finishHandshake()
		return nil

	default:
		return fmt.Errorf("minitls: invalid server handshake state %d", c.state)
	}
}

// srvReadClientHello processes the ClientHello: version and suite
// negotiation, resumption lookup, and branch selection.
func (c *Conn) srvReadClientHello() error {
	hs := &c.hsrv
	typ, body, err := c.readHandshakeMsg()
	if err != nil {
		return err
	}
	if typ != typeClientHello {
		return unexpectedMsg(typ, "ClientHello")
	}
	hs.clientHello.cipherSuites = hs.suiteBuf[:0]
	hs.clientHello.supportedVersions = hs.versionBuf[:0]
	if err := hs.clientHello.unmarshal(body); err != nil {
		return err
	}
	// Fields read after this step: the session ID (echoed in a later TLS
	// 1.3 ServerHello) and the key share (read by an offloaded closure).
	hs.clientHello.sessionID = append(hs.sessionIDBuf[:0], hs.clientHello.sessionID...)
	hs.clientRandom = hs.clientHello.random

	// SNI-based identity selection (virtual hosting).
	if c.config.GetIdentity != nil {
		if id := c.config.GetIdentity(hs.clientHello.serverName); id != nil {
			c.identity = id
		}
	}
	if c.identity == nil {
		return errors.New("minitls: no identity for requested server name")
	}

	// Version negotiation: TLS 1.3 requires the supported_versions
	// extension (RFC 8446 §4.2.1).
	clientMax := hs.clientHello.version
	for _, v := range hs.clientHello.supportedVersions {
		if v > clientMax {
			clientMax = v
		}
	}
	c.version = VersionTLS12
	if c.config.maxVersion() >= VersionTLS13 && clientMax >= VersionTLS13 && hs.clientHello.hasKeyShare {
		c.version = VersionTLS13
	}

	// Cipher suite selection: server preference, filtered by identity key
	// type.
	c.suite = 0
	for _, s := range c.config.suites(c.version) {
		if !c.suiteUsable(s) {
			continue
		}
		for _, cs := range hs.clientHello.cipherSuites {
			if cs == s {
				c.suite = s
				break
			}
		}
		if c.suite != 0 {
			break
		}
	}
	if c.suite == 0 {
		return errors.New("minitls: no mutually acceptable cipher suite")
	}
	kx, _ := suiteKeyExchange(c.suite)
	hs.kx = kx

	if _, err := io.ReadFull(c.config.rand(), hs.serverRandom[:]); err != nil {
		return err
	}

	if c.version == VersionTLS13 {
		if hs.clientHello.keyShareGroup != curveIDFor(c.config.curve()) {
			return fmt.Errorf("minitls: unsupported key share group %d", hs.clientHello.keyShareGroup)
		}
		hs.clientShare = bytes.Clone(hs.clientHello.keyShareData)
		// PSK resumption (psk_dhe_ke): open the ticket and verify the
		// binder over the truncated ClientHello. An invalid ticket or
		// binder silently falls back to a full handshake, except that a
		// *forged* binder on a valid ticket is fatal (RFC 8446 §4.2.11).
		if c.config.hasTicketKey() && hs.clientHello.hasPSK {
			if st, err := c.config.openSessionTicket(hs.ticketPlain[:0], hs.clientHello.pskIdentity); err == nil && st.Version == VersionTLS13 {
				raw := handshakeMsg(nil, typeClientHello, body)
				early, err := c.hkdfOp(func() []byte { return hkdfExtract(nil, st.MasterSecret) })
				if err != nil {
					return err
				}
				if !verifyBinder(early, truncatedCHHash(raw), hs.clientHello.pskBinder) {
					return errors.New("minitls: PSK binder verification failed")
				}
				hs.psk = st.MasterSecret
				c.didResume = true
			}
		}
		c.state = stateS13GenKey
		return nil
	}

	// TLS 1.2: resumption lookup — ticket first (RFC 5077 precedence),
	// then session-ID cache.
	if state, ok := c.lookupResumption(); ok {
		c.didResume = true
		hs.master.secret = state.MasterSecret
		c.suite = state.CipherSuite
		hs.sessionID = hs.clientHello.sessionID
		sh := serverHelloMsg{
			version:     VersionTLS12,
			random:      hs.serverRandom,
			sessionID:   hs.sessionID,
			cipherSuite: c.suite,
		}
		if err := c.writeMsg(sh.marshal(c.msgBuf)); err != nil {
			return err
		}
		c.state = stateS12ResumeKeys
		return nil
	}

	// Full handshake: offer a ticket when the client asked for one and we
	// have a ticket key; allocate a session ID when we have a cache.
	hs.offerTicket = hs.clientHello.hasTicketExt && c.config.hasTicketKey()
	if c.config.SessionCache != nil {
		hs.sessionID = make([]byte, 32)
		if _, err := io.ReadFull(c.config.rand(), hs.sessionID); err != nil {
			return err
		}
	}
	if hs.kx == kxRSA {
		c.state = stateS12FlushHello
	} else {
		c.state = stateS12GenServerKey
	}
	return nil
}

// lookupResumption checks the ClientHello for a resumable session.
func (c *Conn) lookupResumption() (SessionState, bool) {
	hs := &c.hsrv
	if c.config.hasTicketKey() && hs.clientHello.hasTicketExt && len(hs.clientHello.sessionTicket) > 0 {
		if st, err := c.config.openSessionTicket(hs.ticketPlain[:0], hs.clientHello.sessionTicket); err == nil && st.Version == VersionTLS12 {
			return st, true
		}
	}
	if c.config.SessionCache != nil && len(hs.clientHello.sessionID) > 0 {
		if st, ok := c.config.SessionCache.Get(hs.clientHello.sessionID); ok && st.Version == VersionTLS12 {
			return st, true
		}
	}
	return SessionState{}, false
}

// suiteUsable reports whether the server can use the suite with its key.
func (c *Conn) suiteUsable(s uint16) bool {
	kx, ok := suiteKeyExchange(s)
	if !ok {
		return false
	}
	_, isRSA := c.identity.PrivateKey.(*rsa.PrivateKey)
	_, isECDSA := c.identity.PrivateKey.(*ecdsa.PrivateKey)
	switch kx {
	case kxRSA, kxECDHERSA:
		return isRSA
	case kxECDHEECDSA:
		return isECDSA
	case kxTLS13:
		return isRSA || isECDSA
	}
	return false
}

// signDigest signs a SHA-256 digest for the TLS 1.2 ServerKeyExchange
// through the provider (RSA-PKCS1v15 or ECDSA).
func (c *Conn) signDigest(digest []byte) (sig []byte, alg uint16, err error) {
	switch key := c.identity.PrivateKey.(type) {
	case *rsa.PrivateKey:
		res, err := c.do(KindRSA, func() (any, error) {
			return rsa.SignPKCS1v15(nil, key, cryptoSHA256, digest)
		})
		if err != nil {
			return nil, 0, err
		}
		return res.([]byte), sigRSAPKCS1SHA256, nil
	case *ecdsa.PrivateKey:
		rnd := c.config.rand()
		res, err := c.do(KindECDSA, func() (any, error) {
			return ecdsa.SignASN1(rnd, key, digest)
		})
		if err != nil {
			return nil, 0, err
		}
		return res.([]byte), sigECDSAP256, nil
	default:
		return nil, 0, errors.New("minitls: unsupported identity key type")
	}
}

// signDigest13 signs the CertificateVerify digest (RSA-PSS per RFC 8446,
// or ECDSA) through the provider.
func (c *Conn) signDigest13(digest []byte) (sig []byte, alg uint16, err error) {
	switch key := c.identity.PrivateKey.(type) {
	case *rsa.PrivateKey:
		rnd := c.config.rand()
		res, err := c.do(KindRSA, func() (any, error) {
			return rsa.SignPSS(rnd, key, cryptoSHA256, digest, nil)
		})
		if err != nil {
			return nil, 0, err
		}
		return res.([]byte), sigRSAPKCS1SHA256, nil
	case *ecdsa.PrivateKey:
		rnd := c.config.rand()
		res, err := c.do(KindECDSA, func() (any, error) {
			return ecdsa.SignASN1(rnd, key, digest)
		})
		if err != nil {
			return nil, 0, err
		}
		return res.([]byte), sigECDSAP256, nil
	default:
		return nil, 0, errors.New("minitls: unsupported identity key type")
	}
}

// hkdfOp runs an HKDF-class derivation through the provider. Providers
// execute KindHKDF synchronously (the QAT Engine cannot offload HKDF,
// §5.2), so the result is available immediately.
func (c *Conn) hkdfOp(fn func() []byte) ([]byte, error) {
	res, err := c.do(KindHKDF, func() (any, error) { return fn(), nil })
	if err != nil {
		return nil, err
	}
	return res.([]byte), nil
}

// schedule13Handshake derives the TLS 1.3 handshake-phase secrets
// (several HKDF operations — this is the ">4" PRF/HKDF row of Table 1).
// A resumed handshake feeds the accepted PSK into the early secret.
func (c *Conn) schedule13Handshake() error {
	hs := &c.hsrv
	th := c.transcriptHash()
	ikm := zeros32()
	if hs.psk != nil {
		ikm = hs.psk
	}
	early, err := c.hkdfOp(func() []byte { return hkdfExtract(nil, ikm) })
	if err != nil {
		return err
	}
	derived, err := c.hkdfOp(func() []byte { return deriveSecret(early, "derived", emptyHash()) })
	if err != nil {
		return err
	}
	hsSecret, err := c.hkdfOp(func() []byte { return hkdfExtract(derived, hs.sharedSecret) })
	if err != nil {
		return err
	}
	hs.sec.handshakeSecret = hsSecret
	if hs.sec.clientHS, err = c.hkdfOp(func() []byte { return deriveSecret(hsSecret, "c hs traffic", th) }); err != nil {
		return err
	}
	if hs.sec.serverHS, err = c.hkdfOp(func() []byte { return deriveSecret(hsSecret, "s hs traffic", th) }); err != nil {
		return err
	}
	derived2, err := c.hkdfOp(func() []byte { return deriveSecret(hsSecret, "derived", emptyHash()) })
	if err != nil {
		return err
	}
	if hs.sec.masterSecret, err = c.hkdfOp(func() []byte { return hkdfExtract(derived2, zeros32()) }); err != nil {
		return err
	}
	return nil
}

// schedule13App derives the application traffic secrets over the
// transcript through the server Finished.
func (c *Conn) schedule13App(th []byte) error {
	hs := &c.hsrv
	var err error
	if hs.sec.clientApp, err = c.hkdfOp(func() []byte { return deriveSecret(hs.sec.masterSecret, "c ap traffic", th) }); err != nil {
		return err
	}
	if hs.sec.serverApp, err = c.hkdfOp(func() []byte { return deriveSecret(hs.sec.masterSecret, "s ap traffic", th) }); err != nil {
		return err
	}
	return nil
}

// finishHandshake marks completion and gives the TLS 1.2 master secret's
// MAC back to the pool: the handshake derives nothing more from it.
func (c *Conn) finishHandshake() {
	c.handshakeDone = true
	if c.isServer {
		c.hsrv.master.release()
	}
	if c.hcli != nil {
		c.hcli.master.release()
	}
}

func unexpectedMsg(got uint8, want string) error {
	return fmt.Errorf("minitls: unexpected %s, want %s", msgTypeName(got), want)
}

func curveIDFor(curve ecdh.Curve) uint16 {
	switch curve {
	case ecdh.P384():
		return curveP384
	default:
		return curveP256
	}
}

func curveForID(id uint16) (ecdh.Curve, error) {
	switch id {
	case curveP256:
		return ecdh.P256(), nil
	case curveP384:
		return ecdh.P384(), nil
	default:
		return nil, fmt.Errorf("minitls: unsupported curve %d", id)
	}
}
