package minitls

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

// stripFrame removes the 4-byte handshake framing and checks its header.
func stripFrame(t *testing.T, msg []byte, wantType uint8) []byte {
	t.Helper()
	if len(msg) < 4 {
		t.Fatal("message too short")
	}
	if msg[0] != wantType {
		t.Fatalf("type = %d, want %d", msg[0], wantType)
	}
	n := int(msg[1])<<16 | int(msg[2])<<8 | int(msg[3])
	if n != len(msg)-4 {
		t.Fatalf("framed length %d != body length %d", n, len(msg)-4)
	}
	return msg[4:]
}

func TestClientHelloRoundTrip(t *testing.T) {
	in := clientHelloMsg{
		version:           VersionTLS12,
		sessionID:         bytes.Repeat([]byte{9}, 32),
		cipherSuites:      []uint16{TLS_RSA_WITH_AES_128_CBC_SHA, TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		serverName:        "example.test",
		hasTicketExt:      true,
		sessionTicket:     []byte("ticket-bytes"),
		supportedVersions: []uint16{VersionTLS13, VersionTLS12},
		hasKeyShare:       true,
		keyShareGroup:     curveP256,
		keyShareData:      bytes.Repeat([]byte{5}, 65),
	}
	copy(in.random[:], bytes.Repeat([]byte{7}, 32))
	body := stripFrame(t, in.marshal(nil), typeClientHello)
	var out clientHelloMsg
	if err := out.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch:\n in %+v\nout %+v", in, out)
	}
}

func TestClientHelloMinimal(t *testing.T) {
	in := clientHelloMsg{version: VersionTLS12, cipherSuites: []uint16{TLS_RSA_WITH_AES_128_CBC_SHA}}
	body := stripFrame(t, in.marshal(nil), typeClientHello)
	var out clientHelloMsg
	if err := out.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	if out.hasTicketExt || out.hasKeyShare || out.serverName != "" {
		t.Fatal("spurious extensions decoded")
	}
}

func TestServerHelloRoundTrip(t *testing.T) {
	in := serverHelloMsg{
		version:       VersionTLS13,
		sessionID:     []byte{1, 2, 3},
		cipherSuite:   TLS_AES_128_GCM_SHA256,
		ticketOffered: true,
		hasKeyShare:   true,
		keyShareGroup: curveP384,
		keyShareData:  bytes.Repeat([]byte{8}, 97),
	}
	copy(in.random[:], bytes.Repeat([]byte{3}, 32))
	body := stripFrame(t, in.marshal(nil), typeServerHello)
	var out serverHelloMsg
	if err := out.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch")
	}
}

func TestCertificateRoundTrip(t *testing.T) {
	in := certificateMsg{chain: [][]byte{bytes.Repeat([]byte{1}, 900), {2, 2}}}
	body := stripFrame(t, in.marshal(nil), typeCertificate)
	var out certificateMsg
	if err := out.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.chain, out.chain) {
		t.Fatal("chain mismatch")
	}
}

func TestCertificateEmptyChainRejected(t *testing.T) {
	in := certificateMsg{}
	body := stripFrame(t, in.marshal(nil), typeCertificate)
	var out certificateMsg
	if err := out.unmarshal(body); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestServerKeyExchangeRoundTrip(t *testing.T) {
	in := serverKeyExchangeMsg{
		curveID:   curveP256,
		publicKey: bytes.Repeat([]byte{4}, 65),
		sigAlg:    sigRSAPKCS1SHA256,
		signature: bytes.Repeat([]byte{6}, 256),
	}
	body := stripFrame(t, in.marshal(nil), typeServerKeyExchange)
	var out serverKeyExchangeMsg
	if err := out.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("roundtrip mismatch")
	}
	if !bytes.Equal(in.paramsBytes(), out.paramsBytes()) {
		t.Fatal("signed params differ")
	}
}

func TestClientKeyExchangeRoundTrip(t *testing.T) {
	rsaIn := clientKeyExchangeMsg{isRSA: true, rsaCiphertext: bytes.Repeat([]byte{7}, 256)}
	body := stripFrame(t, rsaIn.marshal(nil), typeClientKeyExchange)
	var rsaOut clientKeyExchangeMsg
	if err := rsaOut.unmarshal(body, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rsaIn.rsaCiphertext, rsaOut.rsaCiphertext) {
		t.Fatal("rsa ciphertext mismatch")
	}

	ecIn := clientKeyExchangeMsg{ecdhPublic: bytes.Repeat([]byte{8}, 65)}
	body = stripFrame(t, ecIn.marshal(nil), typeClientKeyExchange)
	var ecOut clientKeyExchangeMsg
	if err := ecOut.unmarshal(body, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ecIn.ecdhPublic, ecOut.ecdhPublic) {
		t.Fatal("ec public mismatch")
	}
	// Trailing garbage rejected.
	if err := ecOut.unmarshal(append(body, 0xff), false); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestFinishedAndTicketRoundTrip(t *testing.T) {
	fin := finishedMsg{verifyData: bytes.Repeat([]byte{9}, 12)}
	body := stripFrame(t, fin.marshal(nil), typeFinished)
	var finOut finishedMsg
	if err := finOut.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fin.verifyData, finOut.verifyData) {
		t.Fatal("verify data mismatch")
	}
	if err := finOut.unmarshal(nil); err == nil {
		t.Fatal("empty finished accepted")
	}

	nst := newSessionTicketMsg{lifetimeSeconds: 3600, ticket: []byte("tkt")}
	body = stripFrame(t, nst.marshal(nil), typeNewSessionTicket)
	var nstOut newSessionTicketMsg
	if err := nstOut.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	if nstOut.lifetimeSeconds != 3600 || string(nstOut.ticket) != "tkt" {
		t.Fatal("ticket mismatch")
	}
}

func TestCertificateVerifyRoundTrip(t *testing.T) {
	in := certificateVerifyMsg{sigAlg: sigECDSAP256, signature: bytes.Repeat([]byte{2}, 70)}
	body := stripFrame(t, in.marshal(nil), typeCertificateVerify)
	var out certificateVerifyMsg
	if err := out.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestEncryptedExtensionsRoundTrip(t *testing.T) {
	var in encryptedExtensionsMsg
	body := stripFrame(t, in.marshal(nil), typeEncryptedExtensions)
	var out encryptedExtensionsMsg
	if err := out.unmarshal(body); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedMessagesRejected(t *testing.T) {
	full := clientHelloMsg{version: VersionTLS12, cipherSuites: []uint16{1}}
	body := stripFrame(t, full.marshal(nil), typeClientHello)
	for n := 0; n < len(body); n++ {
		var out clientHelloMsg
		if err := out.unmarshal(body[:n]); err == nil {
			// Some prefixes happen to parse when optional trailing parts
			// (extensions) are cut exactly at a boundary; that is legal.
			// But a prefix shorter than the mandatory fields must fail.
			if n < 2+32+1+2+2+1 {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
		}
	}
}

// Property: ClientHello marshal/unmarshal is the identity on the fields
// we control.
func TestClientHelloRoundTripProperty(t *testing.T) {
	f := func(rnd [32]byte, sid []byte, suites []uint16, sn string, ticket []byte) bool {
		if len(sid) > 32 {
			sid = sid[:32]
		}
		if len(suites) == 0 {
			suites = []uint16{TLS_RSA_WITH_AES_128_CBC_SHA}
		}
		if len(suites) > 100 {
			suites = suites[:100]
		}
		if len(sn) > 200 {
			sn = sn[:200]
		}
		if len(ticket) > 1000 {
			ticket = ticket[:1000]
		}
		in := clientHelloMsg{
			version:       VersionTLS12,
			random:        rnd,
			sessionID:     sid,
			cipherSuites:  suites,
			serverName:    sn,
			hasTicketExt:  true,
			sessionTicket: ticket,
		}
		var out clientHelloMsg
		if err := out.unmarshal(stripFrameQuiet(in.marshal(nil))); err != nil {
			return false
		}
		return out.version == in.version &&
			out.random == in.random &&
			bytes.Equal(out.sessionID, in.sessionID) &&
			reflect.DeepEqual(out.cipherSuites, in.cipherSuites) &&
			out.serverName == in.serverName &&
			out.hasTicketExt &&
			bytes.Equal(out.sessionTicket, in.sessionTicket)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func stripFrameQuiet(msg []byte) []byte { return msg[4:] }

func TestMsgTypeNames(t *testing.T) {
	for _, typ := range []uint8{typeClientHello, typeServerHello, typeNewSessionTicket,
		typeEncryptedExtensions, typeCertificate, typeServerKeyExchange,
		typeServerHelloDone, typeCertificateVerify, typeClientKeyExchange, typeFinished} {
		if msgTypeName(typ) == "" {
			t.Fatalf("no name for type %d", typ)
		}
	}
	if msgTypeName(99) != "handshake(99)" {
		t.Fatal("unknown type rendering")
	}
}
