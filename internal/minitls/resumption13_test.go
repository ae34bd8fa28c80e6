package minitls

import (
	"bytes"
	"io"
	"net"
	"testing"
)

func tls13ServerConfig(t *testing.T, ops *OpCounts) *Config {
	t.Helper()
	rsaID, _ := testIdentities(t)
	var key [32]byte
	copy(key[:], bytes.Repeat([]byte{0x77}, 32))
	return &Config{
		Identity:   rsaID,
		MaxVersion: VersionTLS13,
		TicketKey:  &key,
		OpCounter:  ops,
	}
}

// run13 performs a TLS 1.3 handshake and one byte of app data (so the
// client consumes the post-handshake NewSessionTicket), returning both
// ends.
func run13(t *testing.T, serverCfg *Config, clientCfg *Config) (*Conn, *Conn) {
	t.Helper()
	cliT, srvT := net.Pipe()
	t.Cleanup(func() { cliT.Close(); srvT.Close() })
	server := Server(srvT, serverCfg)
	client := ClientConn(cliT, clientCfg)
	cliErr := make(chan error, 1)
	got := make([]byte, 4)
	go func() {
		if err := client.Handshake(); err != nil {
			cliErr <- err
			return
		}
		_, err := io.ReadFull(&connReader{client}, got)
		cliErr <- err
	}()
	if err := server.Handshake(); err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	if _, err := server.Write([]byte("pong")); err != nil {
		t.Fatalf("server write: %v", err)
	}
	if err := <-cliErr; err != nil {
		t.Fatalf("client: %v", err)
	}
	if string(got) != "pong" {
		t.Fatalf("app data = %q", got)
	}
	return server, client
}

func TestTLS13TicketIssued(t *testing.T) {
	serverCfg := tls13ServerConfig(t, nil)
	_, client := run13(t, serverCfg, &Config{MaxVersion: VersionTLS13})
	sess := client.ResumptionSession()
	if sess == nil {
		t.Fatal("no 1.3 session captured from NewSessionTicket")
	}
	if sess.Version != VersionTLS13 || len(sess.Ticket) == 0 || len(sess.MasterSecret) != 32 {
		t.Fatalf("session = %+v", sess)
	}
}

func TestTLS13PSKResumption(t *testing.T) {
	serverCfg := tls13ServerConfig(t, nil)
	_, client1 := run13(t, serverCfg, &Config{MaxVersion: VersionTLS13})
	sess := client1.ResumptionSession()
	if sess == nil {
		t.Fatal("no session")
	}

	var ops OpCounts
	serverCfg2 := tls13ServerConfig(t, &ops)
	server2, client2 := run13(t, serverCfg2, &Config{MaxVersion: VersionTLS13, Session: sess})
	if !server2.ConnectionState().DidResume {
		t.Fatal("server did not resume")
	}
	if !client2.ConnectionState().DidResume {
		t.Fatal("client did not resume")
	}
	// PSK mode skips the certificate flight: no RSA signature; ECDHE is
	// still performed (psk_dhe_ke forward secrecy); HKDF work increases
	// (binder + resumption derivations) — the TLS 1.3 behavior §2.1
	// describes: "the enhanced security requires more key derivation".
	rsaN, ecc, kdf := ops.Table1Row()
	if rsaN != 0 {
		t.Fatalf("RSA ops = %d in PSK handshake, want 0", rsaN)
	}
	if ecc != 2 {
		t.Fatalf("ECC ops = %d, want 2 (psk_dhe_ke)", ecc)
	}
	if kdf <= 11 {
		t.Fatalf("HKDF ops = %d, want > 11 (binder + ticket derivations)", kdf)
	}

	// The resumed connection issues a fresh ticket usable again.
	sess2 := client2.ResumptionSession()
	if sess2 == nil || bytes.Equal(sess2.Ticket, sess.Ticket) {
		t.Fatal("no fresh ticket on the resumed connection")
	}
	server3, _ := run13(t, tls13ServerConfig(t, nil), &Config{MaxVersion: VersionTLS13, Session: sess2})
	if !server3.ConnectionState().DidResume {
		t.Fatal("chained resumption failed")
	}
}

// A garbage ticket falls back to a full handshake (no fatal error).
func TestTLS13BogusTicketFallsBack(t *testing.T) {
	serverCfg := tls13ServerConfig(t, nil)
	bogus := &ClientSession{
		Version:      VersionTLS13,
		Ticket:       bytes.Repeat([]byte{0xee}, 64),
		MasterSecret: bytes.Repeat([]byte{0xdd}, 32),
	}
	server, client := run13(t, serverCfg, &Config{MaxVersion: VersionTLS13, Session: bogus})
	if server.ConnectionState().DidResume || client.ConnectionState().DidResume {
		t.Fatal("bogus ticket resumed")
	}
}

// A valid ticket with the wrong PSK (forged binder) is fatal.
func TestTLS13WrongPSKRejected(t *testing.T) {
	serverCfg := tls13ServerConfig(t, nil)
	_, client1 := run13(t, serverCfg, &Config{MaxVersion: VersionTLS13})
	sess := client1.ResumptionSession()
	if sess == nil {
		t.Fatal("no session")
	}
	forged := *sess
	forged.MasterSecret = bytes.Repeat([]byte{0x01}, 32)

	cliT, srvT := net.Pipe()
	defer cliT.Close()
	defer srvT.Close()
	server := Server(srvT, serverCfg)
	client := ClientConn(cliT, &Config{MaxVersion: VersionTLS13, Session: &forged})
	done := make(chan error, 1)
	go func() { done <- client.Handshake() }()
	err := server.Handshake()
	srvT.Close() // tear the transport down so the client unblocks
	if err == nil {
		t.Fatal("server accepted a forged binder")
	}
	if cliErr := <-done; cliErr == nil {
		t.Fatal("client completed against a failed server")
	}
}

// A 1.2-capped server declines the PSK and the connection falls back to
// a full TLS 1.2 handshake.
func TestTLS13SessionAgainstTLS12Server(t *testing.T) {
	serverCfg := tls13ServerConfig(t, nil)
	_, client1 := run13(t, serverCfg, &Config{MaxVersion: VersionTLS13})
	sess := client1.ResumptionSession()
	if sess == nil {
		t.Fatal("no session")
	}
	rsaID, _ := testIdentities(t)
	server, client, _ := handshakePair(t,
		&Config{Identity: rsaID, CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}},
		&Config{MaxVersion: VersionTLS13, Session: sess})
	if server.ConnectionState().Version != VersionTLS12 {
		t.Fatalf("version = %04x", server.ConnectionState().Version)
	}
	if server.ConnectionState().DidResume {
		t.Fatal("1.3 session resumed on a 1.2 connection")
	}
	echoCheck(t, server, client)
}

// PSK resumption under the async offload framework: only the two ECDH
// ops pause (HKDF stays inline).
func TestTLS13PSKResumptionAsync(t *testing.T) {
	serverCfg := tls13ServerConfig(t, nil)
	_, client1 := run13(t, serverCfg, &Config{MaxVersion: VersionTLS13})
	sess := client1.ResumptionSession()
	if sess == nil {
		t.Fatal("no session")
	}

	p := &manualProvider{}
	cliT, srvT := net.Pipe()
	defer cliT.Close()
	defer srvT.Close()
	asyncCfg := tls13ServerConfig(t, nil)
	asyncCfg.Provider = p
	asyncCfg.AsyncMode = AsyncModeFiber
	server := Server(srvT, asyncCfg)
	client := ClientConn(cliT, &Config{MaxVersion: VersionTLS13, Session: sess})
	cliErr := make(chan error, 1)
	got := make([]byte, 2)
	go func() {
		if err := client.Handshake(); err != nil {
			cliErr <- err
			return
		}
		// Consume the post-handshake NewSessionTicket + app data so the
		// server's writes on the unbuffered pipe complete.
		_, err := io.ReadFull(&connReader{client}, got)
		cliErr <- err
	}()
	pauses := driveServer(t, server, p)
	msg := []byte("ok") // a busy Write must be re-entered with the same buffer
	for {
		_, err := server.Write(msg)
		if err == nil {
			break
		}
		if IsBusy(err) {
			p.completeOne()
			continue
		}
		t.Fatalf("server write: %v", err)
	}
	if err := <-cliErr; err != nil {
		t.Fatal(err)
	}
	if !server.ConnectionState().DidResume {
		t.Fatal("did not resume")
	}
	if pauses != 2 {
		t.Fatalf("pauses = %d, want 2 (ECDH keygen + derive)", pauses)
	}
}

func TestBinderHelpers(t *testing.T) {
	psk := bytes.Repeat([]byte{9}, 32)
	early := hkdfExtract(nil, psk)
	ch := append([]byte{1, 0, 0, 100}, bytes.Repeat([]byte{5}, 100)...)
	th := truncatedCHHash(ch)
	if th == nil {
		t.Fatal("no truncated hash")
	}
	b := computeBinder(early, th)
	if len(b) != binderLen {
		t.Fatalf("binder len = %d", len(b))
	}
	if !verifyBinder(early, th, b) {
		t.Fatal("binder round trip failed")
	}
	b[0] ^= 1
	if verifyBinder(early, th, b) {
		t.Fatal("tampered binder accepted")
	}
	if truncatedCHHash(ch[:10]) != nil {
		t.Fatal("short CH should yield nil hash")
	}
}

func TestPSKExtensionRoundTrip(t *testing.T) {
	in := clientHelloMsg{
		version:           VersionTLS12,
		cipherSuites:      []uint16{TLS_AES_128_GCM_SHA256},
		supportedVersions: []uint16{VersionTLS13},
		hasKeyShare:       true,
		keyShareGroup:     curveP256,
		keyShareData:      bytes.Repeat([]byte{2}, 65),
		hasPSK:            true,
		pskIdentity:       []byte("ticket-identity"),
		pskBinder:         bytes.Repeat([]byte{7}, binderLen),
	}
	var out clientHelloMsg
	if err := out.unmarshal(in.marshal(nil)[4:]); err != nil {
		t.Fatal(err)
	}
	if !out.hasPSK || !bytes.Equal(out.pskIdentity, in.pskIdentity) || !bytes.Equal(out.pskBinder, in.pskBinder) {
		t.Fatalf("psk roundtrip: %+v", out)
	}
	// ServerHello PSK acceptance flag.
	sh := serverHelloMsg{version: VersionTLS13, cipherSuite: TLS_AES_128_GCM_SHA256, pskSelected: true}
	var shOut serverHelloMsg
	if err := shOut.unmarshal(sh.marshal(nil)[4:]); err != nil {
		t.Fatal(err)
	}
	if !shOut.pskSelected {
		t.Fatal("pskSelected lost")
	}
}
