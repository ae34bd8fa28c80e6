package minitls

import (
	"bytes"
	"crypto/elliptic"
	"io"
	"net"
	"sync"
	"testing"
)

// Shared identities: key generation is expensive, so tests share one RSA
// and one ECDSA identity.
var (
	idOnce  sync.Once
	rsaID   *Identity
	ecdsaID *Identity
)

func testIdentities(t testing.TB) (*Identity, *Identity) {
	t.Helper()
	idOnce.Do(func() {
		var err error
		rsaID, err = NewRSAIdentity(2048)
		if err != nil {
			panic(err)
		}
		ecdsaID, err = NewECDSAIdentity(elliptic.P256())
		if err != nil {
			panic(err)
		}
	})
	return rsaID, ecdsaID
}

// handshakePair runs a client/server handshake over an in-memory pipe,
// with the client on its own goroutine, and returns both sides plus the
// client error channel.
func handshakePair(t *testing.T, serverCfg, clientCfg *Config) (*Conn, *Conn, chan error) {
	t.Helper()
	cliT, srvT := net.Pipe()
	t.Cleanup(func() { cliT.Close(); srvT.Close() })
	server := Server(srvT, serverCfg)
	client := ClientConn(cliT, clientCfg)
	cliErr := make(chan error, 1)
	go func() { cliErr <- client.Handshake() }()
	if err := server.Handshake(); err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	if err := <-cliErr; err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	return server, client, cliErr
}

// echoCheck verifies bidirectional application data after a handshake.
func echoCheck(t *testing.T, server, client *Conn) {
	t.Helper()
	msg := []byte("hello from server over minitls")
	done := make(chan error, 1)
	var got []byte
	go func() {
		buf := make([]byte, len(msg))
		_, err := io.ReadFull(&connReader{client}, buf)
		got = buf
		done <- err
	}()
	if _, err := server.Write(msg); err != nil {
		t.Fatalf("server write: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("client read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q", got)
	}

	reply := []byte("ack from client")
	go func() {
		_, err := client.Write(reply)
		done <- err
	}()
	buf := make([]byte, len(reply))
	if _, err := io.ReadFull(&connReader{server}, buf); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("client write: %v", err)
	}
	if !bytes.Equal(buf, reply) {
		t.Fatalf("reply mismatch: %q", buf)
	}
}

// connReader adapts Conn.Read to io.Reader for io.ReadFull.
type connReader struct{ c *Conn }

func (r *connReader) Read(p []byte) (int, error) { return r.c.Read(p) }

func TestHandshakeTLS12RSA(t *testing.T) {
	rsaID, _ := testIdentities(t)
	var ops OpCounts
	server, client, _ := handshakePair(t,
		&Config{Identity: rsaID, CipherSuites: []uint16{TLS_RSA_WITH_AES_128_CBC_SHA}, OpCounter: &ops},
		&Config{})
	st := server.ConnectionState()
	if st.Version != VersionTLS12 || st.CipherSuite != TLS_RSA_WITH_AES_128_CBC_SHA {
		t.Fatalf("state = %+v", st)
	}
	if st.DidResume {
		t.Fatal("unexpected resumption")
	}
	if client.ConnectionState().CipherSuite != TLS_RSA_WITH_AES_128_CBC_SHA {
		t.Fatal("client suite mismatch")
	}
	echoCheck(t, server, client)

	// Table 1, row "1.2 TLS-RSA": RSA=1, ECC=0, PRF=4.
	rsaN, ecc, prfN := ops.Table1Row()
	if rsaN != 1 || ecc != 0 || prfN != 4 {
		t.Fatalf("Table1 row = RSA:%d ECC:%d PRF:%d, want 1/0/4", rsaN, ecc, prfN)
	}
}

func TestHandshakeTLS12ECDHERSA(t *testing.T) {
	rsaID, _ := testIdentities(t)
	var ops OpCounts
	server, client, _ := handshakePair(t,
		&Config{Identity: rsaID, CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}, OpCounter: &ops},
		&Config{})
	if server.ConnectionState().CipherSuite != TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA {
		t.Fatal("suite mismatch")
	}
	echoCheck(t, server, client)

	// Table 1, row "1.2 ECDHE-RSA": RSA=1, ECC=2, PRF=4.
	rsaN, ecc, prfN := ops.Table1Row()
	if rsaN != 1 || ecc != 2 || prfN != 4 {
		t.Fatalf("Table1 row = RSA:%d ECC:%d PRF:%d, want 1/2/4", rsaN, ecc, prfN)
	}
}

func TestHandshakeTLS12ECDHEECDSA(t *testing.T) {
	_, ecdsaID := testIdentities(t)
	var ops OpCounts
	server, client, _ := handshakePair(t,
		&Config{Identity: ecdsaID, CipherSuites: []uint16{TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA}, OpCounter: &ops},
		&Config{})
	if server.ConnectionState().CipherSuite != TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA {
		t.Fatal("suite mismatch")
	}
	echoCheck(t, server, client)

	// Table 1, row "1.2 ECDHE-ECDSA": RSA=0, ECC=3, PRF=4.
	rsaN, ecc, prfN := ops.Table1Row()
	if rsaN != 0 || ecc != 3 || prfN != 4 {
		t.Fatalf("Table1 row = RSA:%d ECC:%d PRF:%d, want 0/3/4", rsaN, ecc, prfN)
	}
}

func TestHandshakeTLS13(t *testing.T) {
	rsaID, _ := testIdentities(t)
	var ops OpCounts
	server, client, _ := handshakePair(t,
		&Config{Identity: rsaID, MaxVersion: VersionTLS13, OpCounter: &ops},
		&Config{MaxVersion: VersionTLS13})
	st := server.ConnectionState()
	if st.Version != VersionTLS13 || st.CipherSuite != TLS_AES_128_GCM_SHA256 {
		t.Fatalf("state = %+v", st)
	}
	echoCheck(t, server, client)

	// Table 1, row "1.3 ECDHE-RSA": RSA=1, ECC=2, PRF/HKDF > 4.
	rsaN, ecc, kdf := ops.Table1Row()
	if rsaN != 1 || ecc != 2 {
		t.Fatalf("RSA:%d ECC:%d, want 1/2", rsaN, ecc)
	}
	if kdf <= 4 {
		t.Fatalf("HKDF ops = %d, want > 4", kdf)
	}
	if ops.Get(KindPRF) != 0 {
		t.Fatal("TLS 1.3 must not use the TLS 1.2 PRF")
	}
}

func TestTLS13FallbackWhenClientIs12(t *testing.T) {
	rsaID, _ := testIdentities(t)
	server, client, _ := handshakePair(t,
		&Config{Identity: rsaID, MaxVersion: VersionTLS13},
		&Config{MaxVersion: VersionTLS12})
	if server.ConnectionState().Version != VersionTLS12 {
		t.Fatal("expected TLS 1.2 fallback")
	}
	echoCheck(t, server, client)
}

func TestSessionIDResumption(t *testing.T) {
	rsaID, _ := testIdentities(t)
	cache := NewSessionCache(16)
	serverCfg := &Config{
		Identity:     rsaID,
		CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		SessionCache: cache,
	}

	server1, client1, _ := handshakePair(t, serverCfg, &Config{})
	if server1.ConnectionState().DidResume {
		t.Fatal("first handshake resumed")
	}
	sess := client1.ResumptionSession()
	if sess == nil || len(sess.SessionID) == 0 {
		t.Fatal("client has no resumable session")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache len = %d", cache.Len())
	}

	var ops OpCounts
	serverCfg2 := *serverCfg
	serverCfg2.OpCounter = &ops
	server2, client2, _ := handshakePair(t, &serverCfg2, &Config{Session: sess})
	if !server2.ConnectionState().DidResume || !client2.ConnectionState().DidResume {
		t.Fatal("second handshake did not resume")
	}
	echoCheck(t, server2, client2)

	// Abbreviated handshake: PRF calculations only (§2.1, §5.3).
	rsaN, ecc, prfN := ops.Table1Row()
	if rsaN != 0 || ecc != 0 {
		t.Fatalf("asymmetric ops in abbreviated handshake: RSA:%d ECC:%d", rsaN, ecc)
	}
	if prfN != 3 {
		t.Fatalf("PRF ops = %d, want 3 (key expansion + 2 finished)", prfN)
	}
}

func TestTicketResumption(t *testing.T) {
	rsaID, _ := testIdentities(t)
	var key [32]byte
	copy(key[:], bytes.Repeat([]byte{0x5a}, 32))
	serverCfg := &Config{
		Identity:     rsaID,
		CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		TicketKey:    &key,
	}

	_, client1, _ := handshakePair(t, serverCfg, &Config{RequestTicket: true})
	sess := client1.ResumptionSession()
	if sess == nil || len(sess.Ticket) == 0 {
		t.Fatal("client did not receive a ticket")
	}

	var ops OpCounts
	serverCfg2 := *serverCfg
	serverCfg2.OpCounter = &ops
	server2, client2, _ := handshakePair(t, &serverCfg2, &Config{Session: sess})
	if !server2.ConnectionState().DidResume {
		t.Fatal("ticket resumption failed")
	}
	echoCheck(t, server2, client2)
	rsaN, ecc, _ := ops.Table1Row()
	if rsaN != 0 || ecc != 0 {
		t.Fatalf("asymmetric ops in ticket resumption: RSA:%d ECC:%d", rsaN, ecc)
	}
}

func TestResumptionDeclinedFallsBackToFull(t *testing.T) {
	rsaID, _ := testIdentities(t)
	// Server without a cache cannot resume; client offers a stale session.
	serverCfg := &Config{Identity: rsaID, CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}}
	stale := &ClientSession{
		SessionID:    bytes.Repeat([]byte{1}, 32),
		Version:      VersionTLS12,
		CipherSuite:  TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
		MasterSecret: bytes.Repeat([]byte{2}, 48),
	}
	server, client, _ := handshakePair(t, serverCfg, &Config{Session: stale})
	if server.ConnectionState().DidResume || client.ConnectionState().DidResume {
		t.Fatal("stale session resumed")
	}
	echoCheck(t, server, client)
}

func TestLargeTransferCipherOps(t *testing.T) {
	rsaID, _ := testIdentities(t)
	var ops OpCounts
	server, client, _ := handshakePair(t,
		&Config{Identity: rsaID, CipherSuites: []uint16{TLS_RSA_WITH_AES_128_CBC_SHA}, OpCounter: &ops},
		&Config{})
	ops.Reset()

	const size = 100 * 1024
	payload := bytes.Repeat([]byte{0xcd}, size)
	done := make(chan error, 1)
	received := make([]byte, size)
	go func() {
		_, err := io.ReadFull(&connReader{client}, received)
		done <- err
	}()
	if _, err := server.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(received, payload) {
		t.Fatal("payload corrupted")
	}
	// 100 KB opens the turn, so it fragments into one TCP segment's record
	// and then 16 KB ones: 1 151 + 6 × 16 384 + 2 945 = 8 records → 8 cipher
	// ops (the structure behind Fig. 10).
	if got := ops.Get(KindCipher); got != 8 {
		t.Fatalf("cipher ops = %d, want 8", got)
	}
}

func TestServerRequiresIdentity(t *testing.T) {
	cliT, srvT := net.Pipe()
	defer cliT.Close()
	defer srvT.Close()
	server := Server(srvT, &Config{})
	if err := server.Handshake(); err == nil {
		t.Fatal("handshake without identity succeeded")
	}
}

func TestSuiteKeyMismatchRejected(t *testing.T) {
	_, ecdsaID := testIdentities(t)
	cliT, srvT := net.Pipe()
	defer cliT.Close()
	defer srvT.Close()
	// ECDSA identity cannot serve RSA-keyed suites.
	server := Server(srvT, &Config{Identity: ecdsaID, CipherSuites: []uint16{TLS_RSA_WITH_AES_128_CBC_SHA}})
	client := ClientConn(cliT, &Config{CipherSuites: []uint16{TLS_RSA_WITH_AES_128_CBC_SHA}})
	go func() { client.Handshake() }()
	if err := server.Handshake(); err == nil {
		t.Fatal("expected suite negotiation failure")
	}
}

func TestCloseNotify(t *testing.T) {
	rsaID, _ := testIdentities(t)
	server, client, _ := handshakePair(t, &Config{Identity: rsaID}, &Config{})
	go server.Close()
	buf := make([]byte, 16)
	if _, err := client.Read(buf); err != io.EOF {
		t.Fatalf("read after close-notify = %v, want EOF", err)
	}
	// Conn unusable after Close.
	if _, err := server.Write([]byte("x")); err != ErrClosed {
		t.Fatalf("write after close = %v, want ErrClosed", err)
	}
}

func TestOpCountsHelpers(t *testing.T) {
	var ops OpCounts
	ops.Add(KindRSA, 2)
	ops.Add(KindECDSA, 1)
	ops.Add(KindECDH, 3)
	ops.Add(KindPRF, 4)
	ops.Add(KindHKDF, 5)
	r, e, p := ops.Table1Row()
	if r != 2 || e != 4 || p != 9 {
		t.Fatalf("Table1Row = %d/%d/%d", r, e, p)
	}
	ops.Reset()
	if ops.Get(KindRSA) != 0 {
		t.Fatal("Reset failed")
	}
}

func TestVersionAndSuiteNames(t *testing.T) {
	if VersionName(VersionTLS12) != "TLS 1.2" || VersionName(VersionTLS13) != "TLS 1.3" {
		t.Fatal("version names")
	}
	if VersionName(0x0301) == "" {
		t.Fatal("unknown version should render")
	}
	for _, s := range []uint16{TLS_RSA_WITH_AES_128_CBC_SHA, TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
		TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA, TLS_AES_128_GCM_SHA256, 0x9999} {
		if CipherSuiteName(s) == "" {
			t.Fatalf("no name for suite %04x", s)
		}
	}
}
