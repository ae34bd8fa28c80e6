package minitls

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// trickleConn delivers at most n bytes per Read, exercising partial
// record and partial handshake-message reassembly.
type trickleConn struct {
	net.Conn
	n int
}

func (c *trickleConn) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.Conn.Read(p)
}

func TestHandshakeOverTrickleTransport(t *testing.T) {
	rsaID, _ := testIdentities(t)
	cliT, srvT := net.Pipe()
	defer cliT.Close()
	defer srvT.Close()
	server := Server(&trickleConn{Conn: srvT, n: 3}, &Config{
		Identity:     rsaID,
		CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
	})
	client := ClientConn(&trickleConn{Conn: cliT, n: 5}, &Config{})
	errc := make(chan error, 1)
	go func() { errc <- client.Handshake() }()
	if err := server.Handshake(); err != nil {
		t.Fatalf("server: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("client: %v", err)
	}
	echoCheck(t, server, client)
}

// nonBlockingWrap simulates a non-blocking transport: Read returns a
// would-block error when no data is buffered.
type nonBlockingWrap struct {
	in  bytes.Buffer
	out *bytes.Buffer
}

type nbErr struct{}

func (nbErr) Error() string    { return "would block" }
func (nbErr) WouldBlock() bool { return true }

func (c *nonBlockingWrap) Read(p []byte) (int, error) {
	if c.in.Len() == 0 {
		return 0, nbErr{}
	}
	return c.in.Read(p)
}

func (c *nonBlockingWrap) Write(p []byte) (int, error) { return c.out.Write(p) }

// A server on a non-blocking transport surfaces ErrWantRead until enough
// bytes arrive, then proceeds — the event-driven contract (§2.2).
func TestWantReadOnNonBlockingTransport(t *testing.T) {
	rsaID, _ := testIdentities(t)
	var toClient bytes.Buffer
	srvT := &nonBlockingWrap{out: &toClient}
	server := Server(srvT, &Config{
		Identity:     rsaID,
		CipherSuites: []uint16{TLS_RSA_WITH_AES_128_CBC_SHA},
	})
	if err := server.Handshake(); !errors.Is(err, ErrWantRead) {
		t.Fatalf("empty transport: err = %v, want ErrWantRead", err)
	}
	// Produce a real ClientHello via a scratch client.
	scratch := nonBlockingWrap{out: &bytes.Buffer{}}
	client := ClientConn(&scratch, &Config{})
	if err := client.Handshake(); !errors.Is(err, ErrWantRead) {
		t.Fatalf("client should want read after sending CH, got %v", err)
	}
	ch := scratch.out.Bytes()
	// Feed the ClientHello one byte at a time: ErrWantRead until complete.
	for i, b := range ch {
		srvT.in.WriteByte(b)
		err := server.Handshake()
		if i < len(ch)-1 {
			if !errors.Is(err, ErrWantRead) {
				t.Fatalf("byte %d/%d: err = %v, want ErrWantRead", i+1, len(ch), err)
			}
		} else if !errors.Is(err, ErrWantRead) {
			// After the full CH the server writes its flight and then
			// wants the next client flight.
			t.Fatalf("after full CH: err = %v, want ErrWantRead", err)
		}
	}
	if toClient.Len() == 0 {
		t.Fatal("server never flushed its flight")
	}
}

func TestReadWriteAutoHandshake(t *testing.T) {
	rsaID, _ := testIdentities(t)
	cliT, srvT := net.Pipe()
	defer cliT.Close()
	defer srvT.Close()
	server := Server(srvT, &Config{Identity: rsaID})
	client := ClientConn(cliT, &Config{})
	// Client Write triggers the handshake implicitly; server Read too.
	errc := make(chan error, 1)
	go func() {
		_, err := client.Write([]byte("implicit"))
		errc <- err
	}()
	buf := make([]byte, 8)
	if _, err := io.ReadFull(&connReader{server}, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if string(buf) != "implicit" {
		t.Fatalf("got %q", buf)
	}
}

func TestFatalErrorIsSticky(t *testing.T) {
	rsaID, _ := testIdentities(t)
	var garbage nonBlockingWrap
	// A record that is too large: header declares an oversized body.
	garbage.in.Write([]byte{22, 3, 3, 0xff, 0xff})
	garbage.in.Write(make([]byte, 65535))
	server := Server(&garbage, &Config{Identity: rsaID})
	err1 := server.Handshake()
	if err1 == nil || IsBusy(err1) {
		t.Fatalf("err1 = %v, want fatal", err1)
	}
	err2 := server.Handshake()
	if !errors.Is(err2, err1) {
		t.Fatalf("fatal error not sticky: %v vs %v", err2, err1)
	}
}

// A busy Write may only be re-entered with the same memory — same length
// is not enough, for either gathered part — and the legitimate re-entry
// still completes in both async modes.
func TestWriteReEntryWithDifferentBufferRejected(t *testing.T) {
	for _, mode := range []AsyncMode{AsyncModeFiber, AsyncModeStack} {
		t.Run(mode.String(), func(t *testing.T) {
			p := &manualProvider{}
			server, client, cliErr := asyncPair(t, mode, p, TLS_RSA_WITH_AES_128_CBC_SHA, nil)
			driveServer(t, server, p)
			if err := <-cliErr; err != nil {
				t.Fatal(err)
			}
			m := &memTransport{}
			server.transport, client.transport = m, m
			hdr, body := bytes.Repeat([]byte{'h'}, 64), bytes.Repeat([]byte{'b'}, 20000)
			if _, err := server.Writev(hdr, body); !errors.Is(err, ErrWantAsync) {
				t.Fatalf("first write: %v", err)
			}
			p.completeOne() // the provider, like a fiber, must not be resumed before its response
			for _, other := range [][2][]byte{{bytes.Clone(hdr), body}, {hdr, bytes.Clone(body)}, {hdr, body[:len(body)-1]}} {
				if _, err := server.Writev(other[0], other[1]); err == nil || IsBusy(err) {
					t.Fatalf("re-entry with different memory: err = %v, want refusal", err)
				}
			}
			for {
				n, err := server.Writev(hdr, body)
				if err == nil {
					if n != len(hdr)+len(body) {
						t.Fatalf("n = %d", n)
					}
					break
				}
				if !errors.Is(err, ErrWantAsync) || !p.completeOne() {
					t.Fatalf("legitimate re-entry: %v", err)
				}
			}
			if _, plain := readRecords(t, client); !bytes.Equal(plain, append(bytes.Clone(hdr), body...)) {
				t.Fatal("peer read different bytes")
			}
		})
	}
}

func TestIsBusyClassification(t *testing.T) {
	for _, err := range []error{ErrWantRead, ErrWantAsync, ErrWantAsyncRetry} {
		if !IsBusy(err) {
			t.Fatalf("%v should be busy", err)
		}
	}
	if IsBusy(io.EOF) || IsBusy(nil) {
		t.Fatal("misclassified")
	}
}

func TestAsyncModeStrings(t *testing.T) {
	if AsyncModeOff.String() != "off" || AsyncModeFiber.String() != "fiber" || AsyncModeStack.String() != "stack" {
		t.Fatal("mode names")
	}
	if AsyncMode(7).String() == "" {
		t.Fatal("unknown mode should render")
	}
	for _, k := range []OpKind{KindRSA, KindECDSA, KindECDH, KindPRF, KindHKDF, KindCipher} {
		if k.String() == "" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if !KindRSA.Asymmetric() || KindPRF.Asymmetric() || KindHKDF.Asymmetric() {
		t.Fatal("Asymmetric misclassification")
	}
	if OpKind(99).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestIdentityLeaf(t *testing.T) {
	rsaID, _ := testIdentities(t)
	leaf, err := rsaID.Leaf()
	if err != nil || leaf == nil {
		t.Fatalf("Leaf: %v", err)
	}
	empty := &Identity{}
	if _, err := empty.Leaf(); err == nil {
		t.Fatal("empty identity should have no leaf")
	}
}

func TestOpCallResult(t *testing.T) {
	var c OpCall
	c.SetResult(42, io.EOF)
	v, err := c.Result()
	if v != 42 || !errors.Is(err, io.EOF) {
		t.Fatalf("Result = %v, %v", v, err)
	}
}

// Large certificates force handshake messages to span multiple records.
func TestHandshakeMessageSpanningRecords(t *testing.T) {
	rsaID, _ := testIdentities(t)
	// Pad the chain with large fake intermediate blobs (the client only
	// parses the leaf).
	big := *rsaID
	big.CertDER = [][]byte{
		rsaID.CertDER[0],
		bytes.Repeat([]byte{0xaa}, 20000),
		bytes.Repeat([]byte{0xbb}, 20000),
	}
	server, client, _ := handshakePair(t,
		&Config{Identity: &big, CipherSuites: []uint16{TLS_RSA_WITH_AES_128_CBC_SHA}},
		&Config{})
	echoCheck(t, server, client)
}

func TestHandshakeAfterCloseFails(t *testing.T) {
	rsaID, _ := testIdentities(t)
	cliT, srvT := net.Pipe()
	defer cliT.Close()
	defer srvT.Close()
	server := Server(srvT, &Config{Identity: rsaID})
	server.Close()
	if err := server.Handshake(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := server.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read err = %v, want ErrClosed", err)
	}
}

// SNI-based identity selection: the server picks a certificate per
// requested server name (virtual hosting, as in a CDN TLS terminator).
func TestSNIIdentitySelection(t *testing.T) {
	rsaID, ecdsaID := testIdentities(t)
	getID := func(name string) *Identity {
		switch name {
		case "rsa.example":
			return rsaID
		case "ecdsa.example":
			return ecdsaID
		default:
			return nil // fall back to Config.Identity
		}
	}

	check := func(serverName string, wantSuite uint16) {
		t.Helper()
		server, client, _ := handshakePair(t,
			&Config{GetIdentity: getID, Identity: rsaID},
			&Config{ServerName: serverName})
		if got := server.ConnectionState().CipherSuite; got != wantSuite {
			t.Fatalf("SNI %q: suite = %s, want %s", serverName,
				CipherSuiteName(got), CipherSuiteName(wantSuite))
		}
		echoCheck(t, server, client)
	}
	// The negotiated suite reveals which identity was selected: ECDSA
	// identities can only serve the ECDHE-ECDSA suite.
	check("rsa.example", TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA)
	check("ecdsa.example", TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA)
	check("unknown.example", TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA) // fallback
}

// Without a fallback identity, an unknown server name is fatal.
func TestSNINoFallbackFails(t *testing.T) {
	_, ecdsaID := testIdentities(t)
	cliT, srvT := net.Pipe()
	defer cliT.Close()
	defer srvT.Close()
	server := Server(srvT, &Config{GetIdentity: func(name string) *Identity {
		if name == "known.example" {
			return ecdsaID
		}
		return nil
	}})
	client := ClientConn(cliT, &Config{ServerName: "other.example"})
	go func() { client.Handshake() }()
	if err := server.Handshake(); err == nil {
		t.Fatal("handshake without a matching identity succeeded")
	}
}
