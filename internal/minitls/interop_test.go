package minitls

import (
	"bytes"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// An independent oracle for the server: a crypto/tls client, the Go
// standard library's TLS stack, handshakes with a minitls server and
// exchanges a request, a 256 KB response and close-notify in both
// directions. The TLS 1.2 slice is covered: the one suite both stacks
// offer (ECDHE-RSA with AES-128-CBC-SHA) on P-256, full and
// ticket-resumed. (internal/server runs the same client against the event
// loop over loopback.) Two encodings the oracle found are fixed: the
// ClientHello's supported_versions list carries RFC 8446's length prefix,
// and server_name is RFC 6066's list, not a bare name.

// pipeConn is one end of a bufPipe pair as a net.Conn, which crypto/tls
// needs; deadlines are not supported and ignored.
type pipeConn struct{ in, out *bufPipe }

func (p pipeConn) Read(b []byte) (int, error)       { return p.in.Read(b) }
func (p pipeConn) Write(b []byte) (int, error)      { return p.out.Write(b) }
func (p pipeConn) Close() error                     { p.out.Close(); return nil }
func (p pipeConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (p pipeConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (p pipeConn) SetDeadline(time.Time) error      { return nil }
func (p pipeConn) SetReadDeadline(time.Time) error  { return nil }
func (p pipeConn) SetWriteDeadline(time.Time) error { return nil }
func (pipeAddr) Network() string                    { return "pipe" }
func (pipeAddr) String() string                     { return "pipe" }

type pipeAddr struct{}

// interopResponseLen is the response body every interop case carries.
const interopResponseLen = 256 << 10

// stdlibClientConfig is the crypto/tls client of the TLS 1.2 slice. The
// certificate is self-signed for a name crypto/tls would not accept, so
// chain verification is replaced by a check that the server presented
// exactly id's leaf.
func stdlibClientConfig(id *Identity, cache tls.ClientSessionCache) *tls.Config {
	return &tls.Config{
		ServerName:         "qtls.example",
		MaxVersion:         tls.VersionTLS12,
		CipherSuites:       []uint16{tls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		CurvePreferences:   []tls.CurveID{tls.CurveP256},
		ClientSessionCache: cache,
		InsecureSkipVerify: true,
		VerifyConnection: func(cs tls.ConnectionState) error {
			if len(cs.PeerCertificates) == 0 || !bytes.Equal(cs.PeerCertificates[0].Raw, id.CertDER[0]) {
				return errors.New("server presented a different certificate")
			}
			return nil
		},
	}
}

// stdlibClientSession runs the client half of one interop case over conn:
// handshake, GET, the whole response checked byte for byte, close-notify
// sent, and the server's close-notify read as io.EOF.
func stdlibClientSession(conn net.Conn, cfg *tls.Config, wantResume bool) error {
	c := tls.Client(conn, cfg)
	defer c.Close()
	if err := c.Handshake(); err != nil {
		return fmt.Errorf("crypto/tls handshake: %w", err)
	}
	if st := c.ConnectionState(); st.DidResume != wantResume || st.Version != tls.VersionTLS12 ||
		st.CipherSuite != tls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA {
		return fmt.Errorf("negotiated version %x suite %x resumed %v, want TLS 1.2 ECDHE-RSA-AES128-SHA resumed %v",
			st.Version, st.CipherSuite, st.DidResume, wantResume)
	}
	if _, err := fmt.Fprintf(c, "GET /%d HTTP/1.1\r\nHost: qtls\r\n\r\n", interopResponseLen); err != nil {
		return fmt.Errorf("request: %w", err)
	}
	hdr := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", interopResponseLen)
	got := make([]byte, len(hdr)+interopResponseLen)
	if _, err := io.ReadFull(c, got); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	if string(got[:len(hdr)]) != hdr || !bytes.Equal(got[len(hdr):], interopBody()) {
		return errors.New("response bytes differ")
	}
	if err := c.CloseWrite(); err != nil {
		return fmt.Errorf("close-notify: %w", err)
	}
	if n, err := c.Read(got[:1]); n != 0 || err != io.EOF {
		return fmt.Errorf("after the response: %d bytes, %v; want the server's close-notify (io.EOF)", n, err)
	}
	return nil
}

func interopBody() []byte {
	b := make([]byte, interopResponseLen)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}

// minitlsServerSession is the server half over a blocking transport:
// handshake, read the request, write the response, read the client's
// close-notify, send its own.
func minitlsServerSession(s *Conn) error {
	if err := s.Handshake(); err != nil {
		return fmt.Errorf("minitls handshake: %w", err)
	}
	var req []byte
	buf := make([]byte, 512)
	for !bytes.Contains(req, []byte("\r\n\r\n")) {
		n, err := s.Read(buf)
		if err != nil {
			return fmt.Errorf("request: %w", err)
		}
		req = append(req, buf[:n]...)
	}
	if want := fmt.Sprintf("GET /%d HTTP/1.1\r\n", interopResponseLen); !bytes.HasPrefix(req, []byte(want)) {
		return fmt.Errorf("request %q", req)
	}
	hdr := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", interopResponseLen)
	if _, err := s.Writev([]byte(hdr), interopBody()); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	if n, err := s.Read(buf); n != 0 || err != io.EOF || !s.CloseNotifyReceived() {
		return fmt.Errorf("after the response: %d bytes, %v (close-notify %v); want the client's close-notify", n, err, s.CloseNotifyReceived())
	}
	return s.Close()
}

// TestStdlibClientTLS12Pipe: full, then ticket-resumed, over an in-memory
// pipe; the server sees the client's SNI name and close-notify.
func TestStdlibClientTLS12Pipe(t *testing.T) {
	id := fixedIdentity(t)
	var ticketKey [32]byte
	copy(ticketKey[:], bytes.Repeat([]byte{0x44}, 32))
	var sni []string
	srvCfg := &Config{Identity: id, TicketKey: &ticketKey, CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		GetIdentity: func(name string) *Identity { sni = append(sni, name); return nil }}
	cliCfg := stdlibClientConfig(id, tls.NewLRUClientSessionCache(4))
	for _, resumed := range []bool{false, true} {
		up, down := newBufPipe(), newBufPipe()
		cliErr := make(chan error, 1)
		go func() { cliErr <- stdlibClientSession(pipeConn{in: down, out: up}, cliCfg, resumed) }()
		server := Server(pipeConn{in: up, out: down}, srvCfg)
		if err := minitlsServerSession(server); err != nil {
			t.Errorf("resumed=%v: server: %v", resumed, err)
			up.Close()
			down.Close()
		}
		if err := <-cliErr; err != nil {
			t.Fatalf("resumed=%v: client: %v", resumed, err)
		}
		if server.ConnectionState().DidResume != resumed {
			t.Fatalf("server resumed %v, want %v", server.ConnectionState().DidResume, resumed)
		}
	}
	if fmt.Sprint(sni) != "[qtls.example qtls.example]" {
		t.Fatalf("server saw server names %q, want the client's twice", sni)
	}
}
