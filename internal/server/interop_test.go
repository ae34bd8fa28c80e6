//go:build linux

package server

import (
	"bytes"
	"crypto/rand"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"

	"qtls/internal/minitls"
)

// The independent oracle over loopback: a crypto/tls client against a real
// server.New — the event loop, the flight writes, the readiness gate and,
// under QTLS, every PRF and record seal offloaded through a qat device on
// pooled fibers. minitls's interop_test.go runs the same exchange over an
// in-memory pipe against a bare minitls server, which can also report the
// client's close-notify.

// recordingConn keeps every byte the client receives, so the test can see
// the records on the wire.
type recordingConn struct {
	net.Conn
	got []byte
}

func (r *recordingConn) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.got = append(r.got, p[:n]...)
	return n, err
}

// lastRecordType walks the received records and returns the last one's
// content type.
func lastRecordType(wire []byte) (uint8, error) {
	var typ uint8
	for len(wire) > 0 {
		if len(wire) < minitls.RecordHeaderLen {
			return 0, errors.New("stream ends inside a record header")
		}
		n := minitls.RecordHeaderLen + (int(wire[3])<<8 | int(wire[4]))
		if n > len(wire) {
			return 0, errors.New("stream ends inside a record")
		}
		typ, wire = wire[0], wire[n:]
	}
	return typ, nil
}

// TestStdlibClientTLS12Loopback: a crypto/tls client (TLS 1.2,
// ECDHE-RSA-AES128-SHA, P-256) completes a full handshake and then a
// ticket-resumed one with the server under SW and QTLS, each carrying a
// GET and a 256 KB response checked byte for byte. The full connection
// ends with the client's close-notify, on which the server closes; the
// resumed one asks for Connection: close, and the server's close-notify
// alert is the last record on the wire before the FIN.
func TestStdlibClientTLS12Loopback(t *testing.T) {
	const size = 256 << 10
	for _, run := range []RunConfig{ConfigSW, ConfigQTLS} {
		t.Run(run.Name, func(t *testing.T) {
			var ticketKey [32]byte
			rand.Read(ticketKey[:])
			srv, _ := startServer(t, run, 1, func(c *minitls.Config) {
				c.TicketKey = &ticketKey
				c.CipherSuites = []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}
			})
			leaf := identity(t).CertDER[0]
			cfg := &tls.Config{
				MaxVersion:         tls.VersionTLS12,
				CipherSuites:       []uint16{tls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
				CurvePreferences:   []tls.CurveID{tls.CurveP256},
				ClientSessionCache: tls.NewLRUClientSessionCache(4),
				InsecureSkipVerify: true, // self-signed; the leaf is checked instead
				VerifyConnection: func(cs tls.ConnectionState) error {
					if !bytes.Equal(cs.PeerCertificates[0].Raw, leaf) {
						return errors.New("server presented a different certificate")
					}
					return nil
				},
			}
			body := make([]byte, size)
			for i := range body {
				body[i] = byte('a' + i%26)
			}
			for _, resume := range []bool{false, true} {
				raw, err := net.Dial("tcp4", srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				rec := &recordingConn{Conn: raw}
				c := tls.Client(rec, cfg)
				if err := c.Handshake(); err != nil {
					t.Fatalf("resume=%v: handshake: %v", resume, err)
				}
				if st := c.ConnectionState(); st.DidResume != resume || st.Version != tls.VersionTLS12 {
					t.Fatalf("resumed %v version %x, want resumed %v, TLS 1.2", st.DidResume, st.Version, resume)
				}
				connHdr := "keep-alive"
				if resume {
					connHdr = "close"
				}
				fmt.Fprintf(c, "GET /%d HTTP/1.1\r\nHost: qtls\r\nConnection: %s\r\n\r\n", size, connHdr)
				want := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n%s", size, connHdr, body)
				got := make([]byte, len(want))
				if _, err := io.ReadFull(c, got); err != nil || string(got) != want {
					t.Fatalf("resume=%v: response: %v (bytes equal: %v)", resume, err, string(got) == want)
				}
				if !resume {
					if err := c.CloseWrite(); err != nil {
						t.Fatalf("close-notify: %v", err)
					}
				}
				if n, err := c.Read(got[:1]); n != 0 || err != io.EOF {
					t.Fatalf("resume=%v: after the response: %d bytes, %v; want io.EOF", resume, n, err)
				}
				if resume {
					if typ, err := lastRecordType(rec.got); err != nil || typ != minitls.RecordTypeAlert {
						t.Fatalf("last record on the wire: type %d, %v; want the close-notify alert", typ, err)
					}
				}
				c.Close()
			}
			srv.Stop()
			st := srv.Stats()
			if st.Handshakes != 2 || st.Resumed != 1 || st.Requests != 2 || st.Errors != 0 {
				t.Fatalf("server stats %+v: want 2 handshakes, 1 resumed, 2 requests, no errors", st)
			}
			if eng := srv.Workers()[0].Engine(); eng != nil {
				if es := eng.Stats(); es.Submitted == 0 || es.SWFallbacks != 0 {
					t.Fatalf("engine stats %+v: want offloaded ops and no software fallback", es)
				}
			}
		})
	}
}
