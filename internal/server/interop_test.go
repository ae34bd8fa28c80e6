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

// wireRecord is one received record: its content type and its length on
// the wire, header included.
type wireRecord struct {
	typ uint8
	n   int
}

// splitRecords walks a received byte stream into its records.
func splitRecords(wire []byte) ([]wireRecord, error) {
	var recs []wireRecord
	for len(wire) > 0 {
		if len(wire) < minitls.RecordHeaderLen {
			return nil, errors.New("stream ends inside a record header")
		}
		n := minitls.RecordHeaderLen + (int(wire[3])<<8 | int(wire[4]))
		if n > len(wire) {
			return nil, errors.New("stream ends inside a record")
		}
		recs = append(recs, wireRecord{wire[0], n})
		wire = wire[n:]
	}
	return recs, nil
}

// lastRecordType walks the received records and returns the last one's
// content type.
func lastRecordType(wire []byte) (uint8, error) {
	recs, err := splitRecords(wire)
	if err != nil || len(recs) == 0 {
		return 0, fmt.Errorf("no whole record: %v", err)
	}
	return recs[len(recs)-1].typ, nil
}

// checkResponseRecords checks the records of one multi-record response as
// the client received them: the first, opening the turn, fits one TCP
// segment (1 208 bytes, crypto/tls's estimate), and every later one but
// the last carries a full 16 KB.
func checkResponseRecords(t *testing.T, wire []byte) {
	t.Helper()
	recs, err := splitRecords(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("%d records, want a multi-record response", len(recs))
	}
	for i, r := range recs {
		switch {
		case r.typ != minitls.RecordTypeApplicationData:
			t.Fatalf("record %d: type %d, want application data", i, r.typ)
		case i == 0 && r.n > 1208:
			t.Fatalf("first record is %d bytes on the wire, want at most one 1 208-byte segment", r.n)
		case i > 0 && i < len(recs)-1 && r.n <= minitls.RecordHeaderLen+minitls.MaxPlaintext:
			t.Fatalf("record %d is %d bytes on the wire, want a full 16 KB record", i, r.n)
		}
	}
}

// TestStdlibClientTLS12Loopback: a crypto/tls client (TLS 1.2,
// ECDHE-RSA-AES128-SHA, P-256) completes a full handshake and then a
// ticket-resumed one with the server under SW and QTLS, each carrying
// GETs of 256 KB responses checked byte for byte. The full connection
// carries two keep-alive responses, each starting with a one-segment
// record and continuing in 16 KB ones, and ends with the client's
// close-notify, on which the server closes; the resumed one asks for
// Connection: close, and the server's close-notify alert is the last
// record on the wire before the FIN.
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
				connHdr, requests := "keep-alive", 2
				if resume {
					connHdr, requests = "close", 1
				}
				want := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n%s", size, connHdr, body)
				got := make([]byte, len(want))
				for i := 0; i < requests; i++ {
					rec.got = rec.got[:0]
					fmt.Fprintf(c, "GET /%d HTTP/1.1\r\nHost: qtls\r\nConnection: %s\r\n\r\n", size, connHdr)
					if _, err := io.ReadFull(c, got); err != nil || string(got) != want {
						t.Fatalf("resume=%v: response %d: %v (bytes equal: %v)", resume, i, err, string(got) == want)
					}
					if !resume {
						checkResponseRecords(t, rec.got)
					}
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
			if st.Handshakes != 2 || st.Resumed != 1 || st.Requests != 3 || st.Errors != 0 {
				t.Fatalf("server stats %+v: want 2 handshakes, 1 resumed, 3 requests, no errors", st)
			}
			if eng := srv.Workers()[0].Engine(); eng != nil {
				if es := eng.Stats(); es.Submitted == 0 || es.SWFallbacks != 0 {
					t.Fatalf("engine stats %+v: want offloaded ops and no software fallback", es)
				}
			}
		})
	}
}

// TestCloseResponseOneWrite: the response to a Connection: close request
// and the close-notify that follows it leave in one transport write after
// the handshake flights, and a crypto/tls client still reads the alert as
// the last record before the FIN.
func TestCloseResponseOneWrite(t *testing.T) {
	for _, run := range []RunConfig{ConfigSW, ConfigQTLS} {
		t.Run(run.Name, func(t *testing.T) {
			srv, _ := startServer(t, run, 1, func(c *minitls.Config) {
				c.CipherSuites = []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}
			})
			raw, err := net.Dial("tcp4", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			rec := &recordingConn{Conn: raw}
			c := tls.Client(rec, &tls.Config{
				MaxVersion:         tls.VersionTLS12,
				CipherSuites:       []uint16{tls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
				CurvePreferences:   []tls.CurveID{tls.CurveP256},
				InsecureSkipVerify: true,
			})
			if err := c.Handshake(); err != nil {
				t.Fatal(err)
			}
			// The server wrote its last flight before the client could finish.
			before := srv.Stats().Writes
			rec.got = rec.got[:0]
			fmt.Fprintf(c, "GET /1024 HTTP/1.1\r\nHost: qtls\r\nConnection: close\r\n\r\n")
			resp, err := io.ReadAll(c)
			if err != nil {
				t.Fatalf("response: %v", err)
			}
			if !bytes.HasPrefix(resp, []byte("HTTP/1.1 200 OK\r\nContent-Length: 1024\r\nConnection: close\r\n\r\n")) {
				t.Fatalf("response header: %q", resp[:min(len(resp), 80)])
			}
			if writes := srv.Stats().Writes - before; writes != 1 {
				t.Errorf("response and close-notify took %d transport writes, want 1", writes)
			}
			if typ, err := lastRecordType(rec.got); err != nil || typ != minitls.RecordTypeAlert {
				t.Fatalf("last record on the wire: type %d, %v; want the close-notify alert", typ, err)
			}
		})
	}
}
