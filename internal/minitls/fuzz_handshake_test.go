package minitls

import (
	"bytes"
	"crypto/sha256"
	"crypto/tls"
	"errors"
	"io"
	"reflect"
	"testing"
)

// Fuzz targets for the handshake framing: message reassembly across
// records and transport reads (the messages readHandshakeMsg returns alias
// its buffer, which fill and appendHandshake slide and grow), and the
// ClientHello parser, which reads attacker bytes first.

// handshakeRecords frames stream as plaintext handshake records whose
// payload sizes cycle through cuts (each byte plus one); with no cuts the
// records are as large as allowed.
func handshakeRecords(stream, cuts []byte) []byte {
	var out []byte
	for i := 0; len(stream) > 0; i++ {
		n := min(len(stream), MaxPlaintext)
		if len(cuts) > 0 {
			n = min(n, int(cuts[i%len(cuts)])+1)
		}
		out = append(out, recordHandshake, 3, 3, byte(n>>8), byte(n))
		out = append(out, stream[:n]...)
		stream = stream[n:]
	}
	return out
}

// chunkedReader hands out its bytes in reads whose sizes cycle through
// cuts (each byte plus one), then io.EOF.
type chunkedReader struct {
	in   []byte
	cuts []byte
	i    int
}

func (r *chunkedReader) Read(p []byte) (int, error) {
	if len(r.in) == 0 {
		return 0, io.EOF
	}
	if len(r.cuts) > 0 {
		p = p[:min(len(p), int(r.cuts[r.i%len(r.cuts)])+1)]
		r.i++
	}
	n := copy(p, r.in)
	r.in = r.in[n:]
	return n, nil
}

func (r *chunkedReader) Write(p []byte) (int, error) { return len(p), nil }

// splitMessages is the oracle: the whole handshake messages at the front
// of stream, framed.
func splitMessages(stream []byte) [][]byte {
	var msgs [][]byte
	for len(stream) >= 4 {
		n := 4 + (int(stream[1])<<16 | int(stream[2])<<8 | int(stream[3]))
		if n > len(stream) {
			break
		}
		msgs = append(msgs, stream[:n])
		stream = stream[n:]
	}
	return msgs
}

// seedFlights runs the handshakes TestHandshakeWritesPerFlight pins — TLS
// 1.2 full and TLS 1.3 full, constant entropy, the committed identity —
// with the server inline, and returns every transport write of both sides.
func seedFlights(tb testing.TB) [][]byte {
	id := fixedIdentity(tb)
	var writes [][]byte
	for _, maxV := range []uint16{VersionTLS12, VersionTLS13} {
		up, down := newBufPipe(), newBufPipe()
		srvLog, cliLog := &loggingTransport{in: up, out: down}, &loggingTransport{in: down, out: up}
		cfg := &Config{Identity: id, Rand: constRand(0x5a), MaxVersion: maxV}
		server, client := Server(srvLog, cfg), ClientConn(cliLog, &Config{Rand: constRand(0x5a), MaxVersion: maxV})
		errc := make(chan error, 1)
		go func() { errc <- client.Handshake() }()
		if err := server.Handshake(); err != nil {
			tb.Fatalf("seed handshake: %v", err)
		}
		if err := <-errc; err != nil {
			tb.Fatalf("seed handshake client: %v", err)
		}
		up.Close()
		down.Close()
		writes = append(writes, srvLog.writes...)
		writes = append(writes, cliLog.writes...)
	}
	return writes
}

// plaintextHandshake returns the payloads of the plaintext handshake
// records at the front of a transport write, and their sizes: a TLS 1.2
// flight's tail past ChangeCipherSpec is encrypted, and so is a TLS 1.3
// flight past ServerHello, under the application-data record type.
func plaintextHandshake(wire []byte) (stream []byte, sizes []int) {
	for len(wire) >= recordHeaderLen {
		n := recordHeaderLen + (int(wire[3])<<8 | int(wire[4]))
		if wire[0] != recordHandshake || n > len(wire) {
			break
		}
		stream = append(stream, wire[recordHeaderLen:n]...)
		sizes = append(sizes, n-recordHeaderLen)
		wire = wire[n:]
	}
	return stream, sizes
}

// stdlibClientHellos are the first records crypto/tls clients send: the
// TLS 1.2 oracle's, and a default client's (TLS 1.3 key shares first).
func stdlibClientHellos(tb testing.TB) [][]byte {
	var hellos [][]byte
	for _, cfg := range []*tls.Config{stdlibClientConfig(fixedIdentity(tb), nil), {InsecureSkipVerify: true, ServerName: "qtls.example"}} {
		up, down := newBufPipe(), newBufPipe()
		done := make(chan struct{})
		go func() {
			tls.Client(pipeConn{in: down, out: up}, cfg).Handshake() // fails once the pipe closes
			close(done)
		}()
		hdr := make([]byte, recordHeaderLen)
		if _, err := io.ReadFull(up, hdr); err != nil {
			tb.Fatal(err)
		}
		rec := make([]byte, int(hdr[3])<<8|int(hdr[4]))
		if _, err := io.ReadFull(up, rec); err != nil {
			tb.Fatal(err)
		}
		down.Close()
		<-done
		hellos = append(hellos, rec)
	}
	return hellos
}

// FuzzReadHandshakeMsg: a handshake message stream, cut into records at
// fuzzer-chosen sizes and delivered in fuzzer-chosen transport reads,
// yields exactly the messages it frames, in order, then io.EOF — never a
// panic — and every message reached the transcript once.
func FuzzReadHandshakeMsg(f *testing.F) {
	for _, w := range seedFlights(f) {
		stream, sizes := plaintextHandshake(w)
		if len(stream) == 0 {
			continue
		}
		cuts := make([]byte, len(sizes))
		for i, n := range sizes {
			cuts[i] = byte(min(n, 256) - 1)
		}
		f.Add(stream, cuts, []byte{2, 99, 0, 255})
		f.Add(stream, []byte{0, 6, 200}, []byte(nil))
	}
	for _, ch := range stdlibClientHellos(f) {
		f.Add(ch, []byte{31}, []byte{4})
	}
	f.Fuzz(func(t *testing.T, stream, recordCuts, readCuts []byte) {
		want := splitMessages(stream)
		c := newConn(&chunkedReader{in: handshakeRecords(stream, recordCuts), cuts: readCuts}, nil, true)
		var got int
		for {
			typ, body, err := c.readHandshakeMsg()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("after %d messages: %v, want io.EOF", got, err)
				}
				break
			}
			if got == len(want) {
				t.Fatalf("message %d read; the stream frames %d", got+1, len(want))
			}
			// The message is checked before the next read, as long as it
			// is valid.
			if m := want[got]; typ != m[0] || !bytes.Equal(body, m[4:]) {
				t.Fatalf("message %d: type %d, %d bytes; want type %d, %d bytes", got, typ, len(body), m[0], len(m)-4)
			}
			got++
		}
		if got != len(want) {
			t.Fatalf("%d messages read, the stream frames %d", got, len(want))
		}
		if sum := sha256.Sum256(bytes.Join(want, nil)); !bytes.Equal(c.transcriptHash(), sum[:]) {
			t.Fatal("the transcript does not hash the messages read")
		}
	})
}

// FuzzClientHello: the ClientHello parser never panics, and a hello it
// accepts survives marshal → unmarshal unchanged.
func FuzzClientHello(f *testing.F) {
	for _, w := range seedFlights(f) {
		stream, _ := plaintextHandshake(w)
		for _, m := range splitMessages(stream) {
			if m[0] == typeClientHello {
				f.Add(m[4:])
			}
		}
	}
	for _, ch := range stdlibClientHellos(f) {
		f.Add(ch[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var m clientHelloMsg
		if m.unmarshal(body) != nil {
			return
		}
		wire := m.marshal(nil)
		var again clientHelloMsg
		if err := again.unmarshal(wire[4:]); err != nil {
			t.Fatalf("re-parsing the marshalled hello: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the hello:\n%+v\n%+v", m, again)
		}
	})
}
