package minitls

import (
	"bytes"
	"math/rand"
	"testing"
)

// garbageTransport feeds a fixed byte stream and swallows writes.
type garbageTransport struct{ in *bytes.Reader }

func (g *garbageTransport) Read(p []byte) (int, error)  { return g.in.Read(p) }
func (g *garbageTransport) Write(p []byte) (int, error) { return len(p), nil }

// The server must reject arbitrary garbage — truncated records, wild
// lengths, random extension bytes — with an error, never a panic or an
// accepted handshake.
func TestServerRejectsGarbageWithoutPanic(t *testing.T) {
	rsaID, _ := testIdentities(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		n := rng.Intn(512)
		buf := make([]byte, n)
		rng.Read(buf)
		// Half the time, make it look like a plausible handshake record
		// so parsing gets past the framing.
		if i%2 == 0 && n >= 9 {
			buf[0] = recordHandshake
			buf[1], buf[2] = 3, 3
			body := n - 5
			buf[3], buf[4] = byte(body>>8), byte(body)
			buf[5] = typeClientHello
			hs := body - 4
			buf[6], buf[7], buf[8] = byte(hs>>16), byte(hs>>8), byte(hs)
		}
		server := Server(&garbageTransport{in: bytes.NewReader(buf)}, &Config{Identity: rsaID})
		if err := server.Handshake(); err == nil {
			t.Fatalf("iteration %d: garbage accepted", i)
		}
	}
}

// Truncating a valid ClientHello at every byte boundary must produce an
// error (mostly unexpected-EOF), never a hang or panic.
func TestServerRejectsTruncatedClientHello(t *testing.T) {
	rsaID, _ := testIdentities(t)
	ch := clientHelloMsg{
		version:      VersionTLS12,
		cipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
	}
	msg := ch.marshal(nil)
	rec := append([]byte{recordHandshake, 3, 3, byte(len(msg) >> 8), byte(len(msg))}, msg...)
	for cut := 0; cut < len(rec); cut++ {
		server := Server(&garbageTransport{in: bytes.NewReader(rec[:cut])}, &Config{Identity: rsaID})
		if err := server.Handshake(); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Bit-flipping a valid ClientHello must never panic the server (it may
// legitimately still parse — flipped random bytes are harmless — but
// flips in framing/length fields must error out, not hang or crash).
func TestServerSurvivesBitFlips(t *testing.T) {
	rsaID, _ := testIdentities(t)
	ch := clientHelloMsg{
		version:           VersionTLS12,
		cipherSuites:      []uint16{TLS_RSA_WITH_AES_128_CBC_SHA},
		supportedVersions: []uint16{VersionTLS13},
		hasTicketExt:      true,
		sessionTicket:     bytes.Repeat([]byte{1}, 40),
	}
	msg := ch.marshal(nil)
	rec := append([]byte{recordHandshake, 3, 3, byte(len(msg) >> 8), byte(len(msg))}, msg...)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		mut := append([]byte(nil), rec...)
		for flips := 0; flips < 1+rng.Intn(4); flips++ {
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		}
		// Cap the declared record length to the bytes we actually have,
		// so the server fails parsing instead of waiting for more input
		// (a short read on a blocking transport is not a protocol flaw).
		declared := int(mut[3])<<8 | int(mut[4])
		if declared > len(mut)-5 {
			mut[3], mut[4] = byte((len(mut)-5)>>8), byte(len(mut)-5)
		}
		server := Server(&garbageTransport{in: bytes.NewReader(mut)}, &Config{Identity: rsaID})
		// Whatever happens must terminate; handshake cannot complete
		// because the client never answers the server flight.
		if err := server.Handshake(); err == nil {
			t.Fatalf("iteration %d: handshake completed on one flight", i)
		}
	}
}
