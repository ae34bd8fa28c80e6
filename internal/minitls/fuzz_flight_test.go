package minitls

import (
	"bytes"
	"crypto/sha256"
	"hash"
	"reflect"
	"testing"
)

// The client-side parsers: every message a server sends, read by this
// stack's client (and, in the load generator, from any server).

// flightMsg is a handshake message this stack both parses and writes.
type flightMsg interface {
	unmarshal(body []byte) error
	marshal(dst []byte) []byte
}

// serverFlightMsgs are the message types a client parses from a server's
// flights, each with a constructor.
var serverFlightMsgs = []struct {
	typ   uint8
	fresh func() flightMsg
}{
	{typeServerHello, func() flightMsg { return new(serverHelloMsg) }},
	{typeCertificate, func() flightMsg { return new(certificateMsg) }},
	{typeServerKeyExchange, func() flightMsg { return new(serverKeyExchangeMsg) }},
	{typeFinished, func() flightMsg { return new(finishedMsg) }},
	{typeNewSessionTicket, func() flightMsg { return new(newSessionTicketMsg) }},
	{typeEncryptedExtensions, func() flightMsg { return new(encryptedExtensionsMsg) }},
	{typeCertificateVerify, func() flightMsg { return new(certificateVerifyMsg) }},
}

// recordingHash is a transcript digest that also keeps every handshake
// message written to it, framed.
type recordingHash struct {
	hash.Hash
	msgs [][]byte
}

func (h *recordingHash) Write(p []byte) (int, error) {
	h.msgs = append(h.msgs, bytes.Clone(p))
	return h.Hash.Write(p)
}

// recordedHandshake runs one handshake with the server inline and returns
// the client and every handshake message the server's transcript saw,
// framed — the server's flights (encrypted ones included) and the
// client's.
func recordedHandshake(tb testing.TB, srvCfg, cliCfg *Config) (*Conn, [][]byte) {
	tb.Helper()
	up, down := newBufPipe(), newBufPipe()
	defer up.Close()
	defer down.Close()
	server, client := Server(&loggingTransport{in: up, out: down}, srvCfg), ClientConn(&loggingTransport{in: down, out: up}, cliCfg)
	rec := &recordingHash{Hash: sha256.New()}
	server.transcript = rec
	errc := make(chan error, 1)
	go func() { errc <- client.Handshake() }()
	if err := server.Handshake(); err != nil {
		tb.Fatalf("recorded handshake: %v", err)
	}
	if err := <-errc; err != nil {
		tb.Fatalf("recorded handshake, client: %v", err)
	}
	return client, rec.msgs
}

// recordedServerFlights runs a TLS 1.2 full handshake, a ticket-resumed
// one and a TLS 1.3 full one and returns every message recordedHandshake
// saw.
func recordedServerFlights(tb testing.TB) [][]byte {
	tb.Helper()
	var ticketKey [32]byte
	id := fixedIdentity(tb)
	var msgs [][]byte
	run := func(srvCfg, cliCfg *Config) *Conn {
		client, m := recordedHandshake(tb, srvCfg, cliCfg)
		msgs = append(msgs, m...)
		return client
	}
	srv12 := &Config{Identity: id, Rand: constRand(0x5a), TicketKey: &ticketKey, MaxVersion: VersionTLS12}
	full := run(srv12, &Config{Rand: constRand(0x5a), RequestTicket: true, MaxVersion: VersionTLS12})
	sess := full.ResumptionSession()
	if sess == nil {
		tb.Fatal("the TLS 1.2 handshake issued no ticket")
	}
	run(srv12, &Config{Rand: constRand(0x5a), Session: sess, MaxVersion: VersionTLS12})
	run(&Config{Identity: id, Rand: constRand(0x5a), MaxVersion: VersionTLS13}, &Config{Rand: constRand(0x5a), MaxVersion: VersionTLS13})
	return msgs
}

// FuzzServerFlight feeds the parsers of the server's messages — the first
// input byte picks one, the rest is the message body. Whatever the bytes,
// parsing must not panic, and a message that parses must survive marshal
// and a second parse unchanged. Seeds are recorded TLS 1.2 full and
// resumed flights and a TLS 1.3 flight.
func FuzzServerFlight(f *testing.F) {
	for _, msg := range recordedServerFlights(f) {
		for i, m := range serverFlightMsgs {
			if m.typ == msg[0] {
				f.Add(append([]byte{byte(i)}, msg[4:]...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		m := serverFlightMsgs[int(in[0])%len(serverFlightMsgs)]
		body := in[1:]
		first := m.fresh()
		if first.unmarshal(body) != nil {
			return
		}
		wire := first.marshal(nil)
		if len(wire) < 4 || wire[0] != m.typ || int(wire[1])<<16|int(wire[2])<<8|int(wire[3]) != len(wire)-4 {
			t.Fatalf("type %d: marshal framed %x badly", m.typ, wire)
		}
		second := m.fresh()
		if err := second.unmarshal(wire[4:]); err != nil {
			t.Fatalf("type %d: %x parsed, but its marshal %x does not: %v", m.typ, body, wire, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("type %d: round trip changed the message:\n%+v\n%+v", m.typ, first, second)
		}
	})
}

// FuzzClientKeyExchange feeds the server's ClientKeyExchange parser, which
// reads the form the negotiated key exchange names: an odd first input
// byte picks the RSA form (an encrypted premaster), an even one the ECDHE
// form (an EC point); the rest is the message body. Parsing must not
// panic, and a message that parses must survive marshal and a second parse
// unchanged. Seeds are the bodies a full RSA and a full ECDHE handshake
// recorded.
func FuzzClientKeyExchange(f *testing.F) {
	id := fixedIdentity(f)
	for form, suite := range []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA, TLS_RSA_WITH_AES_128_CBC_SHA} {
		_, msgs := recordedHandshake(f, &Config{Identity: id, Rand: constRand(0x5a), CipherSuites: []uint16{suite}},
			&Config{Rand: constRand(0x5a), MaxVersion: VersionTLS12})
		for _, msg := range msgs {
			if msg[0] == typeClientKeyExchange {
				f.Add(append([]byte{byte(form)}, msg[4:]...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		isRSA, body := in[0]%2 == 1, in[1:]
		var first clientKeyExchangeMsg
		if first.unmarshal(body, isRSA) != nil {
			return
		}
		wire := first.marshal(nil)
		if len(wire) < 4 || wire[0] != typeClientKeyExchange || int(wire[1])<<16|int(wire[2])<<8|int(wire[3]) != len(wire)-4 {
			t.Fatalf("marshal framed %x badly", wire)
		}
		var second clientKeyExchangeMsg
		if err := second.unmarshal(wire[4:], isRSA); err != nil {
			t.Fatalf("%x parsed (rsa %v), but its marshal %x does not: %v", body, isRSA, wire, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", first, second)
		}
	})
}
