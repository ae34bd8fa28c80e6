package minitls

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"testing"

	"qtls/internal/minitls/prf"
)

// Tests of the state a connection takes from pools shared across
// connections — keyed MACs, the input buffer, the transcript digest — and
// gives back on Release.

// replayTransport serves a recorded client flight to a server: Read hands
// out in, then reports would-block; writes are dropped.
type replayTransport struct{ in []byte }

func (r *replayTransport) Read(p []byte) (int, error) {
	if len(r.in) == 0 {
		return 0, nbErr{}
	}
	n := copy(p, r.in)
	r.in = r.in[n:]
	return n, nil
}

func (r *replayTransport) Write(p []byte) (int, error) { return len(p), nil }

// rekeyAllocs is what keying one pooled MAC allocates: nothing where the
// digests append their state (go1.24 on), one MarshalBinary per pad
// before that.
func rekeyAllocs() float64 {
	if _, ok := sha256.New().(interface {
		AppendBinary([]byte) ([]byte, error)
	}); ok {
		return 0
	}
	return 2
}

// resumedClientFlights records what a client sends in a ticket-resumed
// TLS 1.2 handshake with srv (ClientHello, then CCS + Finished). With a
// constant entropy source the server's answer is the same on every run, so
// the recording completes a handshake with any fresh server on srv.
func resumedClientFlights(t *testing.T, srv *Config) []byte {
	t.Helper()
	_, client, _, _ := handshakeOverLog(t, srv, &Config{Rand: constRand(0x5a), RequestTicket: true}, &manualProvider{})
	sess := client.ResumptionSession()
	if sess == nil {
		t.Fatal("priming handshake left no session")
	}
	server, _, _, cliLog := handshakeOverLog(t, srv, &Config{Rand: constRand(0x5a), Session: sess}, &manualProvider{})
	if !server.ConnectionState().DidResume {
		t.Fatal("the recorded handshake did not resume")
	}
	return bytes.Join(cliLog.writes, nil)
}

// TestResumedHandshakeAllocations bounds what the server side of a TLS 1.2
// ticket-resumed handshake allocates in a Conn that Init makes new again,
// Release included: 4 objects (10 when each PRF derivation allocated a
// closure and a result).
//
//	two CBC directions: AES block and CBC mode each  4
//
// The Conn, its handshake state, the CBC protections, the PRF op slot and
// its result, the handshake and message buffers and the ticket plaintext
// are the Conn's own storage.
func TestResumedHandshakeAllocations(t *testing.T) {
	var ticketKey [32]byte
	srv := &Config{Identity: fixedIdentity(t), Rand: constRand(0x5a), TicketKey: &ticketKey,
		CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}}
	flights := resumedClientFlights(t, srv)
	tr := &replayTransport{}
	s := new(Conn)
	handshake := func() {
		tr.in = flights
		s.Init(tr, srv, true)
		if err := s.Handshake(); err != nil || !s.ConnectionState().DidResume {
			t.Fatalf("replayed resumed handshake: %v (resumed %v)", err, s.ConnectionState().DidResume)
		}
		s.Release()
	}
	n := testing.AllocsPerRun(50, handshake)
	t.Logf("server side of a resumed handshake: %v objects", n)
	if want := 4 + 3*rekeyAllocs(); n > want && !raceEnabled {
		t.Errorf("server side of a resumed handshake allocates %v objects, want <= %v", n, want)
	}
}

// TestRecycledMACIgnoresAbandonedRun: a MAC that an op abandoned at its
// deadline still holds — a seal running late on a device, a PRF
// derivation racing its software fallback — is never given to the pool
// when the connection lets go of it. Were it recycled, the next connection
// would re-key it under the late run (the mutant this kills: release
// without the busy swap). The late run finishes with its own key intact.
// A MAC nobody holds does go back, and every run after that builds a
// state of its own.
func TestRecycledMACIgnoresAbandonedRun(t *testing.T) {
	payload := []byte("sealed by a run the connection abandoned")
	otherKey := bytes.Repeat([]byte{0x99}, 20)
	// sealsValid checks that p still seals records a fresh peer opens.
	sealsValid := func(t *testing.T, p *cbcProtection) {
		t.Helper()
		open, _ := newCBCProtection(testCBCKeys())
		typ, body := sealBody(t, p, 3, recordApplicationData, payload, bytes.NewReader(make([]byte, 16)))
		if _, got, err := open.open(3, typ, body); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("record sealed after release: %q, %v", got, err)
		}
	}

	t.Run("cbc-held", func(t *testing.T) {
		p, err := newCBCProtection(testCBCKeys())
		if err != nil {
			t.Fatal(err)
		}
		held := p.takeState() // the abandoned seal, mid-run
		p.release()           // the connection goes
		if held != &p.st || held.mac == nil {
			t.Fatal("release took the MAC from under the run holding it")
		}
		// The next connections draw MACs from the pool and key them.
		var drawn []*prf.HMAC
		for i := 0; i < 4; i++ {
			m := prf.GetHMAC(prf.SHA1, otherKey)
			if m == held.mac {
				t.Fatal("the pool handed out a MAC an abandoned run still holds")
			}
			drawn = append(drawn, m)
		}
		if got := held.appendMAC(nil, 0, recordApplicationData, payload); !bytes.Equal(got, recordMAC(testCBCKeys().macKey, 0, payload)) {
			t.Fatalf("the late run's MAC was re-keyed under it: %x", got)
		}
		p.putState(held) // the late run ends; its MAC goes to the GC with p
		for _, m := range drawn {
			prf.PutHMAC(m)
		}
		sealsValid(t, p) // a second run of the same closure
	})

	t.Run("cbc-free", func(t *testing.T) {
		p, err := newCBCProtection(testCBCKeys())
		if err != nil {
			t.Fatal(err)
		}
		p.release()
		if p.st.mac != nil {
			t.Fatal("a MAC nobody held was not given back")
		}
		if st := p.takeState(); st == &p.st {
			t.Fatal("a run after release got the released state")
		} else {
			p.putState(st)
		}
		sealsValid(t, p)
	})

	t.Run("prf", func(t *testing.T) {
		secret, seed := bytes.Repeat([]byte{0x42}, 48), make([]byte, 32)
		want := prf.TLS12(secret, "client finished", seed, finishedVerify12)
		k := &prfKey{secret: secret}
		k.derive("key expansion", seed, keyBlockLen) // keys the MAC
		if !k.busy.CompareAndSwap(false, true) {     // an abandoned derivation takes it, as derive does
			t.Fatal("key busy with no derivation running")
		}
		k.release() // the handshake is done
		others := []*prf.TLS12Key{prf.NewTLS12Key(otherKey), prf.NewTLS12Key(otherKey)}
		out := make([]byte, finishedVerify12)
		k.key.DeriveTo(out, "client finished", seed) // the late derivation goes on
		if !bytes.Equal(out, want) {
			t.Fatalf("the late derivation's MAC was re-keyed under it: %x, want %x", out, want)
		}
		k.busy.Store(false)
		for _, o := range others {
			o.Release()
		}
		if got := k.derive("client finished", seed, finishedVerify12)[:finishedVerify12]; !bytes.Equal(got, want) {
			t.Fatalf("derivation after release: %x, want %x", got, want)
		}
		k.release() // nobody holds it now: back to the pool
		if k.keyed {
			t.Fatal("a key nobody held was not given back")
		}
		if got := k.derive("client finished", seed, finishedVerify12)[:finishedVerify12]; !bytes.Equal(got, want) {
			t.Fatalf("derivation with a key of its own: %x, want %x", got, want)
		}
	})
}

// recordMAC is the CBC record MAC of payload under key at seq, computed
// with crypto/hmac.
func recordMAC(key []byte, seq uint64, payload []byte) []byte {
	m := hmac.New(sha1.New, key)
	hdr := []byte{0, 0, 0, 0, 0, 0, 0, byte(seq), recordApplicationData, 3, 3, byte(len(payload) >> 8), byte(len(payload))}
	m.Write(hdr)
	m.Write(payload)
	return m.Sum(nil)
}
