package minitls

import (
	"bytes"
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
// Release included: nothing on package cbc's kernels, 2 objects on its
// standard-library fallback (4 while each direction built an AES block
// and a CBC mode, 10 when each PRF derivation allocated a closure and a
// result).
//
//	two CBC directions, fallback only: a crypto/aes block each  2
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
	if want := 2 + 3*rekeyAllocs(); n > want && !raceEnabled {
		t.Errorf("server side of a resumed handshake allocates %v objects, want <= %v", n, want)
	}
}

// TestRecycledMACIgnoresAbandonedRun: a key that an op abandoned at its
// deadline still uses — a seal running late on a device, a PRF derivation
// racing its software fallback — is never re-keyed under that run. A CBC
// protection owns its expanded keys outright, so other connections keying
// theirs cannot reach them, and a late seal racing new keyings still seals
// records a fresh peer opens. A PRF key is pooled: it is given back only
// when no run holds it (the mutant this kills: release without the busy
// swap).
func TestRecycledMACIgnoresAbandonedRun(t *testing.T) {
	otherKey := bytes.Repeat([]byte{0x99}, 20)

	t.Run("cbc", func(t *testing.T) {
		payload := []byte("sealed by a run the connection abandoned")
		p, err := newCBCProtection(testCBCKeys())
		if err != nil {
			t.Fatal(err)
		}
		open, _ := newCBCProtection(testCBCKeys())
		done := make(chan struct{})
		go func() { // the next connections key their own protections
			defer close(done)
			for i := 0; i < 50; i++ {
				other, err := newCBCProtection(cbcKeys{cipherKey: otherKey[:16], macKey: otherKey})
				if err != nil {
					t.Error(err)
					return
				}
				w, err := sealRecord(other, 0, recordApplicationData, payload, nil, bytes.NewReader(make([]byte, 16)))
				if err != nil {
					t.Error(err)
					return
				}
				PutWireBuf(w)
			}
		}()
		for i := 0; i < 50; i++ { // the late run, sealing again and again
			typ, body := sealBody(t, p, 3, recordApplicationData, payload, bytes.NewReader(make([]byte, 16)))
			if _, got, err := open.open(3, typ, body); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("record sealed beside other connections' keyings: %q, %v", got, err)
			}
		}
		<-done
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
