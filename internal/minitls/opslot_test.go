package minitls

import (
	"bytes"
	"net"
	"testing"

	"qtls/internal/minitls/prf"
)

// Tests of the connection's op slots: the arguments of its PRF derivations
// and record seals live in the Conn, and a provider runs the slot's bound
// run method. An op the provider abandons may run late; from then on every
// op takes a fresh slot.

// lateProvider runs every op inline, except the first of kind abandon: it
// starts a second run of that op, parked until release is closed, marks
// the op abandoned and returns the software run's result — a device run
// that outlives its op deadline, raced by the software fallback.
type lateProvider struct {
	abandon  OpKind
	started  bool
	released bool
	swPRF    []byte // the software run's result, copied: a master secret
	swSeal   []byte // the software run's sealed record, copied
	release  chan struct{}
	done     chan struct{}
	late     any // the late run's result, once done is closed
	lateErr  error
}

func newLateProvider(t *testing.T, kind OpKind) *lateProvider {
	p := &lateProvider{abandon: kind, release: make(chan struct{}), done: make(chan struct{})}
	t.Cleanup(func() {
		if p.started && !p.released {
			close(p.release) // a test that failed first leaves no run parked
		}
	})
	return p
}

func (p *lateProvider) Name() string { return "late" }

func (p *lateProvider) Do(call *OpCall, kind OpKind, work func() (any, error)) (any, error) {
	if kind != p.abandon || p.started {
		return work()
	}
	p.started = true
	go func() {
		<-p.release
		p.late, p.lateErr = work()
		close(p.done)
	}()
	call.Abandoned = true
	res, err := work()
	if err != nil {
		return nil, err
	}
	switch r := res.(type) {
	case *prfOut:
		p.swPRF = bytes.Clone(r[:masterSecretLen])
	case *WireBuf:
		p.swSeal = bytes.Clone(r.Bytes())
	}
	return res, nil
}

// finishLate releases the parked run and waits for it.
func (p *lateProvider) finishLate(t *testing.T) any {
	t.Helper()
	if !p.started {
		t.Fatal("no op was abandoned")
	}
	close(p.release)
	p.released = true
	<-p.done
	if p.lateErr != nil {
		t.Fatalf("late run: %v", p.lateErr)
	}
	return p.late
}

// TestAbandonedRunKeepsItsArguments: once a provider abandons an op, every
// later op of the connection takes a fresh slot, so a run of the abandoned
// op that starts only after the connection has moved on still reads its
// own arguments. The mutant this kills: the connection keeps refilling its
// own slot after the abandon, and the late run derives or seals the last
// op's arguments instead. The run is parked until then, so it fails
// without -race.
func TestAbandonedRunKeepsItsArguments(t *testing.T) {
	t.Run("prf", func(t *testing.T) {
		// The master secret is abandoned; the key block and both Finished
		// derivations follow.
		rsaID, _ := testIdentities(t)
		p := newLateProvider(t, KindPRF)
		server, client, _ := handshakePair(t, &Config{Identity: rsaID, Provider: p,
			CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}}, &Config{})
		hs := &server.hsrv
		late := p.finishLate(t).(*prfOut)
		if !bytes.Equal(late[:masterSecretLen], p.swPRF) {
			t.Fatalf("the late run derived %x, want the master secret %x", late[:masterSecretLen], p.swPRF)
		}
		if !bytes.Equal(hs.master.secret, p.swPRF) {
			t.Fatalf("master secret %x, want %x", hs.master.secret, p.swPRF)
		}
		wantKB := prf.TLS12(p.swPRF, "key expansion", hs.expandSeed[:], keyBlockLen)
		if !bytes.Equal(hs.keyBlock[:], wantKB) {
			t.Fatalf("key block %x, want %x", hs.keyBlock, wantKB)
		}
		echoCheck(t, server, client)
	})

	for name, cfg := range recordPlaneSuites {
		t.Run("seal-"+name, func(t *testing.T) {
			// The first of four records, the turn's one-segment record, is
			// abandoned; three seals follow.
			p := newLateProvider(t, KindCipher)
			srvCfg := *cfg
			srvCfg.Provider = p
			server, client, _ := memPair(t, &srvCfg)
			km, err := server.ExportWriteKeys()
			if err != nil {
				t.Fatal(err)
			}
			cd, err := NewRecordCodec(km)
			if err != nil {
				t.Fatal(err)
			}
			hdr, body := []byte("header: "), bytes.Repeat([]byte("0123456789abcdef"), 2500)
			first := server.firstRecordLen(len(hdr) + len(body))
			if _, err := server.Writev(hdr, body); err != nil {
				t.Fatal(err)
			}
			late := p.finishLate(t).(*WireBuf)
			whole := append(bytes.Clone(hdr), body...)
			if _, plain := readRecords(t, client); !bytes.Equal(plain, whole) {
				t.Fatal("peer read different bytes")
			}
			for run, rec := range map[string][]byte{"software": p.swSeal, "late": late.Bytes()} {
				typ, payload, err := cd.Open(km.Seq, rec[0], bytes.Clone(rec[RecordHeaderLen:]))
				if err != nil || typ != RecordTypeApplicationData {
					t.Fatalf("%s run: typ=%d err=%v", run, typ, err)
				}
				if !bytes.Equal(payload, whole[:first]) {
					t.Fatalf("%s run sealed the wrong plaintext", run)
				}
			}
			PutWireBuf(late)
		})
	}
}

// TestWritevAllocations: a 256 KB response on an established connection
// — sixteen records, each one offloadable seal — allocates nothing: each
// record's seal op is the connection's slot and its wire buffer is pooled
// (17 objects when every seal captured its arguments in a closure).
func TestWritevAllocations(t *testing.T) {
	for name, cfg := range recordPlaneSuites {
		t.Run(name, func(t *testing.T) {
			server, _, _ := memPair(t, cfg)
			server.transport = discardTransport{}
			hdr, body := []byte("HTTP/1.1 200 OK\r\n\r\n"), bytes.Repeat([]byte{'r'}, 256<<10)
			n := testing.AllocsPerRun(20, func() {
				if _, err := server.Writev(hdr, body); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("one 256 KB Writev: %v objects", n)
			if n > 0 && !raceEnabled {
				t.Errorf("one 256 KB Writev allocates %v objects, want 0", n)
			}
		})
	}
}

// TestSessionCacheOutlivesConn: a session the cache holds keeps its master
// secret when the Conn that negotiated it is made new by Init and runs
// another handshake. The master secret is derived into the connection's
// handshake state, which its next life overwrites, so the cache must hold
// a copy (the mutant this kills: Put aliasing the handshake state).
func TestSessionCacheOutlivesConn(t *testing.T) {
	rsaID, _ := testIdentities(t)
	srvCfg := &Config{Identity: rsaID, SessionCache: NewSessionCache(8),
		CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}}
	server := new(Conn)
	// serve runs one handshake in server's next life.
	serve := func(cliCfg *Config) (resumed bool, sess *ClientSession) {
		t.Helper()
		cliT, srvT := net.Pipe()
		defer func() { cliT.Close(); srvT.Close() }()
		server.Init(srvT, srvCfg, true)
		client := ClientConn(cliT, cliCfg)
		cliErr := make(chan error, 1)
		go func() {
			err := client.Handshake()
			if err != nil {
				cliT.Close() // the server may be waiting for a flight
			}
			cliErr <- err
		}()
		srvErr := server.Handshake()
		if srvErr != nil {
			srvT.Close()
		}
		if err := <-cliErr; err != nil {
			t.Fatalf("client handshake: %v (server: %v)", err, srvErr)
		}
		if srvErr != nil {
			t.Fatalf("server handshake: %v", srvErr)
		}
		echoCheck(t, server, client)
		resumed = server.ConnectionState().DidResume
		server.Release()
		return resumed, client.ResumptionSession()
	}
	_, first := serve(&Config{})
	if first == nil || len(first.SessionID) == 0 {
		t.Fatal("the first handshake left no session ID")
	}
	if resumed, _ := serve(&Config{}); resumed {
		t.Fatal("an unrelated handshake resumed")
	}
	if resumed, _ := serve(&Config{Session: first}); !resumed {
		t.Fatal("the first session did not resume")
	}
}
