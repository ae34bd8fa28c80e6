package minitls

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func ringServerConfig(t *testing.T, ring *TicketKeyRing) *Config {
	t.Helper()
	rsaID, _ := testIdentities(t)
	return &Config{
		Identity:     rsaID,
		CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		TicketKeys:   ring,
	}
}

// TestTicketRingResumption checks the rotating ring end to end: a ticket
// sealed under the original key still resumes after one rotation (the
// old key is retained for opening), and stops resuming once its key ages
// out of the ring — the handshake then falls back to full, it does not
// fail.
func TestTicketRingResumption(t *testing.T) {
	var seed [32]byte
	copy(seed[:], bytes.Repeat([]byte{0x5a}, 32))
	ring := NewTicketKeyRing(seed, 2)
	serverCfg := ringServerConfig(t, ring)

	_, client1, _ := handshakePair(t, serverCfg, &Config{RequestTicket: true})
	sess := client1.ResumptionSession()
	if sess == nil || len(sess.Ticket) == 0 {
		t.Fatal("client did not receive a ticket")
	}

	// One rotation: the sealing key changes, the old key still opens.
	if err := ring.Rotate(); err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 2 || ring.Generation() != 1 {
		t.Fatalf("ring len %d gen %d after rotate", ring.Len(), ring.Generation())
	}
	server2, client2, _ := handshakePair(t, serverCfg, &Config{Session: sess})
	if !server2.ConnectionState().DidResume || !client2.ConnectionState().DidResume {
		t.Fatal("ticket did not resume after one rotation")
	}
	echoCheck(t, server2, client2)

	// A second rotation ages the sealing key of the original ticket out
	// (retain=2): resumption declines, the connection completes full.
	if err := ring.Rotate(); err != nil {
		t.Fatal(err)
	}
	server3, client3, _ := handshakePair(t, serverCfg, &Config{Session: sess})
	if server3.ConnectionState().DidResume {
		t.Fatal("ticket resumed after its key aged out")
	}
	echoCheck(t, server3, client3)
}

// TestTicketRingCrossConfig models cross-worker resumption: two distinct
// server Configs (per-worker copies) sharing one ring pointer resume
// each other's tickets.
func TestTicketRingCrossConfig(t *testing.T) {
	ring, err := GenerateTicketKeyRing(3)
	if err != nil {
		t.Fatal(err)
	}
	worker0 := ringServerConfig(t, ring)
	worker1 := *worker0 // per-worker copy, shared ring pointer

	_, client1, _ := handshakePair(t, worker0, &Config{RequestTicket: true})
	sess := client1.ResumptionSession()
	if sess == nil || len(sess.Ticket) == 0 {
		t.Fatal("worker 0 did not issue a ticket")
	}
	server2, _, _ := handshakePair(t, &worker1, &Config{Session: sess})
	if !server2.ConnectionState().DidResume {
		t.Fatal("worker 1 did not resume worker 0's ticket")
	}
}

// TestTicketKeysConcurrentRotate seals and opens tickets from eight
// goroutines while the ring rotates (run under -race): the AEADs built
// once per ring key, and the one kept for the last static key, serve
// concurrent use. Half the goroutines use static keys, two of them in
// turn, so the static key's cached AEAD is replaced while others use it.
func TestTicketKeysConcurrentRotate(t *testing.T) {
	ring, err := GenerateTicketKeyRing(2)
	if err != nil {
		t.Fatal(err)
	}
	ringCfg := &Config{TicketKeys: ring}
	var keyA, keyB [32]byte
	keyA[0], keyB[0] = 0xa, 0xb
	static := []*Config{{TicketKey: &keyA}, {TicketKey: &keyB}}

	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				cfg := ringCfg
				if g%2 == 1 {
					cfg = static[(g/2+i)%2]
				}
				master := []byte{byte(g), byte(i)}
				ticket, err := cfg.sealSessionTicket(SessionState{Version: VersionTLS12, MasterSecret: master})
				if err != nil {
					errs <- err
					return
				}
				st, err := cfg.openSessionTicket(nil, ticket)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %w", g, i, err)
					return
				}
				if !bytes.Equal(st.MasterSecret, master) {
					errs <- fmt.Errorf("goroutine %d round %d: opened another ticket's state", g, i)
					return
				}
			}
		}(g)
	}
	close(start)
	if err := ring.Rotate(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ring.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", ring.Generation())
	}
}

// TestTicketRingTLS13 checks the ring on the TLS 1.3 PSK path.
func TestTicketRingTLS13(t *testing.T) {
	ring, err := GenerateTicketKeyRing(2)
	if err != nil {
		t.Fatal(err)
	}
	rsaID, _ := testIdentities(t)
	serverCfg := &Config{Identity: rsaID, MaxVersion: VersionTLS13, TicketKeys: ring}

	_, client1 := run13(t, serverCfg, &Config{MaxVersion: VersionTLS13})
	sess := client1.ResumptionSession()
	if sess == nil || len(sess.Ticket) == 0 {
		t.Fatal("no TLS 1.3 ticket issued")
	}
	if err := ring.Rotate(); err != nil {
		t.Fatal(err)
	}
	server2, _ := run13(t, serverCfg, &Config{MaxVersion: VersionTLS13, Session: sess})
	if !server2.ConnectionState().DidResume {
		t.Fatal("TLS 1.3 PSK did not resume through the ring")
	}
}
