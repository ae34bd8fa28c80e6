package minitls

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"encoding/pem"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
)

// Tests of the handshake flight buffer: one transport Write per flight,
// the same records on the wire as one Write per record put there, the
// overflow flush, and a flight abandoned on a fatal error.

// constRand is an entropy source whose every byte is the same, so what a
// caller reads does not depend on how much was read before it — the
// standard library's key generation and signing deliberately consume a
// random extra byte from a caller-supplied source now and then.
type constRand byte

func (r constRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// fixedIdentity is the RSA-2048 identity committed for the benchmark: the
// pinned digests below need the same certificate and key in every process.
func fixedIdentity(t testing.TB) *Identity {
	t.Helper()
	block := func(path string) []byte {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := pem.Decode(raw)
		if b == nil {
			t.Fatalf("%s: no PEM block", path)
		}
		return b.Bytes
	}
	key, err := x509.ParsePKCS1PrivateKey(block("../../bench/testdata/server.key"))
	if err != nil {
		t.Fatal(err)
	}
	return &Identity{PrivateKey: key, CertDER: [][]byte{block("../../bench/testdata/server.crt")}}
}

// bufPipe is one direction of an in-memory byte pipe whose Write never
// waits for the reader (net.Pipe's does, which would make a side that has
// finished its handshake block the other's last flight).
type bufPipe struct {
	mu     sync.Mutex
	ready  sync.Cond
	buf    bytes.Buffer
	closed bool
}

func newBufPipe() *bufPipe {
	p := &bufPipe{}
	p.ready.L = &p.mu
	return p
}

func (p *bufPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ready.Signal()
	return p.buf.Write(b)
}

func (p *bufPipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.buf.Len() == 0 && !p.closed {
		p.ready.Wait()
	}
	return p.buf.Read(b) // io.EOF once closed and drained
}

func (p *bufPipe) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.ready.Broadcast()
}

// loggingTransport is one end of a bufPipe pair; it records every Write it
// is handed, one element per call.
type loggingTransport struct {
	in, out *bufPipe
	writes  [][]byte
}

func (l *loggingTransport) Read(p []byte) (int, error) { return l.in.Read(p) }

func (l *loggingTransport) Write(p []byte) (int, error) {
	l.writes = append(l.writes, bytes.Clone(p))
	return l.out.Write(p)
}

// wireRecords splits one transport write into the whole records it holds,
// headers included; a write that does not end on a record boundary fails.
func wireRecords(t *testing.T, wire []byte) [][]byte {
	t.Helper()
	var recs [][]byte
	for len(wire) > 0 {
		if len(wire) < recordHeaderLen {
			t.Fatalf("transport write ends inside a record header (%d bytes left)", len(wire))
		}
		n := recordHeaderLen + int(wire[3])<<8 + int(wire[4])
		if n > len(wire) {
			t.Fatalf("transport write ends inside a record (%d of %d bytes)", len(wire), n)
		}
		recs = append(recs, wire[:n])
		wire = wire[n:]
	}
	return recs
}

// handshakeOverLog runs one handshake, the client on a goroutine of its
// own and the server pumped through p, and returns what each side handed
// to its transport, call by call.
func handshakeOverLog(t *testing.T, srvCfg, cliCfg *Config, p *manualProvider) (server, client *Conn, srvLog, cliLog *loggingTransport) {
	t.Helper()
	up, down := newBufPipe(), newBufPipe()
	t.Cleanup(func() { up.Close(); down.Close() })
	srvLog, cliLog = &loggingTransport{in: up, out: down}, &loggingTransport{in: down, out: up}
	server, client = Server(srvLog, srvCfg), ClientConn(cliLog, cliCfg)
	cliErr := make(chan error, 1)
	go func() { cliErr <- client.Handshake() }()
	driveServer(t, server, p)
	if err := <-cliErr; err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	return server, client, srvLog, cliLog
}

// checkBothWays moves a record in each direction — application data up,
// the server's close-notify down — and checks the peer reads it: both
// sides' keys and sequence numbers survived the handshake. (On TLS 1.3 the
// client's Read also consumes the post-handshake ticket.)
func checkBothWays(t *testing.T, server, client *Conn) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := client.Write([]byte("ping"))
		done <- err
	}()
	got := make([]byte, 4)
	if _, err := io.ReadFull(&connReader{server}, got); err != nil || string(got) != "ping" {
		t.Fatalf("server read %q, %v", got, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("client write: %v", err)
	}
	go func() {
		_, err := client.Read(got)
		done <- err
	}()
	if err := server.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if err := <-done; err != io.EOF || !client.CloseNotifyReceived() {
		t.Fatalf("client read after close: %v (close-notify %v)", err, client.CloseNotifyReceived())
	}
}

// TestHandshakeWritesPerFlight: each side hands the transport one Write per
// handshake flight — and the writes, laid end to end, are the records the
// one-Write-per-record parent put on the wire, in the same order.
//
// The record sequence is checked for every flow. For the flows that are
// reproducible across processes it is also checked byte for byte: with a
// constant entropy source and the committed identity the wire bytes are a
// function of the code alone, and the digests below are of the parent
// commit's output (this same harness, run there). Flows that carry a
// session ticket are not pinned: sealTicket draws its nonce from
// crypto/rand. A digest that moves while the record sequence holds and the
// handshake still verifies points at the Go release's key generation, not
// at the flight buffer.
func TestHandshakeWritesPerFlight(t *testing.T) {
	const (
		hs  = recordHandshake
		ccs = recordChangeCipherSpec
		app = recordApplicationData // every TLS 1.3 record past ServerHello
	)
	id := fixedIdentity(t)
	var ticketKey [32]byte
	copy(ticketKey[:], bytes.Repeat([]byte{0x33}, 32))
	base12 := func() *Config {
		return &Config{Identity: id, Rand: constRand(0x5a), CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}}
	}
	base13 := func() *Config {
		return &Config{Identity: id, Rand: constRand(0x5a), MaxVersion: VersionTLS13}
	}
	// prime runs an unmeasured full handshake and returns the session the
	// measured, resumed one offers.
	prime12 := func(t *testing.T, srv, cli *Config) *ClientSession {
		_, client, _, _ := handshakeOverLog(t, srv, cli, &manualProvider{})
		sess := client.ResumptionSession()
		if sess == nil {
			t.Fatal("priming handshake left no session")
		}
		return sess
	}
	flows := []struct {
		name string
		// configs returns the measured handshake's two configs.
		configs        func(t *testing.T) (srv, cli *Config)
		server, client [][]uint8 // wire record types, per transport write
		resumed        bool
		digest         [2]string // sha256 of the server's and the client's bytes
	}{
		{
			name: "tls12-full",
			configs: func(t *testing.T) (*Config, *Config) {
				srv := base12()
				srv.SessionCache = NewSessionCache(4)
				return srv, &Config{Rand: constRand(0x5a)}
			},
			server: [][]uint8{{hs, hs, hs, hs}, {ccs, hs}},
			client: [][]uint8{{hs}, {hs, ccs, hs}},
			digest: [2]string{
				"db8f974ef25cae49873146f4aebf5171221f5d8d3bececc5771a7d826efa44f7",
				"c0a6c70b5b1ce1423a211ae612b8bd6473c1926241804420286519ff67d4eb43",
			},
		},
		{
			name: "tls12-full-ticket",
			configs: func(t *testing.T) (*Config, *Config) {
				srv := base12()
				srv.TicketKey = &ticketKey
				return srv, &Config{Rand: constRand(0x5a), RequestTicket: true}
			},
			server: [][]uint8{{hs, hs, hs, hs}, {hs, ccs, hs}}, // 7 records, 2 writes
			client: [][]uint8{{hs}, {hs, ccs, hs}},
		},
		{
			name: "tls12-ticket-resumed",
			configs: func(t *testing.T) (*Config, *Config) {
				srv := base12()
				srv.TicketKey = &ticketKey
				sess := prime12(t, srv, &Config{Rand: constRand(0x5a), RequestTicket: true})
				return srv, &Config{Rand: constRand(0x5a), Session: sess}
			},
			server:  [][]uint8{{hs, ccs, hs}},
			client:  [][]uint8{{hs}, {ccs, hs}},
			resumed: true,
		},
		{
			name: "tls12-session-id-resumed",
			configs: func(t *testing.T) (*Config, *Config) {
				srv := base12()
				srv.SessionCache = NewSessionCache(4)
				sess := prime12(t, srv, &Config{Rand: constRand(0x5a)})
				return srv, &Config{Rand: constRand(0x5a), Session: sess}
			},
			server:  [][]uint8{{hs, ccs, hs}},
			client:  [][]uint8{{hs}, {ccs, hs}},
			resumed: true,
			digest: [2]string{
				"7eedf026ccbb31570af391f289c05d04a4ef588bf517db089f57f227556b2527",
				"732fd86c70db8cf6fd87e567ce8190da543591b6d8b4c20f6282fde8720acddc",
			},
		},
		{
			name: "tls13-full",
			configs: func(t *testing.T) (*Config, *Config) {
				return base13(), &Config{Rand: constRand(0x5a), MaxVersion: VersionTLS13}
			},
			server: [][]uint8{{hs, app, app, app, app}},
			client: [][]uint8{{hs}, {app}},
			digest: [2]string{
				"6ad7d04b961e0bd0866f603761c9abbe9fdcbf72a4c074cda2d4c2891530b4f9",
				"b86802e9097057dbd855cd6c0811e1cdc6d111e99f9c0bbccfe249175403940b",
			},
		},
		{
			name: "tls13-psk",
			configs: func(t *testing.T) (*Config, *Config) {
				srv := base13()
				srv.TicketKey = &ticketKey
				_, client := run13(t, srv, &Config{Rand: constRand(0x5a), MaxVersion: VersionTLS13})
				sess := client.ResumptionSession()
				if sess == nil {
					t.Fatal("priming handshake left no session")
				}
				return srv, &Config{Rand: constRand(0x5a), MaxVersion: VersionTLS13, Session: sess}
			},
			// The ticket is a post-handshake message: sealed under the
			// application keys once the client's Finished has been read, it
			// is a flight of its own.
			server:  [][]uint8{{hs, app, app}, {app}},
			client:  [][]uint8{{hs}, {app}},
			resumed: true,
		},
	}
	for _, f := range flows {
		for _, mode := range []AsyncMode{AsyncModeOff, AsyncModeFiber, AsyncModeStack} {
			t.Run(f.name+"/"+mode.String(), func(t *testing.T) {
				srvCfg, cliCfg := f.configs(t)
				p := &manualProvider{}
				measured := *srvCfg
				measured.AsyncMode, measured.Provider = mode, p
				server, client, srvLog, cliLog := handshakeOverLog(t, &measured, cliCfg, p)
				if got := server.ConnectionState().DidResume; got != f.resumed {
					t.Fatalf("resumed = %v, want %v", got, f.resumed)
				}
				for i, side := range []struct {
					name   string
					writes [][]byte
					want   [][]uint8
				}{{"server", srvLog.writes, f.server}, {"client", cliLog.writes, f.client}} {
					var got [][]uint8
					for _, w := range side.writes {
						var types []uint8
						for _, rec := range wireRecords(t, w) {
							types = append(types, rec[0])
						}
						got = append(got, types)
					}
					if fmt.Sprint(got) != fmt.Sprint(side.want) {
						t.Errorf("%s handed the transport %v (record types per Write), want %v", side.name, got, side.want)
					}
					sum := sha256.Sum256(bytes.Join(side.writes, nil))
					t.Logf("%s wire sha256 %s", side.name, hex.EncodeToString(sum[:]))
					if want := f.digest[i]; want != "" && hex.EncodeToString(sum[:]) != want {
						t.Errorf("%s wire bytes differ from the parent's: sha256 %x, want %s", side.name, sum, want)
					}
				}
				if server.flight != nil || client.flight != nil {
					t.Error("a flight buffer outlived the handshake")
				}
				checkBothWays(t, server, client)
			})
		}
	}
}

// TestFlightOverflowFlushes: a certificate chain larger than a wire buffer
// goes out in as many Writes as it takes, none larger than the buffer, and
// the records come out whole and in order.
func TestFlightOverflowFlushes(t *testing.T) {
	rsaID, _ := testIdentities(t)
	// Two 20 KB pseudo-certificates behind the leaf: the client parses
	// only the leaf, the Certificate message spans three records.
	chain := &Identity{PrivateKey: rsaID.PrivateKey, CertDER: [][]byte{
		rsaID.CertDER[0], bytes.Repeat([]byte{0xc1}, 20<<10), bytes.Repeat([]byte{0xc2}, 20<<10),
	}}
	for name, cfg := range recordPlaneSuites {
		t.Run(name, func(t *testing.T) {
			srvCfg := *cfg
			srvCfg.Identity = chain
			server, client, srvLog, _ := handshakeOverLog(t, &srvCfg, &Config{MaxVersion: cfg.MaxVersion}, &manualProvider{})
			var full int
			for _, w := range srvLog.writes {
				if len(w) > RecordHeaderLen+MaxCiphertext {
					t.Errorf("a Write of %d bytes: larger than a wire buffer", len(w))
				}
				for _, rec := range wireRecords(t, w) {
					if len(rec)-recordHeaderLen >= MaxPlaintext {
						full++
					}
				}
			}
			if full != 2 {
				t.Errorf("%d full-size records on the wire, want 2 (a 41 KB Certificate message)", full)
			}
			// SH ‖ first certificate record fit one buffer; the second and the
			// third each force a flush; the flight's tail leaves before the
			// read. TLS 1.2 then sends CCS+Finished as a second flight.
			want := 3
			if cfg.MaxVersion != VersionTLS13 {
				want = 4
			}
			if len(srvLog.writes) != want {
				t.Errorf("%d transport writes, want %d", len(srvLog.writes), want)
			}
			checkBothWays(t, server, client)
		})
	}
}

// abandonProvider fails or parks the server's signature, the op a TLS 1.3
// full handshake runs with ServerHello, EncryptedExtensions and Certificate
// already sealed into the flight buffer.
type abandonProvider struct {
	park bool // pause on the fiber first; fail only once cancelled
}

var errAbandoned = errors.New("abandoned")

func (p abandonProvider) Name() string { return "abandon" }

func (p abandonProvider) Do(call *OpCall, kind OpKind, work func() (any, error)) (any, error) {
	if kind != KindRSA {
		return work()
	}
	if p.park {
		for !call.Cancelled {
			if err := call.Job.Pause(); err != nil {
				return nil, err
			}
		}
	}
	return nil, errAbandoned
}

// TestFlightAbandonedOnFatal: a handshake that dies with a flight buffered
// — the op fails, or the event loop gives the connection up while it is
// parked on the offload (closeConn: CancelAsync, then re-entry) — never
// sends the buffered bytes, and gives the buffer up exactly once: Close
// afterwards finds nothing to release. Several connections die at once
// while others complete handshakes, so a buffer returned to the pool twice
// would be sealed into by two of them (run under -race).
func TestFlightAbandonedOnFatal(t *testing.T) {
	rsaID, _ := testIdentities(t)
	clientHello := func() []byte {
		scratch := nonBlockingWrap{out: &bytes.Buffer{}}
		client := ClientConn(&scratch, &Config{MaxVersion: VersionTLS13})
		if err := client.Handshake(); !errors.Is(err, ErrWantRead) {
			t.Fatalf("scratch client: %v", err)
		}
		return scratch.out.Bytes()
	}
	abandon := func(park bool) error {
		m := &memTransport{}
		m.buf.Write(clientHello())
		m.writes = nil
		cfg := &Config{Identity: rsaID, MaxVersion: VersionTLS13, Provider: abandonProvider{park: park}}
		if park {
			cfg.AsyncMode = AsyncModeFiber
		}
		server := Server(m, cfg)
		err := server.Handshake()
		if park {
			if !errors.Is(err, ErrWantAsync) {
				return fmt.Errorf("parked handshake: %v, want ErrWantAsync", err)
			}
			if server.flight == nil || len(m.writes) != 0 {
				return fmt.Errorf("paused mid-flight: buffered %v, %d transport writes; want the flight held back", server.flight != nil, len(m.writes))
			}
			server.CancelAsync()
			err = server.Handshake()
		}
		if !errors.Is(err, errAbandoned) {
			return fmt.Errorf("handshake: %v, want the provider's error", err)
		}
		for i := 0; i < 2; i++ {
			if err := server.Close(); err != nil {
				return fmt.Errorf("close: %v", err)
			}
		}
		if server.flight != nil {
			return errors.New("the flight buffer outlived the fatal error")
		}
		if len(m.writes) != 0 {
			return fmt.Errorf("%d transport writes after a fatal error mid-flight, want none", len(m.writes))
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := abandon(g%2 == 1); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Meanwhile, handshakes that must succeed draw on the same pool.
	for i := 0; i < 10; i++ {
		handshakePair(t, &Config{Identity: rsaID, MaxVersion: VersionTLS13}, &Config{MaxVersion: VersionTLS13})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// pauseProvider parks every cipher op on the fiber until released.
type pauseProvider struct{ release bool }

func (p *pauseProvider) Name() string { return "pause" }

func (p *pauseProvider) Do(call *OpCall, kind OpKind, work func() (any, error)) (any, error) {
	for kind == KindCipher && call.Mode == AsyncModeFiber && !p.release {
		if err := call.Job.Pause(); err != nil {
			return nil, err
		}
	}
	return work()
}

// TestDriveAllocations: re-entering a paused operation allocates nothing,
// and running one under the fiber regime allocates what running it inline
// does — no method value, start closure or job per drive.
func TestDriveAllocations(t *testing.T) {
	server, _, _ := memPair(t, recordPlaneSuites["cbc"])
	server.transport = discardTransport{}
	payload := bytes.Repeat([]byte{'d'}, 1024)
	write := func() {
		if _, err := server.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	inline := testing.AllocsPerRun(100, write)

	p := &pauseProvider{release: true}
	fiberCfg := *server.config
	fiberCfg.AsyncMode, fiberCfg.Provider = AsyncModeFiber, p
	server.config = &fiberCfg
	if n := testing.AllocsPerRun(100, write); n > inline {
		t.Errorf("a write under the fiber regime allocates %v objects, inline %v", n, inline)
	}

	p.release = false
	if _, err := server.Write(payload); !errors.Is(err, ErrWantAsync) {
		t.Fatalf("parked write: %v, want ErrWantAsync", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := server.Write(payload); !errors.Is(err, ErrWantAsync) {
			t.Fatalf("re-entry: %v, want ErrWantAsync", err)
		}
	}); n != 0 {
		t.Errorf("re-entering a paused write allocates %v objects, want 0", n)
	}
	p.release = true
	write()
}
