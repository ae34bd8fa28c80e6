package minitls

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
)

// Tests of the in-place record plane: wire compatibility of the gathered
// write, double execution of a seal closure, allocation guards, and the
// in-place read path (coalesced and split records).

// memTransport is an in-memory, non-blocking transport: Write appends a
// copy and logs the call (the Conn issues one per record), Read drains at
// most chunk bytes per call and reports would-block when empty.
type memTransport struct {
	buf    bytes.Buffer
	writes []int
	chunk  int // 0: no limit
}

func (m *memTransport) Write(p []byte) (int, error) {
	m.writes = append(m.writes, len(p))
	return m.buf.Write(p)
}

func (m *memTransport) Read(p []byte) (int, error) {
	if m.buf.Len() == 0 {
		return 0, nbErr{}
	}
	if m.chunk > 0 && len(p) > m.chunk {
		p = p[:m.chunk]
	}
	return m.buf.Read(p)
}

var recordPlaneSuites = map[string]*Config{
	"cbc": {CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}},
	"gcm": {MaxVersion: VersionTLS13},
}

// memPair completes a handshake and then moves server→client traffic
// onto a memTransport, so the server's writes never block and the test
// sees every record.
func memPair(t *testing.T, cfg *Config) (server, client *Conn, m *memTransport) {
	t.Helper()
	rsaID, _ := testIdentities(t)
	srvCfg := *cfg
	srvCfg.Identity = rsaID
	server, client, _ = handshakePair(t, &srvCfg, &Config{MaxVersion: cfg.MaxVersion})
	m = &memTransport{}
	server.transport, client.transport = m, m
	return server, client, m
}

// readRecords drains every buffered record through the client's record
// layer and returns the plaintext lengths and the concatenated plaintext.
func readRecords(t *testing.T, client *Conn) (lens []int, plain []byte) {
	t.Helper()
	for {
		typ, payload, err := client.readRecord()
		if errors.Is(err, ErrWantRead) {
			return lens, plain
		}
		if err != nil {
			t.Fatalf("readRecord: %v", err)
		}
		if typ != recordApplicationData {
			t.Fatalf("record type %d, want application data", typ)
		}
		lens = append(lens, len(payload))
		plain = append(plain, payload...)
	}
}

// TestWritevWireCompatible: the gathered write puts the same records on
// the wire as Write of the concatenation — the parent's rule, one record
// per MaxPlaintext of hdr‖body — and a stock peer reads the bytes back.
func TestWritevWireCompatible(t *testing.T) {
	hdr := []byte("HTTP/1.1 200 OK\r\nContent-Length: 262144\r\nConnection: keep-alive\r\n\r\n")
	sizes := []int{0, 1, MaxPlaintext - len(hdr), MaxPlaintext - len(hdr) + 1, MaxPlaintext, 2 * MaxPlaintext, 262144}
	for name, cfg := range recordPlaneSuites {
		t.Run(name, func(t *testing.T) {
			server, client, m := memPair(t, cfg)
			for _, size := range sizes {
				body := make([]byte, size)
				for i := range body {
					body[i] = byte('a' + i%26)
				}
				whole := append(bytes.Clone(hdr), body...)
				var want []int
				for rest := len(whole); rest > 0; rest -= min(rest, MaxPlaintext) {
					want = append(want, min(rest, MaxPlaintext))
				}

				m.writes = nil
				if n, err := server.Writev(hdr, body); err != nil || n != len(whole) {
					t.Fatalf("Writev(%d): n=%d err=%v", size, n, err)
				}
				gatheredWire := m.writes
				lens, plain := readRecords(t, client)
				if fmt.Sprint(lens) != fmt.Sprint(want) {
					t.Errorf("size %d: gathered record plaintext lengths %v, want %v", size, lens, want)
				}
				if !bytes.Equal(plain, whole) {
					t.Errorf("size %d: peer read different bytes from the gathered write", size)
				}

				m.writes = nil
				if _, err := server.Write(whole); err != nil {
					t.Fatalf("Write(%d): %v", len(whole), err)
				}
				if fmt.Sprint(m.writes) != fmt.Sprint(gatheredWire) {
					t.Errorf("size %d: wire record lengths differ: gathered %v, one slice %v", size, gatheredWire, m.writes)
				}
				if _, plain := readRecords(t, client); !bytes.Equal(plain, whole) {
					t.Errorf("size %d: peer read different bytes from the one-slice write", size)
				}
			}
			m.writes = nil
			if n, err := server.Writev(nil, nil); n != 0 || err != nil || len(m.writes) != 0 {
				t.Errorf("empty Writev: n=%d err=%v records=%d, want nothing written", n, err, len(m.writes))
			}
		})
	}
}

// rerunProvider runs every cipher closure four times — twice in a row,
// then twice at once from two goroutines — the way the op-deadline
// fallback re-runs a closure a slow device is still executing. It checks
// that the runs produced distinct buffers, hands one on as the result and
// leaves the others to the garbage collector (a dropped result is never
// Put).
type rerunProvider struct {
	t    *testing.T
	runs [][]byte // copy of every sealed record, in groups of four
}

func (p *rerunProvider) Name() string { return "rerun" }

func (p *rerunProvider) Do(_ *OpCall, kind OpKind, work func() (any, error)) (any, error) {
	if kind != KindCipher {
		return work()
	}
	var res [4]any
	var errs [4]error
	res[0], errs[0] = work()
	res[1], errs[1] = work()
	var wg sync.WaitGroup
	for i := 2; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = work()
		}(i)
	}
	wg.Wait()
	seen := map[*WireBuf]bool{}
	for i := range res {
		if errs[i] != nil {
			return nil, errs[i]
		}
		w := res[i].(*WireBuf)
		if seen[w] {
			p.t.Errorf("run %d sealed into a buffer another run returned", i)
		}
		seen[w] = true
		p.runs = append(p.runs, bytes.Clone(w.Bytes()))
	}
	return res[3], nil
}

// TestSealClosureRunsTwice: every execution of one seal closure yields an
// independently valid record in its own buffer (run it under -race: the
// concurrent pair shares the protection's cipher state).
func TestSealClosureRunsTwice(t *testing.T) {
	for name, cfg := range recordPlaneSuites {
		t.Run(name, func(t *testing.T) {
			p := &rerunProvider{t: t}
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
			// The write opens the turn: a one-segment record, then 16 KB ones.
			hdr, body := []byte("header: "), bytes.Repeat([]byte("0123456789abcdef"), 2500)
			whole := append(bytes.Clone(hdr), body...)
			cuts := recordCuts(len(whole), server.firstRecordLen(len(whole)))
			if _, err := server.Writev(hdr, body); err != nil {
				t.Fatal(err)
			}
			if _, plain := readRecords(t, client); !bytes.Equal(plain, whole) {
				t.Fatal("peer read different bytes")
			}
			if len(p.runs) != len(cuts)*4 {
				t.Fatalf("%d closure runs, want %d", len(p.runs), len(cuts)*4)
			}
			off := 0
			for i, rec := range p.runs {
				seq := km.Seq + uint64(i/4)
				typ, payload, err := cd.Open(seq, rec[0], rec[RecordHeaderLen:])
				if err != nil || typ != RecordTypeApplicationData {
					t.Fatalf("run %d of record %d: typ=%d err=%v", i%4, i/4, typ, err)
				}
				if want := whole[off : off+cuts[i/4]]; !bytes.Equal(payload, want) {
					t.Fatalf("run %d of record %d sealed the wrong plaintext", i%4, i/4)
				}
				if i%4 == 3 {
					off += cuts[i/4]
				}
			}
		})
	}
}

// discardTransport swallows writes; the allocation guards write into it.
type discardTransport struct{}

func (discardTransport) Read([]byte) (int, error)    { return 0, nbErr{} }
func (discardTransport) Write(p []byte) (int, error) { return len(p), nil }

// minAllocBytes returns the fewest heap bytes one call of f allocated
// over several calls: the steady-state figure, without the occasional
// pool refill (the race detector makes sync.Pool drop a quarter of Puts).
func minAllocBytes(f func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 20; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestRecordIOAllocations pins the steady-state allocations of one 16 KB
// record through Conn.Write and Conn.Read (the ledger rows
// minitls.record_write_16k_allocs, 15 before the in-place record plane and
// 1 while the seal captured its arguments in a closure, and
// record_read_16k_allocs, 13).
func TestRecordIOAllocations(t *testing.T) {
	for name, cfg := range recordPlaneSuites {
		t.Run(name, func(t *testing.T) {
			server, client, m := memPair(t, cfg)
			payload := bytes.Repeat([]byte{'b'}, MaxPlaintext)
			buf := make([]byte, MaxPlaintext)
			const runs = 100
			// The read side first: runs+1 records (AllocsPerRun warms up
			// once) wait in the transport, each Read consumes one.
			for i := 0; i < runs+1; i++ {
				if _, err := server.Write(payload); err != nil {
					t.Fatal(err)
				}
			}
			m.writes = nil
			if n := testing.AllocsPerRun(runs, func() {
				if n, err := client.Read(buf); n != MaxPlaintext || err != nil {
					t.Fatalf("read: n=%d err=%v", n, err)
				}
			}); n > 4 {
				t.Errorf("one 16 KB record read allocates %v objects, want <= 4", n)
			}
			if !bytes.Equal(buf, payload) {
				t.Fatal("read different bytes")
			}

			server.transport = discardTransport{}
			write := func() {
				if _, err := server.Write(payload); err != nil {
					t.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(runs, write); n > 0 {
				t.Errorf("one 16 KB record written allocates %v objects, want 0", n)
			}
			if b := minAllocBytes(write); b >= 1024 {
				t.Errorf("one 16 KB record written allocates %d bytes, want < 1 KB", b)
			}
		})
	}
}

// TestReadRecordCoalesced: three records arriving in one transport read
// are opened in place one after the other without disturbing each other —
// including under the null protection, whose payload is the input itself.
func TestReadRecordCoalesced(t *testing.T) {
	msgs := [][]byte{[]byte("first"), bytes.Repeat([]byte{'2'}, 200), []byte("third record")}
	check := func(t *testing.T, client *Conn, m *memTransport) {
		t.Helper()
		if m.buf.Len() > minRawInput {
			t.Fatalf("%d bytes buffered: more than one transport read", m.buf.Len())
		}
		for i, want := range msgs {
			_, payload, err := client.readRecord()
			if err != nil || !bytes.Equal(payload, want) {
				t.Fatalf("record %d: %q, %v", i, payload, err)
			}
			if i == 0 && m.buf.Len() != 0 {
				t.Fatal("first readRecord left bytes in the transport: records did not coalesce")
			}
		}
		if _, _, err := client.readRecord(); !errors.Is(err, ErrWantRead) {
			t.Fatalf("after the last record: %v", err)
		}
	}
	for name, cfg := range recordPlaneSuites {
		t.Run(name, func(t *testing.T) {
			server, client, m := memPair(t, cfg)
			for _, msg := range msgs {
				if _, err := server.Write(msg); err != nil {
					t.Fatal(err)
				}
			}
			check(t, client, m)
		})
	}
	t.Run("null", func(t *testing.T) {
		m := &memTransport{}
		for _, msg := range msgs {
			m.buf.Write([]byte{recordApplicationData, 3, 3, byte(len(msg) >> 8), byte(len(msg))})
			m.buf.Write(msg)
		}
		check(t, ClientConn(m, nil), m)
	})
}

// TestReadRecordSplit: a 16 KB record arriving in four pieces, with the
// transport running dry in between, survives the input buffer's growth
// and comes out whole; the record behind it is still intact.
func TestReadRecordSplit(t *testing.T) {
	for name, cfg := range recordPlaneSuites {
		t.Run(name, func(t *testing.T) {
			server, client, m := memPair(t, cfg)
			big, small := bytes.Repeat([]byte("split!"), MaxPlaintext/6), []byte("tail")
			for _, msg := range [][]byte{big, small} {
				if _, err := server.Write(msg); err != nil {
					t.Fatal(err)
				}
			}
			wire := bytes.Clone(m.buf.Bytes())
			m.buf.Reset()
			quarter := (m.writes[0] + 3) / 4
			for i := 0; i < 3; i++ {
				m.buf.Write(wire[i*quarter : (i+1)*quarter])
				if _, _, err := client.readRecord(); !errors.Is(err, ErrWantRead) {
					t.Fatalf("after piece %d: %v, want ErrWantRead", i+1, err)
				}
			}
			m.buf.Write(wire[3*quarter:])
			for _, want := range [][]byte{big, small} {
				if _, payload, err := client.readRecord(); err != nil || !bytes.Equal(payload, want) {
					t.Fatalf("record of %d bytes: got %d bytes, %v", len(want), len(payload), err)
				}
			}
		})
	}
}

// BenchmarkRecordWrite16K is one 16 KB record through Conn.Write — sealed
// in place: HMAC-SHA1 and AES-CBC for cbc, AES-GCM for gcm — into a
// transport that drops it: the per-record cost the bench's
// minitls.record_write_16k probe reports, without its loopback socket.
func BenchmarkRecordWrite16K(b *testing.B) {
	rsaID, _ := testIdentities(b)
	for _, name := range []string{"cbc", "gcm"} {
		b.Run(name, func(b *testing.B) {
			srvCfg := *recordPlaneSuites[name]
			srvCfg.Identity = rsaID
			srvT, cliT := net.Pipe()
			defer srvT.Close()
			defer cliT.Close()
			server, client := Server(srvT, &srvCfg), ClientConn(cliT, &Config{MaxVersion: srvCfg.MaxVersion})
			errc := make(chan error, 1)
			go func() { errc <- client.Handshake() }()
			if err := server.Handshake(); err != nil {
				b.Fatal(err)
			}
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
			server.transport = discardTransport{}
			payload := bytes.Repeat([]byte{'b'}, MaxPlaintext)
			b.SetBytes(MaxPlaintext)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := server.Write(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
