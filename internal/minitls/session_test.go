package minitls

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestSessionCachePutGet(t *testing.T) {
	sc := NewSessionCache(8)
	st := SessionState{Version: VersionTLS12, CipherSuite: TLS_RSA_WITH_AES_128_CBC_SHA, MasterSecret: bytes.Repeat([]byte{1}, 48)}
	sc.Put([]byte("id-1"), st)
	got, ok := sc.Get([]byte("id-1"))
	if !ok || got.CipherSuite != st.CipherSuite || !bytes.Equal(got.MasterSecret, st.MasterSecret) {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := sc.Get([]byte("missing")); ok {
		t.Fatal("missing id found")
	}
	hits, misses := sc.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestSessionCacheLRUEviction(t *testing.T) {
	sc := NewSessionCache(3)
	for i := 0; i < 3; i++ {
		sc.Put([]byte{byte(i)}, SessionState{Version: VersionTLS12})
	}
	// Touch 0 so it becomes most recent; inserting 3 must evict 1.
	sc.Get([]byte{0})
	sc.Put([]byte{3}, SessionState{Version: VersionTLS12})
	if sc.Len() != 3 {
		t.Fatalf("len = %d", sc.Len())
	}
	if _, ok := sc.Get([]byte{1}); ok {
		t.Fatal("LRU entry not evicted")
	}
	for _, id := range []byte{0, 2, 3} {
		if _, ok := sc.Get([]byte{id}); !ok {
			t.Fatalf("entry %d evicted wrongly", id)
		}
	}
}

func TestSessionCacheUpdateExisting(t *testing.T) {
	sc := NewSessionCache(2)
	sc.Put([]byte("a"), SessionState{CipherSuite: 1})
	sc.Put([]byte("a"), SessionState{CipherSuite: 2})
	if sc.Len() != 1 {
		t.Fatalf("len = %d", sc.Len())
	}
	got, _ := sc.Get([]byte("a"))
	if got.CipherSuite != 2 {
		t.Fatalf("suite = %d", got.CipherSuite)
	}
}

func TestSessionCacheDefaultSize(t *testing.T) {
	sc := NewSessionCache(0)
	for i := 0; i < 2000; i++ {
		sc.Put([]byte(fmt.Sprintf("id-%d", i)), SessionState{})
	}
	if sc.Len() != 1024 {
		t.Fatalf("len = %d, want default bound 1024", sc.Len())
	}
}

func TestSessionCacheConcurrent(t *testing.T) {
	sc := NewSessionCache(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := []byte{byte(w), byte(i)}
				sc.Put(id, SessionState{CipherSuite: uint16(i)})
				sc.Get(id)
			}
		}(w)
	}
	wg.Wait()
	if sc.Len() > 64 {
		t.Fatalf("len = %d exceeds bound", sc.Len())
	}
}

func TestSessionStateRoundTrip(t *testing.T) {
	in := SessionState{Version: VersionTLS12, CipherSuite: TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA, MasterSecret: bytes.Repeat([]byte{7}, 48)}
	var out SessionState
	if err := out.unmarshal(in.marshal()); err != nil {
		t.Fatal(err)
	}
	if out.Version != in.Version || out.CipherSuite != in.CipherSuite || !bytes.Equal(out.MasterSecret, in.MasterSecret) {
		t.Fatal("roundtrip mismatch")
	}
	if err := out.unmarshal(append(in.marshal(), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestTicketSealOpen(t *testing.T) {
	var key [32]byte
	copy(key[:], bytes.Repeat([]byte{9}, 32))
	st := SessionState{Version: VersionTLS12, CipherSuite: TLS_RSA_WITH_AES_128_CBC_SHA, MasterSecret: bytes.Repeat([]byte{3}, 48)}
	ticket, err := newTicketKey(key).seal(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := newTicketKey(key).open(nil, ticket)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.MasterSecret, st.MasterSecret) {
		t.Fatal("ticket state mismatch")
	}
}

func TestTicketTamperAndWrongKey(t *testing.T) {
	var key, other [32]byte
	key[0] = 1
	other[0] = 2
	st := SessionState{Version: VersionTLS12, MasterSecret: make([]byte, 48)}
	ticket, _ := newTicketKey(key).seal(st)

	mut := append([]byte(nil), ticket...)
	mut[len(mut)-1] ^= 1
	if _, err := newTicketKey(key).open(nil, mut); err == nil {
		t.Fatal("tampered ticket accepted")
	}
	if _, err := newTicketKey(other).open(nil, ticket); err == nil {
		t.Fatal("ticket opened with wrong key")
	}
	if _, err := newTicketKey(key).open(nil, ticket[:4]); err == nil {
		t.Fatal("truncated ticket accepted")
	}
}

// Property: tickets round-trip arbitrary session state.
func TestTicketRoundTripProperty(t *testing.T) {
	var key [32]byte
	key[5] = 0xaa
	f := func(ver, suite uint16, master []byte) bool {
		if len(master) > 256 {
			master = master[:256]
		}
		st := SessionState{Version: ver, CipherSuite: suite, MasterSecret: master}
		ticket, err := newTicketKey(key).seal(st)
		if err != nil {
			return false
		}
		got, err := newTicketKey(key).open(nil, ticket)
		if err != nil {
			return false
		}
		return got.Version == ver && got.CipherSuite == suite && bytes.Equal(got.MasterSecret, master)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
