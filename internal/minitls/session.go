package minitls

import (
	"container/list"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"io"
	"sync"
)

// SessionState is the server-side state needed to resume a TLS 1.2
// session: an abbreviated handshake reuses the master secret and skips
// the asymmetric-key calculations (§2.1 "session resumption").
type SessionState struct {
	Version      uint16
	CipherSuite  uint16
	MasterSecret []byte
}

func (s *SessionState) marshal() []byte {
	var w builder
	w.u16(s.Version)
	w.u16(s.CipherSuite)
	w.vec16(s.MasterSecret)
	return w.bytes()
}

func (s *SessionState) unmarshal(b []byte) error {
	r := reader{b: b}
	var err error
	if s.Version, err = r.u16(); err != nil {
		return err
	}
	if s.CipherSuite, err = r.u16(); err != nil {
		return err
	}
	if s.MasterSecret, err = r.vec16(); err != nil {
		return err
	}
	if !r.empty() {
		return errDecode
	}
	return nil
}

// ClientSession is what the client stores after a handshake to attempt
// resumption later (session ID, ticket, or both).
type ClientSession struct {
	SessionID    []byte
	Ticket       []byte
	Version      uint16
	CipherSuite  uint16
	MasterSecret []byte
}

// SessionCache is a bounded LRU mapping session IDs to session state,
// used for server-side session-ID resumption. It is safe for concurrent
// use by multiple server workers.
type SessionCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recent

	hits, misses int64
}

type cacheEntry struct {
	key   string
	state SessionState
}

// NewSessionCache returns a cache bounded to max sessions (default 1024
// when max <= 0).
func NewSessionCache(max int) *SessionCache {
	if max <= 0 {
		max = 1024
	}
	return &SessionCache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Put stores state under the given session ID.
func (sc *SessionCache) Put(sessionID []byte, state SessionState) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	key := string(sessionID)
	if el, ok := sc.entries[key]; ok {
		el.Value.(*cacheEntry).state = state
		sc.order.MoveToFront(el)
		return
	}
	sc.entries[key] = sc.order.PushFront(&cacheEntry{key: key, state: state})
	for sc.order.Len() > sc.max {
		oldest := sc.order.Back()
		sc.order.Remove(oldest)
		delete(sc.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Get looks up a session by ID.
func (sc *SessionCache) Get(sessionID []byte) (SessionState, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	el, ok := sc.entries[string(sessionID)]
	if !ok {
		sc.misses++
		return SessionState{}, false
	}
	sc.hits++
	sc.order.MoveToFront(el)
	return el.Value.(*cacheEntry).state, true
}

// Len returns the number of cached sessions.
func (sc *SessionCache) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.order.Len()
}

// Stats returns hit/miss counters.
func (sc *SessionCache) Stats() (hits, misses int64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.hits, sc.misses
}

// ticketKey is a session-ticket key with its AES-128-GCM built once: the
// first 16 bytes key the cipher, the last 16 are the additional data.
// Ticket protection is a cheap symmetric operation done in software even
// under QTLS. A ticketKey is immutable and safe for concurrent use.
type ticketKey struct {
	key  [32]byte
	aead cipher.AEAD
}

func newTicketKey(key [32]byte) *ticketKey {
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		panic(err) // unreachable: a 16-byte AES key is always valid
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err) // unreachable: AES has GCM's block size
	}
	return &ticketKey{key: key, aead: aead}
}

// seal encrypts session state into an opaque session ticket: a random
// nonce, then the sealed state.
func (k *ticketKey) seal(state SessionState) ([]byte, error) {
	plain := state.marshal()
	ns := k.aead.NonceSize()
	out := make([]byte, ns, ns+len(plain)+k.aead.Overhead())
	nonce := out[:ns]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	return k.aead.Seal(out, nonce, plain, k.key[16:]), nil
}

// open decrypts and validates a session ticket, into dst's storage when
// the plaintext fits; the state's MasterSecret aliases it.
func (k *ticketKey) open(dst, ticket []byte) (SessionState, error) {
	var state SessionState
	ns := k.aead.NonceSize()
	if len(ticket) < ns {
		return state, errors.New("minitls: ticket too short")
	}
	plain, err := k.aead.Open(dst[:0], ticket[:ns], ticket[ns:], k.key[16:])
	if err != nil {
		return state, errors.New("minitls: ticket authentication failed")
	}
	if err := state.unmarshal(plain); err != nil {
		return state, err
	}
	return state, nil
}
