package minitls

import (
	"crypto/rand"
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// TicketKeyRing is a shared, rotating set of session-ticket keys. All of
// a server's workers point at one ring (the per-worker Config copies
// share the pointer), so a ticket sealed by any worker resumes on any
// other — the cross-worker resumption that makes a resumption-heavy,
// sym-dominated workload reachable with SO_REUSEPORT accept sharding.
//
// The newest key seals; every retained key still opens, so tickets
// issued before a rotation stay valid until their key ages out of the
// ring. Rotation is cheap (the new key's AEAD is built outside the lock,
// then a short lock swaps in the new key list) and safe to run from any
// goroutine.
type TicketKeyRing struct {
	mu sync.RWMutex
	// keys[0] seals; all open. Each key's AEAD is built once, when the key
	// joins the ring. A rotation publishes a new slice and never writes an
	// old one, so a reader may keep the slice it loaded.
	keys   []*ticketKey
	retain int
	gen    int64
}

// NewTicketKeyRing builds a ring seeded with initial, retaining at most
// retain keys (minimum 2: the sealing key plus one predecessor, so a
// rotation never instantly invalidates outstanding tickets).
func NewTicketKeyRing(initial [32]byte, retain int) *TicketKeyRing {
	if retain < 2 {
		retain = 2
	}
	return &TicketKeyRing{keys: []*ticketKey{newTicketKey(initial)}, retain: retain}
}

// GenerateTicketKeyRing builds a ring seeded with a random key.
func GenerateTicketKeyRing(retain int) (*TicketKeyRing, error) {
	var k [32]byte
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return nil, err
	}
	return NewTicketKeyRing(k, retain), nil
}

// Rotate prepends a fresh random sealing key, aging the oldest key out
// once the ring exceeds its retention bound.
func (r *TicketKeyRing) Rotate() error {
	var k [32]byte
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return err
	}
	r.RotateTo(k)
	return nil
}

// RotateTo prepends the given sealing key (deterministic rotation for
// tests and key-escrow deployments).
func (r *TicketKeyRing) RotateTo(key [32]byte) {
	k := newTicketKey(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys = append([]*ticketKey{k}, r.keys...)
	if len(r.keys) > r.retain {
		r.keys = r.keys[:r.retain]
	}
	r.gen++
}

// Len returns the number of keys currently able to open tickets.
func (r *TicketKeyRing) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys)
}

// Generation returns how many rotations have happened.
func (r *TicketKeyRing) Generation() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// all returns every retained key, sealing key first.
func (r *TicketKeyRing) all() []*ticketKey {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.keys
}

// lastStaticTicketKey holds the AEAD of the static Config.TicketKey used
// last. Config is copied by value (per-worker templates), so the AEAD
// cannot be cached in it; a process normally has one static key, which is
// then built once, and one that alternates between keys rebuilds on each
// switch, as every ticket once did.
var lastStaticTicketKey atomic.Pointer[ticketKey]

// staticTicketKey returns the ticketKey of c.TicketKey.
func (c *Config) staticTicketKey() *ticketKey {
	if k := lastStaticTicketKey.Load(); k != nil && k.key == *c.TicketKey {
		return k
	}
	k := newTicketKey(*c.TicketKey)
	lastStaticTicketKey.Store(k)
	return k
}

// hasTicketKey reports whether the config can seal/open session tickets
// through either the static key or a ring.
func (c *Config) hasTicketKey() bool {
	return c.TicketKeys != nil || c.TicketKey != nil
}

// sealSessionTicket seals state under the ring's current key, falling
// back to the static TicketKey — the pre-ring behavior, byte-identical
// for configs without a ring.
func (c *Config) sealSessionTicket(state SessionState) ([]byte, error) {
	if c.TicketKeys != nil {
		return c.TicketKeys.all()[0].seal(state)
	}
	if c.TicketKey == nil {
		return nil, errors.New("minitls: no ticket key configured")
	}
	return c.staticTicketKey().seal(state)
}

// openSessionTicket tries every retained ring key (newest first), then
// the static TicketKey. Tickets sealed before a rotation keep resuming
// until their key ages out. The plaintext is opened into dst's storage
// when it fits, and the state's secret aliases it.
func (c *Config) openSessionTicket(dst, ticket []byte) (SessionState, error) {
	if c.TicketKeys != nil {
		var lastErr error
		for _, k := range c.TicketKeys.all() {
			st, err := k.open(dst, ticket)
			if err == nil {
				return st, nil
			}
			lastErr = err
		}
		if c.TicketKey == nil {
			return SessionState{}, lastErr
		}
	}
	if c.TicketKey == nil {
		return SessionState{}, errors.New("minitls: no ticket key configured")
	}
	return c.staticTicketKey().open(dst, ticket)
}
