// Package minitls is a from-scratch TLS 1.2/1.3 implementation whose
// software stack is re-engineered for asynchronous crypto offload, in the
// way the QTLS paper re-engineers OpenSSL (§3, §4):
//
//   - every crypto operation (RSA, ECDSA, ECDH, PRF, HKDF, record cipher)
//     is routed through a pluggable Provider, so an accelerator engine can
//     intercept it;
//   - the server handshake is an explicit state machine whose states are
//     fine-grained enough that a paused offload job can be resumed without
//     re-executing completed steps (the "careful skipping" of Fig. 5);
//   - both async implementations from §4.1 are supported: fiber async
//     (AsyncModeFiber, the OpenSSL 1.1.0 ASYNC_JOB design) and stack async
//     (AsyncModeStack, the original intrusive design);
//   - Handshake/Read/Write surface ErrWantAsync (the paper's
//     SSL_ERROR_WANT_ASYNC) and ErrWantRead so an event-driven application
//     can multiplex thousands of connections in one goroutine.
//
// The wire format follows the TLS 1.2/1.3 message layouts closely enough
// to exercise the same computational structure (message flights, transcript
// hashing, key schedules, 16 KB record fragmentation). A crypto/tls client
// completes TLS 1.2 ECDHE-RSA AES-128-CBC-SHA handshakes, full and
// ticket-resumed, with the server (interop_test.go); the TLS 1.3
// extensions this stack's client sends (supported_versions, key_share)
// keep encodings of their own. DESIGN.md records the substitution.
package minitls

import (
	"crypto"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"
	"time"

	"qtls/internal/asynclib"
)

// TLS protocol versions.
const (
	VersionTLS12 uint16 = 0x0303
	VersionTLS13 uint16 = 0x0304
)

// VersionName returns a human-readable protocol version name.
func VersionName(v uint16) string {
	switch v {
	case VersionTLS12:
		return "TLS 1.2"
	case VersionTLS13:
		return "TLS 1.3"
	default:
		return fmt.Sprintf("0x%04x", v)
	}
}

// Cipher suites (IANA identifiers). These are the suites the paper
// evaluates: TLS-RSA, ECDHE-RSA and ECDHE-ECDSA with AES128-SHA record
// protection for TLS 1.2, and AES-128-GCM-SHA256 for TLS 1.3.
const (
	TLS_RSA_WITH_AES_128_CBC_SHA         uint16 = 0x002f
	TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA   uint16 = 0xc013
	TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA uint16 = 0xc009
	TLS_AES_128_GCM_SHA256               uint16 = 0x1301
)

// CipherSuiteName returns the conventional name of a suite.
func CipherSuiteName(id uint16) string {
	switch id {
	case TLS_RSA_WITH_AES_128_CBC_SHA:
		return "TLS-RSA-AES128-SHA"
	case TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA:
		return "ECDHE-RSA-AES128-SHA"
	case TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA:
		return "ECDHE-ECDSA-AES128-SHA"
	case TLS_AES_128_GCM_SHA256:
		return "TLS13-AES128-GCM-SHA256"
	default:
		return fmt.Sprintf("suite(0x%04x)", id)
	}
}

type keyExchange int

const (
	kxRSA keyExchange = iota
	kxECDHERSA
	kxECDHEECDSA
	kxTLS13
)

func suiteKeyExchange(id uint16) (keyExchange, bool) {
	switch id {
	case TLS_RSA_WITH_AES_128_CBC_SHA:
		return kxRSA, true
	case TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA:
		return kxECDHERSA, true
	case TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA:
		return kxECDHEECDSA, true
	case TLS_AES_128_GCM_SHA256:
		return kxTLS13, true
	default:
		return 0, false
	}
}

// Sentinel errors surfaced to event-driven applications. These are the
// moral equivalents of OpenSSL's SSL_ERROR_WANT_READ and the new
// SSL_ERROR_WANT_ASYNC / SSL_ERROR_WANT_ASYNC_JOB codes QTLS adds (§4.2).
var (
	// ErrWantRead means the operation needs more data from the transport;
	// retry when the socket is readable.
	ErrWantRead = errors.New("minitls: want read")
	// ErrWantAsync means an async crypto request was submitted and the
	// offload job paused; retry the same call once the async event for
	// this connection fires (§3.2 pre-processing).
	ErrWantAsync = errors.New("minitls: want async (crypto request in flight)")
	// ErrWantAsyncRetry means the crypto submission failed (accelerator
	// request ring full); retry the same call later (§3.2 special case).
	ErrWantAsyncRetry = errors.New("minitls: want async retry (submission failed)")
	// ErrClosed is returned on use after Close.
	ErrClosed = errors.New("minitls: connection closed")
)

// IsBusy reports whether err is one of the retriable in-progress
// conditions (want-read / want-async / want-retry).
func IsBusy(err error) bool {
	return errors.Is(err, ErrWantRead) || errors.Is(err, ErrWantAsync) || errors.Is(err, ErrWantAsyncRetry)
}

// wouldBlocker is implemented by transports with non-blocking semantics
// (internal/netpoll); a Read returning an error whose WouldBlock method
// reports true translates into ErrWantRead at the TLS layer.
type wouldBlocker interface{ WouldBlock() bool }

// isWouldBlock asserts the transport's own error first: errors.As needs its
// target on the heap, which would cost an allocation per would-block read.
func isWouldBlock(err error) bool {
	if wb, ok := err.(wouldBlocker); ok {
		return wb.WouldBlock()
	}
	var wb wouldBlocker
	return errors.As(err, &wb) && wb.WouldBlock()
}

// AsyncMode selects how the server-side stack suspends offload jobs.
type AsyncMode int

const (
	// AsyncModeOff disables crypto pause: provider calls complete
	// synchronously (the SW and straight-offload QAT+S configurations).
	AsyncModeOff AsyncMode = iota
	// AsyncModeFiber wraps each handshake/write drive in an ASYNC_JOB
	// fiber; crypto calls pause the fiber (§4.1 "fiber async", Fig. 6).
	AsyncModeFiber
	// AsyncModeStack uses the state-flag design: crypto calls return
	// ErrWantAsync and re-entry skips to result consumption (§4.1
	// "stack async", Fig. 5).
	AsyncModeStack
)

// String returns the mode name.
func (m AsyncMode) String() string {
	switch m {
	case AsyncModeOff:
		return "off"
	case AsyncModeFiber:
		return "fiber"
	case AsyncModeStack:
		return "stack"
	default:
		return fmt.Sprintf("AsyncMode(%d)", int(m))
	}
}

// OpKind classifies crypto operations for providers and counters.
type OpKind int

const (
	// KindRSA is an RSA private-key operation (decrypt or sign).
	KindRSA OpKind = iota
	// KindECDSA is an ECDSA signature.
	KindECDSA
	// KindECDH covers ECDH(E) key generation and shared-secret derivation.
	KindECDH
	// KindPRF is a TLS 1.2 PRF derivation.
	KindPRF
	// KindHKDF is a TLS 1.3 HKDF derivation. Providers must run HKDF
	// synchronously: the QAT Engine cannot offload it (§5.2), and minitls
	// batches several HKDF calls inside one handshake state relying on
	// this invariant.
	KindHKDF
	// KindCipher is a symmetric record protection operation.
	KindCipher

	numOpKinds = 6
)

// String returns the kind name.
func (k OpKind) String() string {
	switch k {
	case KindRSA:
		return "rsa"
	case KindECDSA:
		return "ecdsa"
	case KindECDH:
		return "ecdh"
	case KindPRF:
		return "prf"
	case KindHKDF:
		return "hkdf"
	case KindCipher:
		return "cipher"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Asymmetric reports whether the kind is an asymmetric-key calculation.
func (k OpKind) Asymmetric() bool {
	return k == KindRSA || k == KindECDSA || k == KindECDH
}

// OpCounts counts completed crypto operations by kind. It backs the
// reproduction of Table 1 and the engine's in-flight bookkeeping tests.
type OpCounts struct {
	counts [numOpKinds]atomic.Int64
}

// Add records n completed operations of kind k.
func (o *OpCounts) Add(k OpKind, n int64) { o.counts[k].Add(n) }

// Get returns the count for kind k.
func (o *OpCounts) Get(k OpKind) int64 { return o.counts[k].Load() }

// Reset zeroes all counts.
func (o *OpCounts) Reset() {
	for i := range o.counts {
		o.counts[i].Store(0)
	}
}

// Table1Row summarizes counts in the shape of the paper's Table 1:
// RSA, ECC (ECDSA+ECDH) and PRF/HKDF operations.
func (o *OpCounts) Table1Row() (rsaN, ecc, prfHKDF int64) {
	return o.Get(KindRSA),
		o.Get(KindECDSA) + o.Get(KindECDH),
		o.Get(KindPRF) + o.Get(KindHKDF)
}

// Provider executes crypto work on behalf of the TLS stack. The work
// function performs the actual computation; the provider decides *where*
// and *when* it runs:
//
//   - SoftwareProvider runs it inline (CPU, AES-NI-style software path);
//   - the QAT engine provider (internal/engine) submits it to the
//     simulated accelerator and either pauses the calling fiber
//     (AsyncModeFiber), returns ErrWantAsync (AsyncModeStack), or busy
//     waits (straight offload).
//
// Providers must run KindHKDF work synchronously (see OpKind).
//
// work may run more than once, and concurrently: a retry runs it again, and
// a device run that outlives the op's deadline races the software
// fallback. Every run must be free to read the op's arguments, and each
// returns a result of its own. work may run after Do has returned only if
// the provider set call.Abandoned: until then the connection may reuse
// the storage work reads for its next op.
type Provider interface {
	// Name identifies the provider in logs and stats.
	Name() string
	// Do executes work of the given kind for the connection operation
	// context call.
	Do(call *OpCall, kind OpKind, work func() (any, error)) (any, error)
}

// OpCall carries per-connection async context into a Provider.
type OpCall struct {
	// Mode is the connection's async mode.
	Mode AsyncMode
	// Job is the current fiber (AsyncModeFiber only); the provider pauses
	// it after submitting a crypto request and the application resumes it
	// when the async event fires.
	Job *asynclib.Job
	// Stack is the connection's stack-async operation state
	// (AsyncModeStack only).
	Stack *asynclib.StackOp
	// WaitCtx is the connection-level wait context carrying the
	// notification plumbing (FD or kernel-bypass callback). The engine's
	// response callback uses it to deliver the async event.
	WaitCtx *asynclib.WaitCtx
	// SubmitFailed is set by the provider when the most recent crypto
	// submission failed (accelerator ring full) and the paused job must be
	// rescheduled for a retry rather than waiting for a response (§3.2).
	SubmitFailed bool
	// Cancelled is set by the application (Conn.CancelAsync) when the
	// connection is being torn down while an offload is in flight: the
	// next provider re-entry must settle the operation as abandoned
	// instead of re-parking, so device inflight accounting is released
	// even when no response will ever arrive.
	Cancelled bool
	// Abandoned is set by the provider when it settles an offloaded
	// operation by its deadline or by a cancel while the device still
	// holds it. It is the only way work may run after Do returns: a late
	// run reads the op's arguments from the connection. Once it is set it
	// stays set, every later op of the connection takes fresh storage for
	// its arguments, and the connection is never recycled
	// (Conn.OpAbandoned).
	Abandoned bool

	// result/err hand the crypto result across a fiber pause point.
	result any
	err    error
}

// SetResult records the async result; providers call this from the
// response path before resuming/notifying.
func (c *OpCall) SetResult(v any, err error) {
	c.result = v
	c.err = err
}

// Result returns the recorded async result.
func (c *OpCall) Result() (any, error) { return c.result, c.err }

// SoftwareProvider computes every operation inline on the calling
// goroutine — the paper's SW configuration ("software calculation with
// modern AES-NI instructions").
type SoftwareProvider struct{}

// Name implements Provider.
func (SoftwareProvider) Name() string { return "software" }

// Do implements Provider by running work synchronously.
func (SoftwareProvider) Do(_ *OpCall, _ OpKind, work func() (any, error)) (any, error) {
	return work()
}

// Identity is a server identity: a private key and its certificate chain.
type Identity struct {
	// PrivateKey is an *rsa.PrivateKey or *ecdsa.PrivateKey.
	PrivateKey crypto.Signer
	// CertDER is the DER-encoded certificate chain, leaf first.
	CertDER [][]byte
}

// Leaf parses and returns the leaf certificate.
func (id *Identity) Leaf() (*x509.Certificate, error) {
	if len(id.CertDER) == 0 {
		return nil, errors.New("minitls: identity has no certificate")
	}
	return x509.ParseCertificate(id.CertDER[0])
}

func selfSigned(key crypto.Signer, cn string) ([]byte, error) {
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: cn},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * 365 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		BasicConstraintsValid: true,
	}
	return x509.CreateCertificate(rand.Reader, tmpl, tmpl, key.Public(), key)
}

// NewRSAIdentity generates a self-signed RSA identity with the given
// modulus size (the paper uses 2048-bit keys throughout).
func NewRSAIdentity(bits int) (*Identity, error) {
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	der, err := selfSigned(key, "qtls-test-rsa")
	if err != nil {
		return nil, err
	}
	return &Identity{PrivateKey: key, CertDER: [][]byte{der}}, nil
}

// NewECDSAIdentity generates a self-signed ECDSA identity on the given
// curve (the paper evaluates P-256 and P-384 among others).
func NewECDSAIdentity(curve elliptic.Curve) (*Identity, error) {
	key, err := ecdsa.GenerateKey(curve, rand.Reader)
	if err != nil {
		return nil, err
	}
	der, err := selfSigned(key, "qtls-test-ecdsa")
	if err != nil {
		return nil, err
	}
	return &Identity{PrivateKey: key, CertDER: [][]byte{der}}, nil
}

// Config configures a Conn. A Config may be shared between connections.
type Config struct {
	// Identity is the server identity (required server-side unless
	// GetIdentity is set).
	Identity *Identity
	// GetIdentity, when non-nil, selects the server identity from the
	// ClientHello's server_name (SNI) — virtual hosting, the way a CDN
	// TLS terminator fronts many sites. Returning nil falls back to
	// Identity.
	GetIdentity func(serverName string) *Identity
	// Provider executes crypto work; nil means SoftwareProvider.
	Provider Provider
	// AsyncMode selects the crypto pause implementation (server side).
	AsyncMode AsyncMode
	// MaxVersion caps the negotiated protocol version; 0 means TLS 1.2
	// (the paper's primary protocol).
	MaxVersion uint16
	// CipherSuites lists acceptable suites in preference order; nil means
	// all supported suites for the negotiated version.
	CipherSuites []uint16
	// Curve is the ECDHE group; nil means P-256 (the OpenSSL default the
	// paper uses).
	Curve ecdh.Curve
	// SessionCache enables session-ID resumption on the server.
	SessionCache *SessionCache
	// TicketKey, when non-nil, enables session-ticket resumption.
	TicketKey *[32]byte
	// TicketKeys, when non-nil, enables session-ticket resumption backed
	// by a shared rotating key ring; the ring's newest key seals and all
	// retained keys open, so workers sharing one ring resume each other's
	// tickets across rotations. Takes precedence over TicketKey.
	TicketKeys *TicketKeyRing
	// Session, on the client, resumes the given session.
	Session *ClientSession
	// RequestTicket, on the client, asks the server for a session ticket.
	RequestTicket bool
	// ServerName, on the client, is sent in the SNI extension.
	ServerName string
	// Rand is the entropy source; nil means crypto/rand.Reader.
	Rand io.Reader
	// OpCounter, when non-nil, counts completed crypto operations.
	OpCounter *OpCounts
}

func (c *Config) provider() Provider {
	if c.Provider == nil {
		return SoftwareProvider{}
	}
	return c.Provider
}

func (c *Config) rand() io.Reader {
	if c.Rand == nil {
		return rand.Reader
	}
	return c.Rand
}

func (c *Config) maxVersion() uint16 {
	if c.MaxVersion == 0 {
		return VersionTLS12
	}
	return c.MaxVersion
}

func (c *Config) curve() ecdh.Curve {
	if c.Curve == nil {
		return ecdh.P256()
	}
	return c.Curve
}

func (c *Config) suites(version uint16) []uint16 {
	if c.CipherSuites != nil {
		return c.CipherSuites
	}
	if version == VersionTLS13 {
		return []uint16{TLS_AES_128_GCM_SHA256}
	}
	return []uint16{
		TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA,
		TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA,
		TLS_RSA_WITH_AES_128_CBC_SHA,
	}
}

// clientSuites is the ClientHello offer: a 1.3-capable client also offers
// the 1.2 suites so version fallback can negotiate a cipher.
func (c *Config) clientSuites(maxVersion uint16) []uint16 {
	if c.CipherSuites != nil {
		return c.CipherSuites
	}
	if maxVersion >= VersionTLS13 {
		return append(c.suites(VersionTLS13), c.suites(VersionTLS12)...)
	}
	return c.suites(VersionTLS12)
}
