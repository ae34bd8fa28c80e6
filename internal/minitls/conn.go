package minitls

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"

	"qtls/internal/asynclib"
)

// Conn is a TLS connection over an arbitrary transport. Unlike crypto/tls,
// a Conn is single-goroutine: it is designed to be driven by an
// event-loop worker, and Handshake/Read/Write surface ErrWantRead and
// ErrWantAsync instead of blocking when the transport is non-blocking or
// an async crypto offload is in flight.
type Conn struct {
	transport io.ReadWriter
	config    *Config
	isServer  bool
	identity  *Identity // server identity (possibly selected via SNI)

	in, out halfConn
	// rawInput holds transport bytes: [:rawOff] are consumed records,
	// [rawOff:] undecoded, and the spare capacity is where fill reads. It
	// starts on rawArr, the connection's own first buffer, which it keeps
	// for its next life (Init) even when a record outgrows it.
	rawInput []byte
	rawOff   int
	rawArr   *[minRawInput]byte
	// handBuf is the reassembled handshake message stream, [:handOff]
	// consumed. A message readHandshakeMsg returns aliases it until the
	// next read, as a record aliases rawInput.
	handBuf []byte
	handOff int
	// msgBuf is where this side builds the handshake messages it sends
	// (writeMsg): each is consumed by the time writeHandshake returns, so
	// one buffer serves them all.
	msgBuf []byte
	// appData is decrypted application data not yet consumed. It aliases
	// the record opened in place in rawInput, which stays valid because
	// the next record is only read once appData is empty.
	appData []byte

	transcript hash.Hash // SHA-256 running handshake transcript
	// preMsgHash is the transcript hash before the last-read Finished
	// message, summed into preMsgSum.
	preMsgHash []byte
	preMsgSum  [sha256.Size]byte

	// Handshake state machine.
	state   hsState
	version uint16
	suite   uint16
	hsrv    serverHS // the server side's; a client leaves it zero
	hcli    *clientHS

	// Async machinery (§3.2). The wait context is shared across all async
	// jobs of the connection ("share one FD across all async jobs from the
	// same TLS connection", §4.4); it is part of the Conn, in use once
	// WaitCtx has been called. Fiber mode: job is the handle of the current
	// job, reset for each new one, and opCall.Job points at it while it is
	// live; every job runs jobFn, built once.
	opCall     OpCall
	job        asynclib.Job
	jobFn      func(*asynclib.Job) error
	stackOp    asynclib.StackOp
	waitCtx    asynclib.WaitCtx
	hasWaitCtx bool

	// The op slots: the arguments of the connection's current PRF
	// derivation and record seal, each handed to the provider as its run
	// method, bound once like jobFn. Once opCall.Abandoned is set, an
	// abandoned run may still read its slot, so every later op takes a
	// fresh one instead (ownSlot).
	prfSlot  prfOp
	prfRun   func() (any, error)
	sealSlot sealOp
	sealRun  func() (any, error)

	// flight holds the handshake records sealed since the last flush, so a
	// flight reaches the transport in one Write (see queueFlight). Nil
	// between flights and once the handshake is done, but for the moment
	// writeClosing joins a write's last record and the close-notify in it.
	flight *WireBuf

	// Pending Write progress for async re-entry: the two gathered parts,
	// the offset into their concatenation, the first record's plaintext
	// size (firstRecordLen, decided when the write starts), whether the
	// write ends with a close-notify (WritevClose), and whether a write is
	// pending.
	writeParts [2][]byte
	writeOff   int
	writeFirst int
	writeClose bool
	writing    bool
	// midTurn is set once this side has sealed an application record and
	// cleared when Read opens one from the peer: a write that starts while
	// it is clear opens a new turn of the conversation.
	midTurn bool

	handshakeDone   bool
	didResume       bool
	ticketSent      bool
	pendingCCS      bool // client peeked a CCS record (resumption detection)
	closed          bool
	closeNotifyRecv bool  // peer sent an orderly close-notify alert
	permErr         error // sticky fatal error
}

// hsState enumerates handshake state-machine states. Server and client
// share the enum; each side uses its own subset.
type hsState int

const (
	stateStart hsState = iota

	// TLS 1.2 server states. States whose handler performs exactly one
	// offloadable crypto operation are marked (crypto); they are the safe
	// re-entry points for stack async.
	stateS12ReadClientHello
	stateS12GenServerKey // (crypto: ECDH keygen)
	stateS12SignSKX      // (crypto: RSA/ECDSA sign)
	stateS12FlushHello   // send SH [+Cert+SKX] +SHD
	stateS12ReadCKE      // read ClientKeyExchange
	stateS12ProcessCKE   // (crypto: RSA decrypt | ECDH derive)
	stateS12DeriveMaster // (crypto: PRF master secret)
	stateS12DeriveKeys   // (crypto: PRF key expansion)
	stateS12ReadCCS      // read ChangeCipherSpec
	stateS12ReadFinished // read client Finished
	stateS12VerifyFin    // (crypto: PRF client verify_data)
	stateS12ComputeFin   // (crypto: PRF server verify_data)
	stateS12SendFinished // send [ticket] CCS+Finished

	// TLS 1.2 server abbreviated-handshake (resumption) states.
	stateS12ResumeKeys    // (crypto: PRF key expansion)
	stateS12ResumeSrvFin  // (crypto: PRF server verify_data)
	stateS12ResumeSend    // send SH+CCS+Finished
	stateS12ResumeReadCCS // read client CCS
	stateS12ResumeReadFin // read client Finished
	stateS12ResumeVerify  // (crypto: PRF client verify_data)

	// TLS 1.3 server states.
	stateS13ReadClientHello
	stateS13GenKey    // (crypto: ECDH keygen)
	stateS13Derive    // (crypto: ECDH derive)
	stateS13Schedule1 // HKDF batch: handshake secrets (inline-only ops)
	stateS13SignCV    // (crypto: RSA/ECDSA sign CertificateVerify)
	stateS13Flush     // send SH..Finished, derive app keys
	stateS13ReadFin   // read client Finished

	stateDone
)

// Server returns a server-side TLS connection over transport.
func Server(transport io.ReadWriter, config *Config) *Conn {
	return newConn(transport, config, true)
}

// ClientConn returns a client-side TLS connection over transport. The
// client always computes crypto synchronously in software (the paper's
// clients are s_time/ab load generators).
func ClientConn(transport io.ReadWriter, config *Config) *Conn {
	return newConn(transport, config, false)
}

func newConn(transport io.ReadWriter, config *Config, server bool) *Conn {
	c := new(Conn)
	c.Init(transport, config, server)
	return c
}

// maxKeptBuf bounds the capacity of a growable buffer (handBuf, msgBuf)
// that a connection keeps for its next life: a handshake flight fits, and
// a buffer some peer grew past it is dropped rather than pinned.
const maxKeptBuf = 4 << 10

// Init makes c a new connection over transport, in place — the one
// initialiser: Server and ClientConn call it on a new Conn, and an event
// loop that recycles connections calls it again once the last life has
// ended with Release and no offloaded operation holds c (OpAbandoned).
// The whole struct is zeroed, then an allow-list of storage is put back:
// the transcript digest (reset), the first input buffer, the handshake
// and message buffers up to maxKeptBuf, and the bound fiber job and op
// run functions. Nothing else can carry over by being forgotten.
func (c *Conn) Init(transport io.ReadWriter, config *Config, server bool) {
	if config == nil {
		config = &Config{}
	}
	transcript, rawArr, jobFn := c.transcript, c.rawArr, c.jobFn
	prfRun, sealRun := c.prfRun, c.sealRun
	handBuf, msgBuf := keptBuf(c.handBuf), keptBuf(c.msgBuf)
	*c = Conn{
		transport:  transport,
		config:     config,
		isServer:   server,
		transcript: transcript,
		rawArr:     rawArr,
		jobFn:      jobFn,
		prfRun:     prfRun,
		sealRun:    sealRun,
		handBuf:    handBuf,
		msgBuf:     msgBuf,
	}
	if c.transcript == nil {
		c.transcript = sha256.New()
	} else {
		c.transcript.Reset()
	}
}

// keptBuf is b emptied for a connection's next life, or nil when it grew
// past maxKeptBuf.
func keptBuf(b []byte) []byte {
	if cap(b) > maxKeptBuf {
		return nil
	}
	return b[:0]
}

// WaitCtx returns the connection's async wait context, putting it in use
// on first call. The event loop installs its notification scheme here.
func (c *Conn) WaitCtx() *asynclib.WaitCtx {
	if !c.hasWaitCtx {
		c.hasWaitCtx = true
		c.waitCtx.ClearFD()
	}
	return &c.waitCtx
}

// Release gives back what the connection holds from pools shared across
// connections: a buffered handshake flight and its PRF keys. The Conn
// must not be used afterwards, nor any slice it returned, until Init makes
// it a new connection. A PRF key that an offloaded operation abandoned at
// its deadline still holds stays with that operation and goes to the
// garbage collector. Release is for an event loop letting a connection go;
// a Conn that is simply dropped is collected whole.
func (c *Conn) Release() {
	c.closed = true
	c.dropFlight()
	if c.isServer {
		c.hsrv.pre.release()
		c.hsrv.master.release()
	}
	if c.hcli != nil {
		c.hcli.master.release()
	}
	c.rawInput, c.rawOff, c.appData = nil, 0, nil
}

// OpAbandoned reports whether an offloaded operation of this connection
// was abandoned: settled by its deadline or by a cancel while a device
// still held it. Such an operation may still run and read the
// connection's op slots, handshake state and write buffers, so the Conn
// must never be initialised again; it goes to the garbage collector.
func (c *Conn) OpAbandoned() bool { return c.opCall.Abandoned }

// SetAsyncCallback installs the kernel-bypass notification callback
// (mirrors SSL_set_async_callback, §4.4).
func (c *Conn) SetAsyncCallback(cb func(arg any), arg any) {
	c.WaitCtx().SetCallback(cb, arg)
}

// AsyncInFlight reports whether the connection has a paused offload job
// awaiting a crypto response.
func (c *Conn) AsyncInFlight() bool {
	if c.config.AsyncMode == AsyncModeFiber {
		return c.opCall.Job != nil
	}
	return c.stackOp.State() == asynclib.StackInflight
}

// ConnectionState summarizes the negotiated parameters.
type ConnectionState struct {
	Version           uint16
	CipherSuite       uint16
	HandshakeComplete bool
	DidResume         bool
}

// ConnectionState returns the current connection state.
func (c *Conn) ConnectionState() ConnectionState {
	return ConnectionState{
		Version:           c.version,
		CipherSuite:       c.suite,
		HandshakeComplete: c.handshakeDone,
		DidResume:         c.didResume,
	}
}

// asyncMode returns the effective async mode: only the server side
// offloads asynchronously.
func (c *Conn) asyncMode() AsyncMode {
	if !c.isServer {
		return AsyncModeOff
	}
	return c.config.AsyncMode
}

// do routes one crypto operation through the provider with the
// connection's async context attached. Completed operations are counted
// in Config.OpCounter (this backs the Table 1 reproduction).
func (c *Conn) do(kind OpKind, work func() (any, error)) (any, error) {
	call := &c.opCall
	call.Mode = c.asyncMode()
	call.Stack = &c.stackOp
	call.WaitCtx = nil
	if c.hasWaitCtx {
		call.WaitCtx = &c.waitCtx
	}
	res, err := c.config.provider().Do(call, kind, work)
	if err == nil && c.config.OpCounter != nil {
		c.config.OpCounter.Add(kind, 1)
	}
	return res, err
}

// ownSlot reports whether the next op may use its kind's slot in the
// connection, and whether it must fill it. Once an op was abandoned, a late
// run of it may still read its slot, so every op after it takes a fresh
// one, for the rest of the connection's life. A stack-async re-entry finds
// its op outstanding (submitted, ready or due for a retry) and leaves the
// slot as it is: the state re-entered computes the same arguments, and a
// run may be reading them.
func (c *Conn) ownSlot() (own, fill bool) {
	if c.opCall.Abandoned {
		return false, true
	}
	if c.prfRun == nil {
		c.prfRun, c.sealRun = c.prfSlot.run, c.sealSlot.run
	}
	return true, c.asyncMode() != AsyncModeStack || c.stackOp.State() == asynclib.StackIdle
}

// doPRF derives len(dst) bytes with the TLS 1.2 PRF through the provider
// and copies them into dst: the op and its result live in the
// connection's PRF slot, which the next derivation reuses.
func (c *Conn) doPRF(dst []byte, k *prfKey, label string, seed []byte) error {
	own, fill := c.ownSlot()
	op, run := &c.prfSlot, c.prfRun
	if !own {
		op = new(prfOp)
		run = op.run
	}
	if fill {
		*op = prfOp{key: k, label: label, seed: seed, length: len(dst)}
	}
	res, err := c.do(KindPRF, run)
	if err != nil {
		return err
	}
	copy(dst, res.(*prfOut)[:])
	return nil
}

// run executes the connection's current re-entrant operation. Its state
// says which that is: the handshake until it is done, the pending write
// after (Writev completes the handshake before it drives). Being a plain
// method, not a func value handed to drive, it costs a re-entry nothing.
func (c *Conn) run() error {
	switch {
	case c.handshakeDone:
		return c.writeRecords()
	case c.isServer:
		return c.serverHandshakeStep()
	default:
		return c.clientHandshake()
	}
}

// drive executes run under the connection's async regime:
//
//   - AsyncModeOff/AsyncModeStack: it runs on the calling goroutine; in
//     stack mode it may surface ErrWantAsync / ErrWantAsyncRetry from a
//     provider call and is re-entered on the next drive.
//   - AsyncModeFiber: it runs inside an ASYNC_JOB fiber. A paused fiber
//     maps to ErrWantAsync (or ErrWantAsyncRetry when the pause was due
//     to a failed submission); the next drive resumes it.
func (c *Conn) drive() error {
	if c.asyncMode() != AsyncModeFiber {
		return c.run()
	}
	var status asynclib.Status
	var err error
	if c.opCall.Job != nil {
		// Crypto resumption: jump back to the pause point (§3.2
		// post-processing).
		status, _, err = asynclib.StartJob(&c.job, nil)
	} else {
		if c.jobFn == nil {
			c.jobFn = func(*asynclib.Job) error { return c.run() }
		}
		c.job = asynclib.Job{}
		c.opCall.Job = &c.job
		status, _, err = asynclib.StartJob(&c.job, c.jobFn)
	}
	if status == asynclib.StatusPause {
		if c.opCall.SubmitFailed {
			return ErrWantAsyncRetry
		}
		return ErrWantAsync
	}
	c.opCall.Job = nil
	return err
}

// Handshake runs or continues the handshake. It returns nil when the
// handshake has completed, or one of ErrWantRead / ErrWantAsync /
// ErrWantAsyncRetry when it must be re-invoked later (non-blocking
// transport or async offload in flight). Any other error is fatal.
func (c *Conn) Handshake() error {
	if c.handshakeDone {
		return nil
	}
	if c.permErr != nil {
		return c.permErr
	}
	if c.closed {
		return ErrClosed
	}
	err := c.drive()
	if err == nil {
		// Done: whatever the last step sealed (the server's CCS+Finished,
		// the client's Finished) leaves now.
		err = c.flushFlight()
	}
	if err != nil && !IsBusy(err) {
		c.permErr = err
		c.dropFlight()
	}
	return err
}

// HandshakeComplete reports whether the handshake has finished.
func (c *Conn) HandshakeComplete() bool { return c.handshakeDone }

// CancelAsync marks the connection's in-flight async operation as
// abandoned. The event loop calls it when a lifecycle deadline expires
// on an offload-paused connection: the next Handshake/Read/Write
// re-entry hands the cancel flag to the provider, which settles the
// operation (releasing its inflight slot and informing the breaker)
// instead of re-parking to wait for a response that may never come.
func (c *Conn) CancelAsync() {
	c.opCall.Cancelled = true
}

// CloseNotifyReceived reports whether the peer ended the connection
// with an orderly close-notify alert (as opposed to a bare transport
// EOF or reset). Load generators use it to classify server-initiated
// clean closes — keepalive timeout, graceful drain — separately from
// failures.
func (c *Conn) CloseNotifyReceived() bool { return c.closeNotifyRecv }

// --- record I/O ---------------------------------------------------------

// minRawInput is rawInput's first capacity: a handshake flight or a small
// request fits, so short connections never grow it; a bulk reader doubles
// it up to a few records.
const minRawInput = 1024

// fill reads more transport bytes straight into rawInput's spare
// capacity. A full buffer first slides the undecoded tail down over the
// consumed records, or doubles when nothing is consumed. It translates
// would-block conditions into ErrWantRead. A buffered handshake flight is
// flushed first.
func (c *Conn) fill() error {
	// About to wait for the peer: it answers only what it has received.
	if err := c.flushFlight(); err != nil {
		return err
	}
	if len(c.rawInput) == cap(c.rawInput) {
		switch {
		case c.rawOff > 0:
			c.rawInput = c.rawInput[:copy(c.rawInput, c.rawInput[c.rawOff:])]
			c.rawOff = 0
		case c.rawInput == nil:
			if c.rawArr == nil {
				c.rawArr = new([minRawInput]byte)
			}
			c.rawInput = c.rawArr[:0]
		default:
			// rawArr stays with the connection for its next life; the grown
			// buffer does not.
			grown := make([]byte, len(c.rawInput), 2*cap(c.rawInput))
			copy(grown, c.rawInput)
			c.rawInput = grown
		}
	}
	n, err := c.transport.Read(c.rawInput[len(c.rawInput):cap(c.rawInput)])
	if n > 0 {
		c.rawInput = c.rawInput[:len(c.rawInput)+n]
		return nil
	}
	if err == nil {
		return nil
	}
	if isWouldBlock(err) {
		return ErrWantRead
	}
	if errors.Is(err, io.EOF) && len(c.rawInput) > c.rawOff {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readRecord returns the next record, decrypted in place in rawInput and
// consumed by offset: the payload is valid until the next readRecord, and
// every caller copies or finishes with it before then. Incoming records
// are decrypted inline in software: QTLS pauses on the receive path too
// (ngx_ssl_handle_recv), but the evaluation's offload traffic is dominated
// by the send path; DESIGN.md records this simplification.
func (c *Conn) readRecord() (uint8, []byte, error) {
	for {
		if in := c.rawInput[c.rawOff:]; len(in) >= recordHeaderLen {
			recLen := recordHeaderLen + int(binary.BigEndian.Uint16(in[3:5]))
			if recLen > recordHeaderLen+maxCiphertext {
				return 0, nil, errRecordOverflow
			}
			if len(in) >= recLen {
				typ, payload, err := c.in.protection().open(c.in.seq, in[0], in[recordHeaderLen:recLen])
				if err != nil {
					return 0, nil, err
				}
				c.in.seq++
				if c.rawOff += recLen; c.rawOff == len(c.rawInput) {
					// Drained: the next fill starts over at the front (it
					// runs inside the next readRecord, after payload's life).
					c.rawInput, c.rawOff = c.rawInput[:0], 0
				}
				if typ == recordAlert {
					if len(payload) != 2 {
						return 0, nil, errDecode
					}
					if payload[1] == 0 {
						return 0, nil, errCloseNotify
					}
					return 0, nil, &alertError{level: payload[0], desc: payload[1]}
				}
				return typ, payload, nil
			}
		}
		if err := c.fill(); err != nil {
			return 0, nil, err
		}
	}
}

// The two fixed record payloads this stack sends. Sealing reads them
// through an interface, so a literal per call would be a heap allocation.
var (
	ccsPayload         = []byte{1}    // ChangeCipherSpec
	closeNotifyPayload = []byte{1, 0} // warning-level close_notify alert
)

// writeRecord seals one record inline (handshake traffic, CCS, alerts) and
// writes it — into the flight buffer until the handshake is done, to the
// transport after. Application data goes through Writev so the cipher work
// can be offloaded.
func (c *Conn) writeRecord(typ uint8, payload []byte) error {
	w, err := sealRecord(c.out.protection(), c.out.seq, typ, payload, nil, c.config.rand())
	if err != nil {
		return err
	}
	c.out.seq++
	if !c.handshakeDone {
		return c.queueFlight(w)
	}
	return c.writeSealed(w)
}

// writeSealed hands one sealed record to the transport and only then
// returns its buffer to the pool: the transport reads w until Write
// returns and, being an io.Writer, keeps nothing of it afterwards
// (netpoll.Conn copies the unsent tail).
func (c *Conn) writeSealed(w *WireBuf) error {
	_, err := c.transport.Write(w.Bytes())
	PutWireBuf(w)
	return err
}

// queueFlight appends the sealed record w to the flight buffer,
// taking ownership of w. The first record of a flight becomes the buffer;
// later ones are copied in behind it and their own buffer goes back to the
// pool. A record that does not fit sends what is buffered and starts over.
// The flight leaves in one transport Write at the next flushFlight: before
// the transport is read (fill), when the handshake completes, on Close —
// and not when a step pauses on an offload, so a flight that straddles
// ErrWantAsync (ServerHello, two PRF offloads, CCS+Finished) is still one
// segment.
func (c *Conn) queueFlight(w *WireBuf) error {
	f := c.flight
	if f != nil && f.n+w.n > len(f.b) {
		if err := c.flushFlight(); err != nil {
			PutWireBuf(w)
			return err
		}
		f = nil
	}
	if f == nil {
		c.flight = w
		return nil
	}
	f.n += copy(f.b[f.n:], w.Bytes())
	PutWireBuf(w)
	return nil
}

// flushFlight writes the buffered flight, if any, in one transport Write.
func (c *Conn) flushFlight() error {
	if c.flight == nil {
		return nil
	}
	w := c.flight
	c.flight = nil
	return c.writeSealed(w)
}

// dropFlight abandons the buffered flight unsent: after a fatal error the
// peer is owed nothing more. The transport never saw the buffer, so it can
// go straight back to the pool.
func (c *Conn) dropFlight() {
	if c.flight != nil {
		PutWireBuf(c.flight)
		c.flight = nil
	}
}

// writeMsg writes a handshake message built in msgBuf and keeps the
// buffer, grown if it had to be, for the next one.
func (c *Conn) writeMsg(msg []byte) error {
	c.msgBuf = msg[:0]
	return c.writeHandshake(msg)
}

// writeHandshake writes handshake message bytes (already framed) and
// extends the transcript.
func (c *Conn) writeHandshake(msg []byte) error {
	c.transcript.Write(msg)
	for len(msg) > 0 {
		n := len(msg)
		if n > MaxPlaintext {
			n = MaxPlaintext
		}
		if err := c.writeRecord(recordHandshake, msg[:n]); err != nil {
			return err
		}
		msg = msg[n:]
	}
	return nil
}

// readHandshakeMsg returns the next handshake message (type, body). It
// buffers partial messages across records. CCS records are rejected here;
// states that expect CCS use readChangeCipherSpec.
//
// The body aliases handBuf, consumed by offset: it is valid until the next
// read of a handshake message or record, and a caller copies whatever it
// keeps past that.
func (c *Conn) readHandshakeMsg() (uint8, []byte, error) {
	for {
		if in := c.handBuf[c.handOff:]; len(in) >= 4 {
			n := int(in[1])<<16 | int(in[2])<<8 | int(in[3])
			if len(in) >= 4+n {
				msg := in[: 4+n : 4+n]
				if c.handOff += 4 + n; c.handOff == len(c.handBuf) {
					// Drained: the next record starts over at the front.
					c.handBuf, c.handOff = c.handBuf[:0], 0
				}
				if msg[0] == typeFinished {
					// Finished verifies the transcript *before* itself.
					c.preMsgHash = c.transcript.Sum(c.preMsgSum[:0])
				}
				c.transcript.Write(msg)
				return msg[0], msg[4:], nil
			}
		}
		typ, payload, err := c.readRecord()
		if err != nil {
			return 0, nil, err
		}
		switch typ {
		case recordHandshake:
			c.appendHandshake(payload)
		case recordApplicationData:
			return 0, nil, errors.New("minitls: application data during handshake")
		default:
			return 0, nil, fmt.Errorf("minitls: unexpected record type %d during handshake", typ)
		}
	}
}

// appendHandshake adds a handshake record's payload to handBuf, first
// sliding the unconsumed tail down over the messages already returned.
func (c *Conn) appendHandshake(payload []byte) {
	if c.handOff > 0 {
		c.handBuf = c.handBuf[:copy(c.handBuf, c.handBuf[c.handOff:])]
		c.handOff = 0
	}
	c.handBuf = append(c.handBuf, payload...)
}

// peekHandshakeType returns the type of the next buffered handshake
// message without consuming it, reading records as needed.
func (c *Conn) peekHandshakeType() (uint8, error) {
	for {
		if len(c.handBuf) > c.handOff {
			return c.handBuf[c.handOff], nil
		}
		typ, payload, err := c.readRecord()
		if err != nil {
			return 0, err
		}
		if typ != recordHandshake {
			return 0, fmt.Errorf("minitls: unexpected record type %d during handshake", typ)
		}
		c.appendHandshake(payload)
	}
}

// readChangeCipherSpec consumes a CCS record.
func (c *Conn) readChangeCipherSpec() error {
	typ, payload, err := c.readRecord()
	if err != nil {
		return err
	}
	if typ != recordChangeCipherSpec || len(payload) != 1 || payload[0] != 1 {
		return errors.New("minitls: expected ChangeCipherSpec")
	}
	return nil
}

// transcriptHash returns the SHA-256 of the handshake transcript so far.
func (c *Conn) transcriptHash() []byte {
	return c.transcript.Sum(nil)
}

// transcriptSum is transcriptHash summed into dst.
func (c *Conn) transcriptSum(dst *[sha256.Size]byte) []byte {
	return c.transcript.Sum(dst[:0])
}

// --- application data ----------------------------------------------------

// Read returns decrypted application data. It completes the handshake
// first if necessary and surfaces the same retriable errors as Handshake.
// A close-notify alert from the peer yields io.EOF.
func (c *Conn) Read(p []byte) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	if !c.handshakeDone {
		if err := c.Handshake(); err != nil {
			return 0, err
		}
	}
	for len(c.appData) == 0 {
		typ, payload, err := c.readRecord()
		if err != nil {
			if errors.Is(err, errCloseNotify) {
				c.closeNotifyRecv = true
				return 0, io.EOF
			}
			if errors.Is(err, io.EOF) {
				return 0, io.EOF
			}
			return 0, err
		}
		switch typ {
		case recordApplicationData:
			c.appData = payload
			c.midTurn = false
		case recordHandshake:
			// Post-handshake messages (TLS 1.3 NewSessionTicket is
			// captured for resumption; anything else is ignored).
			c.appendHandshake(payload)
			c.drainPostHandshake()
		default:
			return 0, fmt.Errorf("minitls: unexpected record type %d", typ)
		}
	}
	n := copy(p, c.appData)
	c.appData = c.appData[n:]
	return n, nil
}

func (c *Conn) drainPostHandshake() {
	for in := c.handBuf[c.handOff:]; len(in) >= 4; in = c.handBuf[c.handOff:] {
		n := int(in[1])<<16 | int(in[2])<<8 | int(in[3])
		if len(in) < 4+n {
			return
		}
		typ := in[0]
		body := bytes.Clone(in[4 : 4+n]) // a captured ticket outlives handBuf
		c.handOff += 4 + n

		// TLS 1.3 client: capture NewSessionTicket for resumption.
		if typ == typeNewSessionTicket && !c.isServer && c.version == VersionTLS13 && c.hcli != nil {
			var nst newSessionTicketMsg
			if err := nst.unmarshal(body); err == nil && len(c.hcli.resMaster) > 0 {
				c.hcli.session13 = &ClientSession{
					Ticket:       nst.ticket,
					Version:      VersionTLS13,
					CipherSuite:  c.suite,
					MasterSecret: resumptionPSKClient(c.hcli.resMaster),
				}
			}
		}
	}
}

// Write encrypts and sends application data, fragmenting into 16 KB
// records, the first of a new turn cut to one TCP segment
// (firstRecordLen). Record protection is routed through the provider as
// KindCipher work, so the QAT engine can offload it (this is the traffic
// measured in Fig. 10). On ErrWantAsync / ErrWantAsyncRetry the caller
// must call Write again with the same buffer once the async event fires;
// progress is kept internally. On success it returns len(p).
func (c *Conn) Write(p []byte) (int, error) { return c.Writev(p, nil) }

// Writev is Write of the concatenation a‖b without building it: each
// record is gathered from the two parts as it is sealed, and records are
// cut at exactly the offsets Write(append(a, b...)) would cut them. Both
// parts must stay unchanged until Writev has returned a non-busy result;
// a re-entry must pass the same two slices.
func (c *Conn) Writev(a, b []byte) (int, error) { return c.writev(a, b, false) }

// WritevClose is Writev followed by Close, with the close-notify alert
// sealed behind the write's last record and sent in the same transport
// Write. A re-entry must call WritevClose again.
func (c *Conn) WritevClose(a, b []byte) (int, error) {
	n, err := c.writev(a, b, true)
	if err == nil && !c.closed {
		err = c.Close() // an empty write: no record for the alert to join
	}
	return n, err
}

func (c *Conn) writev(a, b []byte, closing bool) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	if !c.handshakeDone {
		if err := c.Handshake(); err != nil {
			return 0, err
		}
	}
	if !c.writing {
		c.writeParts, c.writeOff, c.writing = [2][]byte{a, b}, 0, true
		c.writeFirst, c.writeClose = c.firstRecordLen(len(a)+len(b)), closing
	} else if !sameSlice(a, c.writeParts[0]) || !sameSlice(b, c.writeParts[1]) || closing != c.writeClose {
		return 0, errors.New("minitls: Write re-entered with a different buffer")
	}
	err := c.drive()
	if IsBusy(err) {
		return 0, err
	}
	c.writeParts, c.writeOff, c.writing = [2][]byte{}, 0, false
	if err != nil {
		c.permErr = err
		return 0, err
	}
	return len(a) + len(b), nil
}

// tcpMSSEstimate is crypto/tls's conservative TCP segment size: the IPv6
// minimum MTU less an IPv6 header and a TCP header with timestamps.
const tcpMSSEstimate = 1208

// firstRecordLen is the plaintext size of the first record of a write of
// total bytes. A write that opens a new turn — the peer has sent
// application data since this side last sent any, or nothing was sent
// yet — and needs more than one record starts with a record that fits one
// TCP segment: the first bytes of a response wait for one small seal and
// one small open, not 16 KB of each. Every other record is MaxPlaintext.
// Unlike crypto/tls, the cut restarts on every turn, and the record after
// it is full size at once.
func (c *Conn) firstRecordLen(total int) int {
	if c.midTurn || total <= MaxPlaintext {
		return MaxPlaintext
	}
	return tcpMSSEstimate - recordHeaderLen - c.out.protection().overhead()
}

// sameSlice reports whether x and y are the same memory: same first
// element and same length.
func sameSlice(x, y []byte) bool {
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

// writeRecords seals and sends the pending write from writeOff on, one
// record per KindCipher operation.
func (c *Conn) writeRecords() error {
	a, b := c.writeParts[0], c.writeParts[1]
	for total := len(a) + len(b); c.writeOff < total; {
		limit := MaxPlaintext
		if c.writeOff == 0 {
			limit = c.writeFirst
		}
		n := min(total-c.writeOff, limit)
		// The record covers [writeOff, writeOff+n) of a‖b.
		var p0, p1 []byte
		if c.writeOff < len(a) {
			p0 = a[c.writeOff:min(c.writeOff+n, len(a))]
		}
		if rest := n - len(p0); rest > 0 {
			p1 = b[c.writeOff+len(p0)-len(a):][:rest]
		}
		own, fill := c.ownSlot()
		op, run := &c.sealSlot, c.sealRun
		if !own {
			op = new(sealOp)
			run = op.run
		}
		if fill {
			*op = sealOp{prot: c.out.protection(), seq: c.out.seq, p0: p0, p1: p1, rnd: c.config.rand()}
		}
		res, err := c.do(KindCipher, run)
		if err != nil {
			return err
		}
		c.out.seq++
		c.midTurn = true
		if c.writeOff+n == total && c.writeClose {
			err = c.writeClosing(res.(*WireBuf))
		} else {
			err = c.writeSealed(res.(*WireBuf))
		}
		if err != nil {
			return err
		}
		c.writeOff += n
	}
	return nil
}

// writeClosing sends w, the sealed last record of a WritevClose, and a
// close-notify alert in one transport Write, then marks the connection
// closed. The alert is sealed inline and queued behind w as a handshake
// flight's records are (queueFlight): a record of at most MaxPlaintext
// leaves room for it in w's buffer.
func (c *Conn) writeClosing(w *WireBuf) error {
	c.flight, c.closed = w, true
	alert, err := sealRecord(c.out.protection(), c.out.seq, recordAlert, closeNotifyPayload, nil, c.config.rand())
	if err == nil {
		c.out.seq++
		err = c.queueFlight(alert)
	}
	if ferr := c.flushFlight(); err == nil {
		err = ferr
	}
	return err
}

// sealOp is one offloaded application-data record seal, the arguments of
// sealRecord. A connection keeps one (Conn.sealSlot) and hands the
// provider its run method, bound once. It may run more than once, even
// concurrently (see recordProtection): the arguments are read-only, and
// each run seals into a buffer of its own.
type sealOp struct {
	prot   recordProtection
	seq    uint64
	p0, p1 []byte
	rnd    io.Reader
}

func (op *sealOp) run() (any, error) {
	w, err := sealRecord(op.prot, op.seq, recordApplicationData, op.p0, op.p1, op.rnd)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Close sends a close-notify alert (best effort) and marks the connection
// closed. A handshake abandoned in good order first sends the records it
// had sealed, as the sequence numbers and the transcript already account
// for them. The underlying transport is not closed: its lifecycle belongs
// to the caller (the event loop or the dialer).
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if err := c.flushFlight(); err != nil {
		return err
	}
	if c.handshakeDone && c.permErr == nil {
		return c.writeRecord(recordAlert, closeNotifyPayload)
	}
	return nil
}
