// Package perf is a deterministic discrete-event performance model of the
// QTLS system: event-driven workers, the QAT accelerator (endpoints ×
// parallel engines), the network, the five offload configurations, and
// the paper's workloads (s_time closed-loop handshakes, ab keepalive
// transfers, open-loop latency probes).
//
// The paper's testbed — two 22-core Xeon E5-2699 v4 servers, 40 GbE
// back-to-back links and an Intel DH8970 QAT card — is not reproducible
// on a laptop, so every table and figure of §5 is regenerated on this
// model instead (DESIGN.md records the substitution). Absolute numbers
// are calibrated to be in the right ballpark; the claims that matter are
// the *shapes*: who wins, by what factor, and where the crossovers fall.
package perf

import "time"

// Params holds every calibrated constant of the model. The defaults are
// tuned against the anchors in §5 (see EXPERIMENTS.md for the full
// paper-vs-model table):
//
//   - SW TLS-RSA full handshake ≈ 0.54 K CPS per worker (Fig. 7a: 4.3 K
//     at 8 workers);
//   - DH8970 card limits ≈ 100 K RSA-2048 CPS and ≈ 40 K ECDHE-RSA CPS;
//   - software ECDSA/ECDH on P-256 is Montgomery-optimized and fast
//     (Fig. 7c's anomaly), P-384 and the binary/Koblitz curves are not;
//   - a 10 µs polling thread costs ≈ 20 % handshake throughput (Fig. 12a);
//   - AES128-CBC-HMAC-SHA1 in software moves ≈ 350 MB/s per core.
type Params struct {
	// --- CPU costs of non-crypto worker work -------------------------

	// AcceptCost is accept(2) + connection setup.
	AcceptCost time.Duration
	// ParseCHCost is ClientHello parsing + ServerHello/Certificate flight
	// construction and record writes.
	ParseCHCost time.Duration
	// ParseCKECost is ClientKeyExchange/CCS/Finished flight parsing.
	ParseCKECost time.Duration
	// SendFinCost is the ticket/CCS/Finished flight write.
	SendFinCost time.Duration
	// ReqParseCost is HTTP request parsing + response header build.
	ReqParseCost time.Duration
	// RecordIOCost is the non-crypto per-16KB-record cost: TLS record
	// framing plus kernel TCP transmit work.
	RecordIOCost time.Duration
	// CloseCost tears a connection down.
	CloseCost time.Duration

	// --- crypto costs -------------------------------------------------

	// SwRSA is a software RSA-2048 private-key operation on one HT core.
	SwRSA time.Duration
	// SwPRF is one TLS 1.2 PRF derivation in software.
	SwPRF time.Duration
	// SwHKDF is one TLS 1.3 HKDF derivation (never offloaded).
	SwHKDF time.Duration
	// SwCipherPerKB is software AES128-CBC-HMAC-SHA1 per kilobyte.
	SwCipherPerKB time.Duration

	// QatRSA is the engine service time of an RSA-2048 operation.
	QatRSA time.Duration
	// QatPRF is the engine service time of a PRF derivation.
	QatPRF time.Duration
	// QatCipherPerKB is the engine cipher service time per kilobyte.
	QatCipherPerKB time.Duration
	// QatCipherBase is the fixed engine cost per cipher request.
	QatCipherBase time.Duration

	// --- offload I/O costs --------------------------------------------

	// SubmitCost is the CPU cost of building and submitting one QAT
	// request (QAT Engine + userspace driver).
	SubmitCost time.Duration
	// FiberSwapCost is one crypto pause + later resumption (two fiber
	// context swaps plus job management, §4.1).
	FiberSwapCost time.Duration
	// StackSwapCost is the cheaper pause/resume of the stack-async
	// implementation (state flag + careful skipping; no fiber contexts,
	// §4.1: "the stack async implementation has a good performance").
	StackSwapCost time.Duration
	// InterruptCost is one kernel-based completion interrupt delivered to
	// the worker (§3.3 rejects interrupts: "one userspace-based polling
	// operation has much less overhead than one kernel-based interrupt").
	InterruptCost time.Duration
	// PollCost is one userspace polling operation on the response rings.
	PollCost time.Duration
	// PerResponseCost is the per-retrieved-response callback cost.
	PerResponseCost time.Duration
	// NotifyFDCost is one FD-based async event: the response callback's
	// write(2) plus the epoll wakeup processing (user/kernel switches).
	NotifyFDCost time.Duration
	// NotifyBypassCost is one kernel-bypass async-queue insertion.
	NotifyBypassCost time.Duration
	// FDDispatchDelay is the extra event-loop latency of an FD event (it
	// is observed on the next epoll_wait iteration).
	FDDispatchDelay time.Duration
	// CtxSwitchCost is one context switch to the timer polling thread
	// (pinned to the same core as its worker, §5.1).
	CtxSwitchCost time.Duration
	// BlockedOpOverhead is the extra per-operation wait of the straight
	// (blocking) offload mode beyond the response-ready time (inline
	// busy-poll slop).
	BlockedOpOverhead time.Duration
	// IdleLoopCost is one iteration of the event loop when it is spinning
	// on in-flight crypto requests with nothing else to do (epoll_wait
	// with zero timeout plus the heuristic checks); it paces how quickly
	// an idle worker discovers new responses.
	IdleLoopCost time.Duration

	// PipeLatencyAsym is the end-to-end request latency of an asymmetric
	// operation through the accelerator (DMA, firmware scheduling,
	// response write-back) over and above engine occupancy. Real QAT
	// RSA-2048 latency at queue depth 1 is several hundred µs even though
	// aggregate throughput implies ~120 µs of engine occupancy; this is
	// why the async framework, which overlaps these latencies, wins so
	// much (§2.4).
	PipeLatencyAsym time.Duration
	// PipeLatencySym is the same pipeline latency for symmetric/PRF ops.
	PipeLatencySym time.Duration

	// --- device -------------------------------------------------------

	// Endpoints is the number of QAT endpoints (DH8970: 3).
	Endpoints int
	// AsymEnginesPerEndpoint is the number of public-key (PKE) engines
	// per endpoint; QAT hardware dedicates separate engines to
	// asymmetric crypto and to cipher/authentication services.
	AsymEnginesPerEndpoint int
	// SymEnginesPerEndpoint is the number of symmetric (cipher/auth/PRF)
	// engines per endpoint.
	SymEnginesPerEndpoint int
	// RingCapacity bounds in-flight requests per crypto instance.
	RingCapacity int

	// --- network ------------------------------------------------------

	// RTT is the client↔server round trip on the back-to-back 40 GbE
	// link, including client-side processing of a handshake flight.
	RTT time.Duration
	// LinkGbps is the NIC line rate.
	LinkGbps float64
}

// DefaultParams returns the calibrated model constants.
func DefaultParams() Params {
	return Params{
		AcceptCost:   20 * time.Microsecond,
		ParseCHCost:  60 * time.Microsecond,
		ParseCKECost: 30 * time.Microsecond,
		SendFinCost:  30 * time.Microsecond,
		ReqParseCost: 20 * time.Microsecond,
		RecordIOCost: 30 * time.Microsecond,
		CloseCost:    15 * time.Microsecond,

		SwRSA: 1660 * time.Microsecond,
		SwPRF: 25 * time.Microsecond,
		// SwHKDF bundles one TLS 1.3 derivation step with its transcript
		// hashing and key-install work; the per-handshake total (~9 ops)
		// matches the non-offloadable CPU share implied by Fig. 8.
		SwHKDF:        50 * time.Microsecond,
		SwCipherPerKB: 2800 * time.Nanosecond, // ≈ 350 MB/s

		QatRSA:         120 * time.Microsecond,
		QatPRF:         10 * time.Microsecond,
		QatCipherPerKB: 1 * time.Microsecond, // wire-speed-class engine
		QatCipherBase:  4 * time.Microsecond,

		SubmitCost:        3 * time.Microsecond,
		FiberSwapCost:     1 * time.Microsecond,
		StackSwapCost:     300 * time.Nanosecond,
		InterruptCost:     7 * time.Microsecond,
		PollCost:          500 * time.Nanosecond,
		PerResponseCost:   500 * time.Nanosecond,
		NotifyFDCost:      4 * time.Microsecond,
		NotifyBypassCost:  200 * time.Nanosecond,
		FDDispatchDelay:   5 * time.Microsecond,
		CtxSwitchCost:     1200 * time.Nanosecond,
		BlockedOpOverhead: 10 * time.Microsecond,
		IdleLoopCost:      8 * time.Microsecond,
		PipeLatencyAsym:   330 * time.Microsecond,
		PipeLatencySym:    55 * time.Microsecond,

		Endpoints:              3,
		AsymEnginesPerEndpoint: 4,
		SymEnginesPerEndpoint:  2,
		RingCapacity:           64,

		RTT:      120 * time.Microsecond,
		LinkGbps: 40,
	}
}

// CurveParams captures per-curve asymmetric costs for Fig. 7c: software
// sign / key-exchange op costs and the QAT engine service times. The
// P-256 software costs reflect the "Montgomery friendly" optimized
// implementation (§5.2); the other curves use the generic code paths.
type CurveParams struct {
	Name    string
	SwSign  time.Duration
	SwECDH  time.Duration
	QatSign time.Duration
	QatECDH time.Duration
}

// Curves returns the six NIST curves of Fig. 7c.
func Curves() []CurveParams {
	return []CurveParams{
		// P-256: Montgomery-domain software (2.33x faster sign than the
		// traditional implementation) — the SW anomaly of Fig. 7c.
		{Name: "P-256", SwSign: 40 * time.Microsecond, SwECDH: 110 * time.Microsecond,
			QatSign: 85 * time.Microsecond, QatECDH: 85 * time.Microsecond},
		{Name: "P-384", SwSign: 1300 * time.Microsecond, SwECDH: 1500 * time.Microsecond,
			QatSign: 210 * time.Microsecond, QatECDH: 210 * time.Microsecond},
		{Name: "B-283", SwSign: 1500 * time.Microsecond, SwECDH: 1800 * time.Microsecond,
			QatSign: 240 * time.Microsecond, QatECDH: 240 * time.Microsecond},
		{Name: "B-409", SwSign: 2800 * time.Microsecond, SwECDH: 3400 * time.Microsecond,
			QatSign: 340 * time.Microsecond, QatECDH: 340 * time.Microsecond},
		{Name: "K-283", SwSign: 1450 * time.Microsecond, SwECDH: 1700 * time.Microsecond,
			QatSign: 240 * time.Microsecond, QatECDH: 240 * time.Microsecond},
		{Name: "K-409", SwSign: 2700 * time.Microsecond, SwECDH: 3200 * time.Microsecond,
			QatSign: 330 * time.Microsecond, QatECDH: 330 * time.Microsecond},
	}
}

// P256 returns the P-256 curve parameters (the OpenSSL default used by
// the ECDHE-RSA evaluations).
func P256() CurveParams { return Curves()[0] }
