package perf

import (
	"time"

	"qtls/internal/sim"
)

// Suite identifies the modeled handshake flavor.
type Suite int

const (
	// SuiteRSA is TLS 1.2 TLS-RSA (2048-bit).
	SuiteRSA Suite = iota
	// SuiteECDHERSA is TLS 1.2 ECDHE-RSA (2048-bit, P-256 by default).
	SuiteECDHERSA
	// SuiteECDHEECDSA is TLS 1.2 ECDHE-ECDSA.
	SuiteECDHEECDSA
	// SuiteTLS13 is TLS 1.3 ECDHE-RSA (2048-bit).
	SuiteTLS13
)

// String names the suite.
func (s Suite) String() string {
	switch s {
	case SuiteRSA:
		return "TLS-RSA"
	case SuiteECDHERSA:
		return "ECDHE-RSA"
	case SuiteECDHEECDSA:
		return "ECDHE-ECDSA"
	case SuiteTLS13:
		return "TLS1.3-ECDHE-RSA"
	default:
		return "suite?"
	}
}

// ScriptSpec parameterizes connection script construction.
type ScriptSpec struct {
	Suite Suite
	// Curve provides the ECC costs (defaults to P-256).
	Curve CurveParams
	// Abbreviated selects the session-resumption handshake.
	Abbreviated bool
	// RequestBytes, when > 0, appends one HTTP request serving a response
	// of this size after the handshake.
	RequestBytes int
	// Requests is how many keepalive requests to serve (default 1 when
	// RequestBytes > 0).
	Requests int
}

// cryptoStep builds a crypto step.
func cryptoStep(op opClass, sw, hw time.Duration) step {
	return step{kind: stepCrypto, op: op, sw: sw, hw: hw}
}

func cpuStep(d time.Duration) step { return step{kind: stepCPU, dur: d} }
func netStep(d time.Duration) step { return step{kind: stepNet, dur: d} }
func markStep(k stepKind) step     { return step{kind: k} }

// BuildScript constructs the server-side step script for one connection.
// The op sequences match Table 1 (and the minitls implementation): e.g. a
// TLS 1.2 ECDHE-RSA full handshake performs ECDH keygen, RSA sign, ECDH
// derive and 4 PRF derivations on the server.
func BuildScript(p *Params, spec ScriptSpec) []step {
	curve := spec.Curve
	if curve.Name == "" {
		curve = P256()
	}
	var s []step
	s = append(s, cpuStep(p.AcceptCost), cpuStep(p.ParseCHCost))

	if spec.Abbreviated {
		// Abbreviated handshake: PRF calculations only (§2.1): key
		// expansion + server Finished, flight, then the client's
		// CCS/Finished and its verification.
		s = append(s,
			cryptoStep(opPRF, p.SwPRF, p.QatPRF),
			cryptoStep(opPRF, p.SwPRF, p.QatPRF),
			cpuStep(p.SendFinCost),
			netStep(p.RTT),
			cpuStep(p.ParseCKECost),
			cryptoStep(opPRF, p.SwPRF, p.QatPRF),
			markStep(stepHSDone),
		)
	} else {
		switch spec.Suite {
		case SuiteRSA:
			s = append(s,
				cpuStep(p.SendFinCost), // SH+Cert+SHD flight
				netStep(p.RTT),
				cpuStep(p.ParseCKECost),
				cryptoStep(opRSA, p.SwRSA, p.QatRSA), // premaster decrypt
				cryptoStep(opPRF, p.SwPRF, p.QatPRF), // master secret
				cryptoStep(opPRF, p.SwPRF, p.QatPRF), // key expansion
				cryptoStep(opPRF, p.SwPRF, p.QatPRF), // client Finished
				cryptoStep(opPRF, p.SwPRF, p.QatPRF), // server Finished
				cpuStep(p.SendFinCost),
				markStep(stepHSDone),
			)
		case SuiteECDHERSA:
			s = append(s,
				cryptoStep(opECDH, curve.SwECDH, curve.QatECDH), // keygen
				cryptoStep(opRSA, p.SwRSA, p.QatRSA),            // SKX sign
				cpuStep(p.SendFinCost),
				netStep(p.RTT),
				cpuStep(p.ParseCKECost),
				cryptoStep(opECDH, curve.SwECDH, curve.QatECDH), // derive
				cryptoStep(opPRF, p.SwPRF, p.QatPRF),
				cryptoStep(opPRF, p.SwPRF, p.QatPRF),
				cryptoStep(opPRF, p.SwPRF, p.QatPRF),
				cryptoStep(opPRF, p.SwPRF, p.QatPRF),
				cpuStep(p.SendFinCost),
				markStep(stepHSDone),
			)
		case SuiteECDHEECDSA:
			s = append(s,
				cryptoStep(opECDH, curve.SwECDH, curve.QatECDH),  // keygen
				cryptoStep(opECDSA, curve.SwSign, curve.QatSign), // SKX sign
				cpuStep(p.SendFinCost),
				netStep(p.RTT),
				cpuStep(p.ParseCKECost),
				cryptoStep(opECDH, curve.SwECDH, curve.QatECDH), // derive
				cryptoStep(opPRF, p.SwPRF, p.QatPRF),
				cryptoStep(opPRF, p.SwPRF, p.QatPRF),
				cryptoStep(opPRF, p.SwPRF, p.QatPRF),
				cryptoStep(opPRF, p.SwPRF, p.QatPRF),
				cpuStep(p.SendFinCost),
				markStep(stepHSDone),
			)
		case SuiteTLS13:
			// One network round trip; HKDF derivations are not
			// offloadable and run on the worker core (§5.2, Fig. 8) —
			// Table 1 counts "> 4" of them.
			s = append(s,
				cryptoStep(opECDH, curve.SwECDH, curve.QatECDH), // keygen
				cryptoStep(opECDH, curve.SwECDH, curve.QatECDH), // derive
				cryptoStep(opHKDF, p.SwHKDF, 0),                 // early/derived
				cryptoStep(opHKDF, p.SwHKDF, 0),                 // hs secret
				cryptoStep(opHKDF, p.SwHKDF, 0),                 // c hs traffic
				cryptoStep(opHKDF, p.SwHKDF, 0),                 // s hs traffic
				cryptoStep(opHKDF, p.SwHKDF, 0),                 // master
				cryptoStep(opRSA, p.SwRSA, p.QatRSA),            // CertificateVerify
				cryptoStep(opHKDF, p.SwHKDF, 0),                 // server Finished
				cryptoStep(opHKDF, p.SwHKDF, 0),                 // app secrets
				cpuStep(p.SendFinCost),
				netStep(p.RTT),
				cpuStep(p.ParseCKECost),
				cryptoStep(opHKDF, p.SwHKDF, 0), // client Finished verify
				markStep(stepHSDone),
			)
		}
	}

	// Optional request/response phase (keepalive requests of a fixed-size
	// object, fragmented into 16 KB records — the Fig. 10 traffic).
	if spec.RequestBytes > 0 {
		requests := spec.Requests
		if requests <= 0 {
			requests = 1
		}
		for r := 0; r < requests; r++ {
			s = append(s, netStep(p.RTT/2)) // request arrives
			s = append(s, cpuStep(p.ReqParseCost))
			remaining := spec.RequestBytes
			for remaining > 0 {
				rec := remaining
				if rec > 16384 {
					rec = 16384
				}
				remaining -= rec
				kb := float64(rec) / 1024
				swc := time.Duration(float64(p.SwCipherPerKB) * kb)
				hwc := p.QatCipherBase + time.Duration(float64(p.QatCipherPerKB)*kb)
				// Cipher steps carry their record size so the record policy
				// can route each seal (adaptive offload is per record).
				s = append(s,
					step{kind: stepCrypto, op: opCipher, sw: swc, hw: hwc, bytes: rec},
					cpuStep(p.RecordIOCost),
				)
			}
			// Response leaves on the link; the step's bytes model NIC
			// serialization and count toward served throughput.
			s = append(s, step{kind: stepNet, dur: p.RTT / 2, bytes: spec.RequestBytes}, markStep(stepReqDone))
		}
	}
	s = append(s, cpuStep(p.CloseCost))
	return s
}

// --- workload drivers -----------------------------------------------------

// STimeWorkload drives closed-loop handshake clients (the s_time load of
// §5.2/§5.3): each of Clients loops connect → handshake → [request] →
// close.
type STimeWorkload struct {
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Spec builds each connection's script.
	Spec ScriptSpec
	// ResumeFraction is the fraction of connections using the
	// abbreviated handshake (0 = all full, 1 = all abbreviated — the
	// s_time "reuse" option; 0.9 = the paper's 1:9 mix).
	ResumeFraction float64
	// ClientDelay is client-side processing between connections.
	ClientDelay time.Duration
}

// Install starts the workload on the model.
func (wl STimeWorkload) Install(m *Model) {
	if wl.ClientDelay <= 0 {
		wl.ClientDelay = 30 * time.Microsecond
	}
	counter := 0
	var launch func()
	launch = func() {
		counter++
		spec := wl.Spec
		resumed := false
		if wl.ResumeFraction > 0 {
			// Deterministic interleaving of full/abbreviated handshakes.
			if float64(counter%100)/100.0 < wl.ResumeFraction {
				spec.Abbreviated = true
				resumed = true
			}
		}
		m.StartConn(spec, resumed, func(at sim.Time) {
			m.sim.After(wl.ClientDelay+m.p.RTT/2, launch)
		})
	}
	// Stagger client start-up to avoid a synchronized thundering herd.
	for i := 0; i < wl.Clients; i++ {
		d := time.Duration(i%97) * 7 * time.Microsecond
		m.sim.After(d, launch)
	}
}

// ABWorkload drives keepalive transfer clients (the ApacheBench load of
// §5.4): each client handshakes once and then requests a fixed file in a
// closed loop for the whole run.
type ABWorkload struct {
	// Clients is the number of keepalive connections.
	Clients int
	// FileBytes is the requested object size.
	FileBytes int
	// RequestsPerConn bounds requests per connection before it reconnects
	// (large default ≈ keepalive forever).
	RequestsPerConn int
}

// Install starts the workload on the model.
func (wl ABWorkload) Install(m *Model) {
	reqs := wl.RequestsPerConn
	if reqs <= 0 {
		// Scripts are materialized up front, so keepalive connections are
		// bounded and reconnect periodically. Enough requests per
		// connection amortize the handshake to noise ("the keepalive
		// setting was tuned to avoid the influence of TLS handshake",
		// §5.4) while keeping script memory bounded for large files.
		reqs = (4 << 20) / max(wl.FileBytes, 1)
		if reqs < 16 {
			reqs = 16
		}
		if reqs > 1024 {
			reqs = 1024
		}
	}
	spec := ScriptSpec{
		Suite:        SuiteRSA, // AES128-SHA transfer after a TLS-RSA handshake
		RequestBytes: wl.FileBytes,
		Requests:     reqs,
	}
	var launch func()
	launch = func() {
		m.StartConn(spec, false, func(at sim.Time) {
			m.sim.After(m.p.RTT/2, launch)
		})
	}
	for i := 0; i < wl.Clients; i++ {
		d := time.Duration(i%89) * 11 * time.Microsecond
		m.sim.After(d, launch)
	}
}

// LatencyWorkload drives an open-loop handshake-per-request load for the
// response-time evaluation (§5.5): Concurrency end clients each issue a
// new TLS-RSA connection (full handshake + small page) at a fixed rate.
type LatencyWorkload struct {
	// Concurrency is the number of end clients.
	Concurrency int
	// PerClientRate is connections per second per client.
	PerClientRate float64
	// PageBytes is the small response size (< 100 bytes in the paper).
	PageBytes int
}

// Install starts the workload on the model.
func (wl LatencyWorkload) Install(m *Model) {
	rate := wl.PerClientRate
	if rate <= 0 {
		rate = 50
	}
	page := wl.PageBytes
	if page <= 0 {
		page = 100
	}
	spec := ScriptSpec{Suite: SuiteRSA, RequestBytes: page, Requests: 1}
	mean := time.Duration(float64(time.Second) / rate)
	var clientLoop func()
	clientLoop = func() {
		// Exponential interarrival via the simulation's deterministic RNG.
		gap := time.Duration(m.sim.Rand().ExpFloat64() * float64(mean))
		m.sim.After(gap, func() {
			m.StartConn(spec, false, nil)
			clientLoop()
		})
	}
	for i := 0; i < wl.Concurrency; i++ {
		clientLoop()
	}
}
