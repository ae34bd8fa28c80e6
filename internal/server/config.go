// Package server implements the event-driven HTTPS server QTLS is
// evaluated on: the equivalent of Nginx workers modified for asynchronous
// crypto offload (§4.2). Each worker owns one epoll event loop, one QAT
// crypto instance, the TLS-ASYNC connection state handling (including the
// saved read handler for event disorder), the heuristic polling scheme
// (§3.3/§4.3) and both async event notification schemes (§3.4/§4.4).
//
// The offload configuration — polling scheme and thresholds, notification
// scheme, and the five named configurations — is internal/offload's
// Policy, the one value this package and the DES performance model
// (internal/perf) both embed. RunConfig adds only what the live stack
// alone has: multi-device placement, the pause implementation, the
// hardening ladder, deadlines and admission control.
//
// The five configurations evaluated in the paper:
//
//	SW      — software crypto, no engine
//	QAT+S   — straight (blocking) offload
//	QAT+A   — async offload + timer-based polling + FD notification
//	QAT+AH  — async offload + heuristic polling + FD notification
//	QTLS    — async offload + heuristic polling + kernel-bypass notification
package server

import (
	"time"

	"qtls/internal/minitls"
	"qtls/internal/offload"
)

// RunConfig selects the offload configuration of a worker: the shared
// offload.Policy (the paper's five configurations and the knobs the SSL
// Engine Framework exposes in the Nginx conf, §A.7) plus the live-stack
// settings that have no counterpart in the model.
type RunConfig struct {
	// Policy is the offload configuration proper. Its fields are promoted
	// (run.UseQAT, run.Poll.AsymThreshold, ...); unset poll parameters
	// resolve to the offload defaults.
	offload.Policy
	// Placement selects whether every worker uses device 0 of
	// Options.Pool (single, the zero value and the paper's setup) or each
	// homes on the device its hash selects (conn-hash).
	Placement offload.Placement

	// AsyncMode selects which crypto-pause implementation an async policy
	// runs: minitls.AsyncModeStack is the state-flag design, anything else
	// — the zero value included — the ASYNC_JOB fiber design the paper
	// ships (§4.1). Whether offloads pause at all is Policy.Async alone.
	AsyncMode minitls.AsyncMode
	// Offload selects which crypto op kinds the engine offloads (the
	// default_algorithm directive, §A.7); nil means all offloadable
	// kinds.
	Offload []minitls.OpKind

	// OpTimeout bounds each offloaded crypto operation: past the
	// deadline the engine abandons the offload and computes the result
	// in software, so a sick device degrades handshakes instead of
	// hanging them (see internal/fault). 0 disables deadlines.
	OpTimeout time.Duration
	// MaxRetries bounds the engine's resubmissions after retryable
	// offload failures (endpoint reset, corrupted response) before the
	// software fallback.
	MaxRetries int
	// Lifecycle arms the pool's health manager (qat.Lifecycle): every
	// worker's crypto instances get a circuit that takes an instance whose
	// recent offloads keep failing out of the submission rotation until
	// half-open probes succeed, and every device runs healthy → suspect →
	// quarantined → probation → healthy. Instance trips, reset storms and
	// wedges quarantine a device, quarantine drains its in-flight ops
	// through the fallback path, and routing and conn-hash worker homes
	// move off it (and back after probation re-admits it). Off keeps
	// instances and devices unmanaged — the paper's behavior.
	Lifecycle bool

	// Deadlines are the connection-lifecycle deadlines (handshake,
	// request-header, keepalive-idle, write-stall) enforced by each
	// worker's deadline wheel. Zero fields take the offload defaults; a
	// negative timeout disables that class.
	Deadlines offload.DeadlinePolicy
	// Overload is the admission-control policy: connections are shed with
	// a TCP reset at accept time, and denied keepalive reuse, when QAT
	// inflight pressure or the connection count says the worker is beyond
	// its capacity. Zero fields take the offload defaults.
	Overload offload.OverloadPolicy
}

func (rc RunConfig) withDefaults() RunConfig {
	rc.Policy = rc.Policy.WithDefaults()
	rc.Deadlines = rc.Deadlines.WithDefaults()
	rc.Overload = rc.Overload.WithDefaults()
	return rc
}

// asyncMode resolves the pause implementation the TLS stack runs:
// off unless the policy offloads asynchronously.
func (rc RunConfig) asyncMode() minitls.AsyncMode {
	switch {
	case !rc.UseQAT || !rc.Async:
		return minitls.AsyncModeOff
	case rc.AsyncMode == minitls.AsyncModeStack:
		return minitls.AsyncModeStack
	default:
		return minitls.AsyncModeFiber
	}
}

// The paper's five configurations: the shared policies, unadorned.
var (
	// ConfigSW is software calculation with AES-NI-class instructions.
	ConfigSW = RunConfig{Policy: offload.SW()}
	// ConfigQATS is the straight offload mode.
	ConfigQATS = RunConfig{Policy: offload.QATS()}
	// ConfigQATA is the async framework with timer polling and FD
	// notification.
	ConfigQATA = RunConfig{Policy: offload.QATA()}
	// ConfigQATAH replaces the polling thread with the heuristic scheme.
	ConfigQATAH = RunConfig{Policy: offload.QATAH()}
	// ConfigQTLS is the full QTLS: heuristic polling + kernel bypass.
	ConfigQTLS = RunConfig{Policy: offload.QTLS()}
)

// Configurations lists the paper's five configurations in evaluation
// order.
func Configurations() []RunConfig {
	return []RunConfig{ConfigSW, ConfigQATS, ConfigQATA, ConfigQATAH, ConfigQTLS}
}
