package offload

import "fmt"

// The post-handshake record-path policy dimension. The paper offloads
// only the handshake's asymmetric work; the record-engine subsystem
// (internal/record) extends offload to the symmetric data path, kTLS
// style. This file defines the shared vocabulary both stacks use to
// decide, per record, whether its protection runs on the worker core or
// on a QAT symmetric instance.

// DefaultRecordThreshold is the adaptive record-offload size threshold:
// records at least this large go to the accelerator, smaller ones are
// sealed in software. Below ~4 KB the submit + pipeline latency of an
// offload outweighs the cipher time it saves, mirroring where the
// per-record fixed costs dominate in the Fig. 10 size sweep.
const DefaultRecordThreshold = 4096

// RecordMode selects how post-handshake record protection is computed.
type RecordMode int

const (
	// RecordSoftware runs no record engine (the paper's configuration):
	// the TLS stack protects each record itself, as one cipher operation
	// through its crypto provider — software under SW, offloaded by the
	// QAT Engine otherwise, in the live stack and the model alike.
	RecordSoftware RecordMode = iota
	// RecordOffload routes every application-data record through a QAT
	// symmetric instance.
	RecordOffload
	// RecordAdaptive offloads records of at least SizeThreshold bytes
	// and seals smaller records in software.
	RecordAdaptive
)

// String returns the mode name (the qat_record_offload directive values).
func (m RecordMode) String() string {
	switch m {
	case RecordSoftware:
		return "software"
	case RecordOffload:
		return "offload"
	case RecordAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("RecordMode(%d)", int(m))
	}
}

// RecordModeByName maps a flag value ("software", "offload", "adaptive")
// back to its record mode.
func RecordModeByName(name string) (RecordMode, bool) {
	return byName(name, RecordSoftware, RecordOffload, RecordAdaptive)
}

// RecordPolicy is the record-path policy: the mode plus the adaptive
// size threshold. The zero value is the paper's record path (no record
// engine).
type RecordPolicy struct {
	// Mode selects the record data plane.
	Mode RecordMode
	// SizeThreshold is the adaptive cutoff in payload bytes (default
	// DefaultRecordThreshold; only meaningful for RecordAdaptive).
	SizeThreshold int
}

// WithDefaults resolves the unset threshold for the adaptive mode. The
// software and always-offload modes keep a zero threshold so the zero
// policy stays canonical.
func (p RecordPolicy) WithDefaults() RecordPolicy {
	if p.Mode == RecordAdaptive && p.SizeThreshold <= 0 {
		p.SizeThreshold = DefaultRecordThreshold
	}
	return p
}

// Offload is the per-record decision: should a record of the given
// payload size be protected on the accelerator?
func (p RecordPolicy) Offload(bytes int) bool {
	switch p.Mode {
	case RecordOffload:
		return true
	case RecordAdaptive:
		t := p.SizeThreshold
		if t <= 0 {
			t = DefaultRecordThreshold
		}
		return bytes >= t
	default:
		return false
	}
}
