package perf

import (
	"testing"
	"time"

	"qtls/internal/offload"
)

// The three record paths of the model: seals kept on the worker core
// (handshake-only offload), and a record engine in each non-zero mode.
// nil is the zero Record policy — the paper's engine-level cipher offload.
var (
	recOnCore   = func(c *Config) { c.CipherOnCore = true }
	recOffload  = func(c *Config) { c.Record.Mode = offload.RecordOffload }
	recAdaptive = func(c *Config) { c.Record.Mode = offload.RecordAdaptive }
)

func runBulk(t *testing.T, set func(*Config), fileBytes int) RunResult {
	t.Helper()
	cfg := QTLS(4)
	if set != nil {
		set(&cfg)
	}
	return Run(RunOptions{
		Config:  cfg,
		Warmup:  100 * time.Millisecond,
		Measure: 200 * time.Millisecond,
		Install: func(m *Model) {
			ABWorkload{Clients: 100, FileBytes: fileBytes}.Install(m)
		},
	})
}

// The record policy routes each seal: cipher-on-core never touches the
// accelerator, offload mode never seals on the worker, and the zero
// policy keeps the paper's engine-level cipher offload.
func TestRecordPolicyRouting(t *testing.T) {
	sw := runBulk(t, recOnCore, 64<<10)
	if sw.Stats.RecordOffloadOps != 0 || sw.Stats.RecordSWOps == 0 {
		t.Fatalf("cipher on core: offload=%d sw=%d", sw.Stats.RecordOffloadOps, sw.Stats.RecordSWOps)
	}
	off := runBulk(t, recOffload, 64<<10)
	if off.Stats.RecordOffloadOps == 0 || off.Stats.RecordSWOps != 0 {
		t.Fatalf("offload mode: offload=%d sw=%d", off.Stats.RecordOffloadOps, off.Stats.RecordSWOps)
	}
	legacy := runBulk(t, nil, 64<<10)
	if legacy.Stats.RecordOffloadOps == 0 || legacy.Stats.RecordSWOps != 0 {
		t.Fatalf("zero policy lost the engine-level cipher offload: offload=%d sw=%d",
			legacy.Stats.RecordOffloadOps, legacy.Stats.RecordSWOps)
	}
}

// Adaptive mode splits per record: 1 KB responses stay below the
// threshold (all software), large responses fragment into 16 KB records
// that all offload.
func TestRecordPolicyAdaptiveThreshold(t *testing.T) {
	small := runBulk(t, recAdaptive, 1<<10)
	if small.Stats.RecordOffloadOps != 0 || small.Stats.RecordSWOps == 0 {
		t.Fatalf("1KB records should fall back to software: offload=%d sw=%d",
			small.Stats.RecordOffloadOps, small.Stats.RecordSWOps)
	}
	large := runBulk(t, recAdaptive, 256<<10)
	if large.Stats.RecordOffloadOps == 0 || large.Stats.RecordSWOps != 0 {
		t.Fatalf("16KB records should offload: offload=%d sw=%d",
			large.Stats.RecordOffloadOps, large.Stats.RecordSWOps)
	}
}

// The headline claim of the record-path experiment: offloading large
// records costs less worker CPU per served byte than sealing in
// software, while for small records the submit overhead makes software
// the cheaper path.
func TestRecordOffloadCPUPerByte(t *testing.T) {
	swLarge := runBulk(t, recOnCore, 256<<10)
	offLarge := runBulk(t, recOffload, 256<<10)
	if offLarge.Stats.CPUPerKB() >= swLarge.Stats.CPUPerKB() {
		t.Fatalf("256KB: offloaded record path not cheaper: offload %.0f ns/KB, sw %.0f ns/KB",
			offLarge.Stats.CPUPerKB(), swLarge.Stats.CPUPerKB())
	}
	swSmall := runBulk(t, recOnCore, 1<<10)
	offSmall := runBulk(t, recOffload, 1<<10)
	if offSmall.Stats.CPUPerKB() <= swSmall.Stats.CPUPerKB() {
		t.Fatalf("1KB: submit overhead should beat software sealing: offload %.0f ns/KB, sw %.0f ns/KB",
			offSmall.Stats.CPUPerKB(), swSmall.Stats.CPUPerKB())
	}
}
