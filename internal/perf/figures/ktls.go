package figures

import (
	"fmt"

	"qtls/internal/offload"
	"qtls/internal/perf"
)

// KTLS contrasts the record-path modes on the model — the kTLS-style
// data-plane experiment the paper leaves unmeasured. Every series runs
// the QTLS handshake configuration; only the post-handshake record
// policy differs. The metric is worker-CPU nanoseconds per served
// kilobyte (lower is better): handing large-record seals to the
// accelerator's symmetric engines frees the worker core, while small
// records are cheaper to seal in place than to submit — which is why
// the adaptive series hugs the software line below the size threshold
// and the offload line above it.
func KTLS(o Opts) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "ktls",
		Title:  "Record-path offload: worker CPU per served KB, QTLS handshake, 8 workers",
		XLabel: "response size (KB)",
		YLabel: "worker-CPU ns per KB",
		Notes: fmt.Sprintf("record=adaptive offloads records ≥ %d B (16 KB max plaintext per record);\n"+
			"  below the threshold it matches record=sw — submit overhead beats nothing on small seals",
			offload.DefaultRecordThreshold),
	}
	sizes := []int{1, 2, 4, 16, 64, 256, 1024}
	for _, kb := range sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%dKB", kb))
	}
	// The baseline keeps every seal on the worker core (handshake-only
	// offload); the other two rows run a record engine under the shared
	// record policy.
	modes := []struct {
		name   string
		onCore bool
		mode   offload.RecordMode
	}{
		{"record=sw", true, offload.RecordSoftware},
		{"record=offload", false, offload.RecordOffload},
		{"record=adaptive", false, offload.RecordAdaptive},
	}
	for _, mode := range modes {
		s := Series{Name: mode.name}
		for _, kb := range sizes {
			cfg := perf.QTLS(8)
			cfg.CipherOnCore = mode.onCore
			cfg.Record.Mode = mode.mode
			res := perf.Run(perf.RunOptions{
				Config:  cfg,
				Warmup:  o.Warmup,
				Measure: o.Measure,
				Install: func(m *perf.Model) {
					perf.ABWorkload{Clients: 400, FileBytes: kb * 1024}.Install(m)
				},
			})
			s.Values = append(s.Values, res.Stats.CPUPerKB())
		}
		t.Series = append(t.Series, s)
	}
	return t
}
