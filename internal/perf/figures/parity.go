package figures

import (
	"fmt"
	"time"

	"qtls/internal/perf"
)

// NotifyParity is not a paper figure: it is the refactoring guard for the
// offload-policy seam. It runs the five named configurations (SW, QAT+S,
// QAT+A, QAT+AH, QTLS) through a fixed-seed handshake sweep and a
// fixed-seed keepalive transfer sweep and tabulates throughput plus the
// scheduler counters that would move if poll ordering, notification
// delivery order, or per-event costs drifted.
//
// The DES is deterministic for a given seed, so this table is
// byte-stable: TestAllGeneratorsSmoke regenerates it and compares the
// CSV rendering against testdata/notify-parity.golden, which was
// captured before the notification enum became a Notifier type. Any
// behavioral drift in the static schemes — a reordered delivery, an
// extra poll, a cost charged twice — shows up as a byte diff here.
//
// Durations are literal (not Quick()) so the golden cannot be
// invalidated by unrelated changes to the shared smoke options.
func NotifyParity() Table {
	const (
		warmup  = 150 * time.Millisecond
		measure = 200 * time.Millisecond
		workers = 2
	)
	t := Table{
		ID:     "notify-parity",
		Title:  "Notifier refactoring guard: fixed-seed DES counters, five configurations",
		XLabel: "configuration",
		YLabel: "CPS / Gbps / scheduler counters",
		Notes:  "byte-stable for a fixed seed: regenerating this table must be a no-op across notifier and poll-policy refactors",
	}
	rows := []string{
		"hs cps", "hs p99 ms", "hs polls", "hs empty polls", "hs failover polls", "hs notifications",
		"ab gbps", "ab polls", "ab notifications",
	}
	vals := make(map[string][]float64, len(rows))
	for _, mk := range []func(int) perf.Config{perf.SW, perf.QATS, perf.QATA, perf.QATAH, perf.QTLS} {
		cfg := mk(workers)
		t.Columns = append(t.Columns, cfg.Name)
		hs := perf.Run(perf.RunOptions{
			Config:  cfg,
			Warmup:  warmup,
			Measure: measure,
			Install: func(m *perf.Model) {
				perf.STimeWorkload{Clients: clientsFor(workers), Spec: perf.ScriptSpec{Suite: perf.SuiteRSA}}.Install(m)
			},
		})
		ab := perf.Run(perf.RunOptions{
			Config:  cfg,
			Warmup:  warmup,
			Measure: measure,
			Install: func(m *perf.Model) {
				perf.ABWorkload{Clients: 100, FileBytes: 64 * 1024}.Install(m)
			},
		})
		vals["hs cps"] = append(vals["hs cps"], hs.CPS)
		vals["hs p99 ms"] = append(vals["hs p99 ms"], float64(hs.P99Latency)/float64(time.Millisecond))
		vals["hs polls"] = append(vals["hs polls"], float64(hs.Stats.Polls))
		vals["hs empty polls"] = append(vals["hs empty polls"], float64(hs.Stats.EmptyPolls))
		vals["hs failover polls"] = append(vals["hs failover polls"], float64(hs.Stats.FailoverPolls))
		vals["hs notifications"] = append(vals["hs notifications"], float64(hs.Stats.Notifications))
		vals["ab gbps"] = append(vals["ab gbps"], ab.Gbps)
		vals["ab polls"] = append(vals["ab polls"], float64(ab.Stats.Polls))
		vals["ab notifications"] = append(vals["ab notifications"], float64(ab.Stats.Notifications))
	}
	for _, r := range rows {
		t.Series = append(t.Series, Series{Name: r, Values: vals[r]})
	}
	if len(t.Series) != len(rows) {
		panic(fmt.Sprintf("notify-parity: %d series, want %d", len(t.Series), len(rows)))
	}
	return t
}
