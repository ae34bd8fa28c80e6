//go:build linux

package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qtls/internal/offload"
	"qtls/internal/qat"
	"qtls/internal/server"
)

// The §A.7 sample: QTLS with thresholds 64/32 and eight workers.
const sampleConf = `
worker_processes 8;
ssl_engine {
    use qat_engine;
    default_algorithm RSA,EC,DH,PKEY_CRYPTO;
    qat_engine {
        qat_offload_mode async;
        qat_notify_mode poll;
        qat_poll_mode heuristic;
        qat_heuristic_poll_asym_threshold 64;
        qat_heuristic_poll_sym_threshold 32;
    }
}
`

// -config takes a name or a file, and one rule orders the sources: a flag
// given on the command line beats the name-or-file value, which beats the
// offload default. A flag left at its default never clobbers a file value.
func TestResolveConfig(t *testing.T) {
	conf := filepath.Join(t.TempDir(), "nginx.conf")
	if err := os.WriteFile(conf, []byte(sampleConf), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		args      []string
		wantName  string
		wantAsym  int // after defaults
		wantSym   int
		wantWork  int
		wantErr   string
		wantExtra func(server.RunConfig) bool
	}{
		{name: "default is QTLS", wantName: "QTLS", wantAsym: 48, wantSym: 24, wantWork: 2},
		{name: "name", args: []string{"-config", "QAT+AH"}, wantName: "QAT+AH", wantAsym: 48, wantSym: 24, wantWork: 2},
		{name: "name + visited thresholds", args: []string{"-config", "QAT+AH", "-asym-threshold", "64", "-sym-threshold", "32", "-notify", "kernel-bypass"},
			wantName: "QAT+AH", wantAsym: 64, wantSym: 32, wantWork: 2,
			wantExtra: func(run server.RunConfig) bool { return run.Notify == offload.NotifierKernelBypass }},
		{name: "file", args: []string{"-config", conf}, wantName: "QTLS", wantAsym: 64, wantSym: 32, wantWork: 8},
		{name: "file + visited asym-threshold", args: []string{"-config", conf, "-asym-threshold", "16"},
			wantName: "QTLS", wantAsym: 16, wantSym: 32, wantWork: 8},
		{name: "file + visited workers and notify", args: []string{"-config", conf, "-workers", "3", "-notify", "fd"},
			wantName: "QTLS", wantAsym: 64, wantSym: 32, wantWork: 3,
			wantExtra: func(run server.RunConfig) bool { return run.Notify == offload.NotifierFD }},
		{name: "policy flags on a name", args: []string{"-config", "QTLS", "-placement", "conn-hash"},
			wantName: "QTLS", wantAsym: 48, wantSym: 24, wantWork: 2,
			wantExtra: func(run server.RunConfig) bool { return run.Placement == offload.PlacementConnHash }},
		{name: "unknown name that is not a file", args: []string{"-config", "QAT+X"}, wantErr: "SW, QAT+S, QAT+A, QAT+AH or QTLS, or the path"},
		{name: "bad notify", args: []string{"-notify", "smoke"}, wantErr: "unknown -notify"},
		{name: "removed notify coalesced", args: []string{"-notify", "coalesced"}, wantErr: "want fd or kernel-bypass"},
		{name: "removed placement class-shard", args: []string{"-placement", "class-shard"}, wantErr: "want single or conn-hash"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("qtlsserver", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			pf := addPolicyFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			run, workers, err := pf.resolve(fs)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			p := run.Policy.WithDefaults()
			if p.Name != tc.wantName || workers != tc.wantWork {
				t.Errorf("name/workers = %s/%d, want %s/%d", p.Name, workers, tc.wantName, tc.wantWork)
			}
			if p.Poll.AsymThreshold != tc.wantAsym || p.Poll.SymThreshold != tc.wantSym {
				t.Errorf("thresholds = %d/%d, want %d/%d", p.Poll.AsymThreshold, p.Poll.SymThreshold, tc.wantAsym, tc.wantSym)
			}
			if tc.wantExtra != nil && !tc.wantExtra(run) {
				t.Errorf("run config = %+v", run)
			}
		})
	}
}

// -fault is checked against the pool at startup: a statement aimed at a
// device or an endpoint that does not exist would otherwise target
// nothing without a word.
func TestParseFault(t *testing.T) {
	cases := []struct {
		spec    string
		devices int
		wantErr string
	}{
		{"dev1 stall", 2, ""},
		{"t=1s dev1 stall 1s; t=2s reset-storm", 2, ""},
		{"stall ep=2", 1, ""},
		{"dev2 stall", 2, "dev2"},
		{"t=1s dev99 stall 1s", 2, "dev99"},
		{"t=1s dev1 reset-storm n=2", 1, "dev1"},
		{"stall ep=3", 1, "ep=3"},
		{"t=1s dev0 drop 1s ep=7", 2, "ep=7"},
		{"stall:p=2", 1, "probability"},
	}
	for _, tc := range cases {
		_, err := parseFault(tc.spec, tc.devices)
		if tc.wantErr == "" && err != nil {
			t.Errorf("parseFault(%q, %d devices) = %v", tc.spec, tc.devices, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("parseFault(%q, %d devices) = %v, want an error naming %q", tc.spec, tc.devices, err, tc.wantErr)
		}
	}
}

// Every device has its own injector, so an untimed rule's count runs per
// device: reset:limit=1 resets each of two devices exactly once, whether
// or not a timed statement is also present.
func TestPoolRuleCountsPerDevice(t *testing.T) {
	for _, text := range []string{"reset:limit=1", "reset:limit=1; t=1h dev1 stall 1s"} {
		spec, err := parseFault(text, 2)
		if err != nil {
			t.Fatal(err)
		}
		pool, _ := newPool(spec, 2)
		for d := 0; d < pool.Size(); d++ {
			inst, err := pool.AllocInstance(d)
			if err != nil {
				t.Fatal(err)
			}
			resets := 0
			for i := 0; i < 5; i++ {
				err := inst.Submit(qat.Request{Op: qat.OpPRF, Work: func() (any, error) { return nil, nil }})
				if errors.Is(err, qat.ErrDeviceReset) {
					resets++
				}
			}
			var epResets int64
			for _, n := range pool.Device(d).Resets() {
				epResets += n
			}
			if resets != 1 || epResets != 1 {
				t.Errorf("%q: device %d reset %d times (%d endpoint resets), want 1", text, d, resets, epResets)
			}
		}
		pool.Close()
	}
	pool, injs := newPool(nil, 2)
	defer pool.Close()
	if injs[0] != nil || injs[1] != nil {
		t.Error("an empty -fault built an injector")
	}
}
