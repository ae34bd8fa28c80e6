//go:build linux

package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qtls/internal/offload"
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
