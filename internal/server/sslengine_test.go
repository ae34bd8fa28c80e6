package server

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"qtls/internal/minitls"
	"qtls/internal/offload"
)

// The example from the artifact appendix (§A.7), with threshold overrides
// deliberately different from the offload-package defaults so the test
// proves the directives are read rather than defaulted.
const artifactConf = `
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

// The other conf texts of the parse tests, named so the fuzz target can
// seed its corpus with them.
const (
	confNoEngine = "worker_processes 4;"
	confSync     = `
ssl_engine {
    use qat_engine;
    qat_engine { qat_offload_mode sync; }
}`
	confTimerFD = `
ssl_engine {
    use qat_engine;
    qat_engine {
        qat_offload_mode async;
        qat_poll_mode timer;
        qat_notify_mode event_fd;
        qat_poll_interval 1ms;
    }
}`
	confHeuristicFD = `
ssl_engine {
    use qat_engine;
    qat_engine {
        qat_offload_mode async;
        qat_poll_mode heuristic;
        qat_notify_mode fd;
    }
}`
	confStack = `
ssl_engine {
    use qat_engine;
    qat_engine { qat_offload_mode async_stack; }
}`
	confComments = `
# a comment
worker_processes 2; # trailing comment
ssl_engine {
    use qat_engine;  # another
    qat_engine { qat_offload_mode async; }
}`
)

func TestParseArtifactExample(t *testing.T) {
	s, err := ParseEngineConfig(artifactConf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers != 8 {
		t.Fatalf("workers = %d", s.Workers)
	}
	if s.Run.Name != "QTLS" {
		t.Fatalf("config = %s, want QTLS (async+heuristic+poll-notify)", s.Run.Name)
	}
	if !s.Run.UseQAT || s.Run.asyncMode() != minitls.AsyncModeFiber {
		t.Fatalf("run = %+v", s.Run)
	}
	if s.Run.Poll.Scheme != offload.PollHeuristic || s.Run.Notify != offload.NotifierKernelBypass {
		t.Fatalf("polling/notify = %v/%v", s.Run.Poll.Scheme, s.Run.Notify)
	}
	if s.Run.Poll.AsymThreshold != 64 || s.Run.Poll.SymThreshold != 32 {
		t.Fatalf("thresholds = %d/%d", s.Run.Poll.AsymThreshold, s.Run.Poll.SymThreshold)
	}
	// RSA,EC,DH,PKEY_CRYPTO → RSA, ECDSA, ECDH, PRF (no cipher).
	want := []minitls.OpKind{minitls.KindRSA, minitls.KindECDSA, minitls.KindECDH, minitls.KindPRF}
	if len(s.Run.Offload) != len(want) {
		t.Fatalf("offload = %v", s.Run.Offload)
	}
	for i, k := range want {
		if s.Run.Offload[i] != k {
			t.Fatalf("offload = %v, want %v", s.Run.Offload, want)
		}
	}
}

func TestParseNoEngineMeansSW(t *testing.T) {
	s, err := ParseEngineConfig(confNoEngine)
	if err != nil {
		t.Fatal(err)
	}
	if s.Run.Name != "SW" || s.Run.UseQAT {
		t.Fatalf("run = %+v", s.Run)
	}
	if s.Workers != 4 {
		t.Fatalf("workers = %d", s.Workers)
	}
}

func TestParseSyncModeIsQATS(t *testing.T) {
	s, err := ParseEngineConfig(confSync)
	if err != nil {
		t.Fatal(err)
	}
	if s.Run.Name != "QAT+S" || s.Run.asyncMode() != minitls.AsyncModeOff {
		t.Fatalf("run = %+v", s.Run)
	}
}

func TestParseTimerFDIsQATA(t *testing.T) {
	s, err := ParseEngineConfig(confTimerFD)
	if err != nil {
		t.Fatal(err)
	}
	if s.Run.Name != "QAT+A" || s.Run.Poll.Scheme != offload.PollTimer || s.Run.Notify != offload.NotifierFD {
		t.Fatalf("run = %+v", s.Run)
	}
	if s.Run.Poll.Interval != time.Millisecond {
		t.Fatalf("interval = %v", s.Run.Poll.Interval)
	}
}

func TestParseHeuristicFDIsQATAH(t *testing.T) {
	s, err := ParseEngineConfig(confHeuristicFD)
	if err != nil {
		t.Fatal(err)
	}
	if s.Run.Name != "QAT+AH" {
		t.Fatalf("run = %+v", s.Run)
	}
}

func TestParseStackAsyncMode(t *testing.T) {
	s, err := ParseEngineConfig(confStack)
	if err != nil {
		t.Fatal(err)
	}
	if s.Run.asyncMode() != minitls.AsyncModeStack {
		t.Fatalf("mode = %v", s.Run.asyncMode())
	}
}

func TestParseAlgorithmVariants(t *testing.T) {
	kinds, err := parseAlgorithms("ALL")
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 5 {
		t.Fatalf("ALL = %v", kinds)
	}
	kinds, err = parseAlgorithms("CIPHERS,rsa,")
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 2 || kinds[0] != minitls.KindRSA || kinds[1] != minitls.KindCipher {
		t.Fatalf("kinds = %v", kinds)
	}
	if _, err := parseAlgorithms("HKDF"); err == nil {
		t.Fatal("HKDF must be rejected (not offloadable)")
	}
}

func TestParseComments(t *testing.T) {
	s, err := ParseEngineConfig(confComments)
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers != 2 || !s.Run.UseQAT {
		t.Fatalf("parsed = %+v", s)
	}
}

var parseErrorCases = []struct {
	name, conf, wantErr string
}{
	{"unknown top directive", "listen 80;", "unknown directive"},
	{"unknown engine", "ssl_engine { use foo_engine; }", "unknown engine"},
	{"unknown inner", "ssl_engine { frob 1; }", "unknown directive"},
	{"unknown qat directive", "ssl_engine { use qat_engine; qat_engine { nope 1; } }", "unknown directive"},
	{"bad offload mode", "ssl_engine { use qat_engine; qat_engine { qat_offload_mode warp; } }", "unknown mode"},
	{"bad poll mode", "ssl_engine { use qat_engine; qat_engine { qat_offload_mode async; qat_poll_mode never; } }", "unknown mode"},
	{"bad notify mode", "ssl_engine { use qat_engine; qat_engine { qat_offload_mode async; qat_notify_mode smoke; } }", "unknown mode"},
	{"missing semicolon", "worker_processes 8", "expected"},
	{"bad int", "worker_processes eight;", "invalid syntax"},
	{"truncated block", "ssl_engine {", "unexpected end"},
	{"missing arg", "worker_processes ;", "missing argument"},
	{"bad interval", "ssl_engine { use qat_engine; qat_engine { qat_offload_mode async; qat_poll_interval soon; } }", "qat_poll_interval"},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseEngineConfig(tc.conf)
			if err == nil {
				t.Fatalf("no error for %q", tc.conf)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// confFor writes a policy's switches in the dialect: the inverse of
// ParseEngineConfig for the settings the dialect can express.
func confFor(p offload.Policy) string {
	if !p.UseQAT {
		return "worker_processes 1;"
	}
	if !p.Async {
		return "ssl_engine { use qat_engine; qat_engine { qat_offload_mode sync; } }"
	}
	notify := "event_fd"
	if p.Notify == offload.NotifierKernelBypass {
		notify = "poll"
	}
	return "ssl_engine { use qat_engine; qat_engine { qat_offload_mode async; qat_poll_mode " +
		p.Poll.Scheme.String() + "; qat_notify_mode " + notify + "; } }"
}

// Each of the paper's five configurations, written in the dialect, parses
// back to exactly that policy — name included, defaults applied.
func TestParseRoundTripsConfigurations(t *testing.T) {
	for _, want := range offload.Configurations() {
		s, err := ParseEngineConfig(confFor(want))
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if got := s.Run.Policy.WithDefaults(); !reflect.DeepEqual(got, want.WithDefaults()) {
			t.Errorf("%s parsed to\n  %+v, want\n  %+v", want.Name, got, want.WithDefaults())
		}
	}
}

// Whatever the text, the parser returns an error or a usable policy: it
// never panics, resolving the defaults is idempotent, and the name is one
// of the paper's five or "custom".
func FuzzParseEngineConfig(f *testing.F) {
	seeds := []string{artifactConf, confNoEngine, confSync, confTimerFD, confHeuristicFD, confStack, confComments,
		"ssl_engine { use qat_engine; default_algorithm ALL; }",
		"ssl_engine { use qat_engine; default_algorithm CIPHERS,rsa,; }",
		"ssl_engine { use qat_engine; default_algorithm HKDF; }"}
	for _, tc := range parseErrorCases {
		seeds = append(seeds, tc.conf)
	}
	for _, p := range offload.Configurations() {
		seeds = append(seeds, confFor(p))
	}
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseEngineConfig(text)
		if err != nil {
			return
		}
		p := s.Run.Policy.WithDefaults()
		if again := p.WithDefaults(); !reflect.DeepEqual(again, p) {
			t.Fatalf("WithDefaults not idempotent:\n  %+v\n  %+v", p, again)
		}
		if _, named := offload.ByName(p.Name); !named && p.Name != "custom" {
			t.Fatalf("name %q is neither a paper configuration nor custom", p.Name)
		}
	})
}
