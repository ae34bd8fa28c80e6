package server

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"qtls/internal/minitls"
	"qtls/internal/offload"
)

// This file implements the SSL Engine Framework configuration surface the
// QTLS artifact exposes in the Nginx conf file (§A.7): which engine to
// use, which algorithms to offload, and the offload/notify/poll mode
// switches, e.g.
//
//	worker_processes 8;
//	ssl_engine {
//	    use qat_engine;
//	    default_algorithm RSA,EC,DH,PKEY_CRYPTO;
//	    qat_engine {
//	        qat_offload_mode async;
//	        qat_notify_mode poll;
//	        qat_poll_mode heuristic;
//	        qat_heuristic_poll_asym_threshold 64;
//	        qat_heuristic_poll_sym_threshold 32;
//	    }
//	}
//
// The threshold directives override the paper defaults, which are defined
// once in internal/offload and applied when a directive is absent.
//
// ParseEngineConfig understands this dialect (plus worker_processes and a
// qat_poll_interval extension) and fills the equivalent RunConfig: the
// mode switches and thresholds land in its embedded offload.Policy,
// default_algorithm in its Offload selection.

// EngineSettings is the result of parsing an ssl_engine configuration.
type EngineSettings struct {
	// Workers is worker_processes (0 = unset).
	Workers int
	// Run is the equivalent run configuration. Run.Name is the paper
	// configuration whose switches the text selects, or "custom".
	Run RunConfig
}

// ParseEngineConfig parses the SSL Engine Framework dialect. Unknown
// directives are rejected (like nginx would).
func ParseEngineConfig(text string) (*EngineSettings, error) {
	p := &confParser{toks: tokenizeConf(text)}
	s := &EngineSettings{}
	pol := &s.Run.Policy
	useQATEngine := false
	offloadMode := "sync"
	pollMode := "timer"
	notifyMode := "poll"

	for !p.done() {
		word, err := p.word()
		if err != nil {
			return nil, err
		}
		switch word {
		case "worker_processes":
			v, err := p.intArg(word)
			if err != nil {
				return nil, err
			}
			s.Workers = v
		case "ssl_engine":
			if err := p.expect("{"); err != nil {
				return nil, err
			}
			for {
				if p.peek() == "}" {
					p.word()
					break
				}
				inner, err := p.word()
				if err != nil {
					return nil, err
				}
				switch inner {
				case "use":
					name, err := p.strArg(inner)
					if err != nil {
						return nil, err
					}
					if name != "qat_engine" {
						return nil, fmt.Errorf("ssl_engine: unknown engine %q", name)
					}
					useQATEngine = true
				case "default_algorithm":
					algs, err := p.strArg(inner)
					if err != nil {
						return nil, err
					}
					kinds, err := parseAlgorithms(algs)
					if err != nil {
						return nil, err
					}
					s.Run.Offload = kinds
				case "qat_engine":
					if err := p.expect("{"); err != nil {
						return nil, err
					}
					for {
						if p.peek() == "}" {
							p.word()
							break
						}
						dir, err := p.word()
						if err != nil {
							return nil, err
						}
						switch dir {
						case "qat_offload_mode":
							if offloadMode, err = p.strArg(dir); err != nil {
								return nil, err
							}
						case "qat_notify_mode":
							if notifyMode, err = p.strArg(dir); err != nil {
								return nil, err
							}
						case "qat_poll_mode":
							if pollMode, err = p.strArg(dir); err != nil {
								return nil, err
							}
						case "qat_heuristic_poll_asym_threshold":
							if pol.Poll.AsymThreshold, err = p.intArg(dir); err != nil {
								return nil, err
							}
						case "qat_heuristic_poll_sym_threshold":
							if pol.Poll.SymThreshold, err = p.intArg(dir); err != nil {
								return nil, err
							}
						case "qat_poll_interval":
							str, err := p.strArg(dir)
							if err != nil {
								return nil, err
							}
							d, err := time.ParseDuration(str)
							if err != nil {
								return nil, fmt.Errorf("%s: %v", dir, err)
							}
							pol.Poll.Interval = d
						default:
							return nil, fmt.Errorf("qat_engine: unknown directive %q", dir)
						}
					}
				default:
					return nil, fmt.Errorf("ssl_engine: unknown directive %q", inner)
				}
			}
		default:
			return nil, fmt.Errorf("unknown directive %q", word)
		}
	}

	// Assemble the policy from the mode switches.
	if !useQATEngine {
		*pol = offload.SW()
		return s, nil
	}
	pol.UseQAT = true
	switch offloadMode {
	case "sync":
		// Straight offload retrieves inline: the poll and notify switches
		// do not apply.
		pol.Name = configName(*pol)
		return s, nil
	case "async":
	case "async_stack":
		s.Run.AsyncMode = minitls.AsyncModeStack
	default:
		return nil, fmt.Errorf("qat_offload_mode: unknown mode %q", offloadMode)
	}
	pol.Async = true
	switch pollMode {
	case "timer":
		pol.Poll.Scheme = offload.PollTimer
	case "heuristic":
		pol.Poll.Scheme = offload.PollHeuristic
	default:
		return nil, fmt.Errorf("qat_poll_mode: unknown mode %q", pollMode)
	}
	switch notifyMode {
	case "poll":
		// "poll" in the artifact config means events are discovered by
		// polling and delivered through the wait-ctx notification: the
		// kernel-bypass scheme.
		pol.Notify = offload.NotifierKernelBypass
	case "event_fd", "fd":
		pol.Notify = offload.NotifierFD
	default:
		return nil, fmt.Errorf("qat_notify_mode: unknown mode %q", notifyMode)
	}
	pol.Name = configName(*pol)
	return s, nil
}

// configName labels a policy with the paper configuration (§5.1) whose
// switches it selects — thresholds and intervals tune a configuration
// without renaming it — or "custom" when it is none of the five.
func configName(p offload.Policy) string {
	for _, c := range offload.Configurations() {
		if p.UseQAT == c.UseQAT && p.Async == c.Async && p.Poll.Scheme == c.Poll.Scheme && p.Notify == c.Notify {
			return c.Name
		}
	}
	return "custom"
}

// parseAlgorithms maps the artifact's default_algorithm names onto op
// kinds. RSA→RSA; EC→ECDSA+ECDH; DH→ECDH; PKEY_CRYPTO→PRF;
// CIPHERS→record cipher; ALL→everything offloadable.
func parseAlgorithms(list string) ([]minitls.OpKind, error) {
	set := map[minitls.OpKind]bool{}
	for _, name := range strings.Split(list, ",") {
		switch strings.ToUpper(strings.TrimSpace(name)) {
		case "RSA":
			set[minitls.KindRSA] = true
		case "EC", "ECDSA", "ECDH":
			set[minitls.KindECDSA] = true
			set[minitls.KindECDH] = true
		case "DH":
			set[minitls.KindECDH] = true
		case "PKEY_CRYPTO", "PRF":
			set[minitls.KindPRF] = true
		case "CIPHERS", "CIPHER":
			set[minitls.KindCipher] = true
		case "ALL":
			for _, k := range []minitls.OpKind{minitls.KindRSA, minitls.KindECDSA,
				minitls.KindECDH, minitls.KindPRF, minitls.KindCipher} {
				set[k] = true
			}
		case "":
			// tolerate trailing commas
		default:
			return nil, fmt.Errorf("default_algorithm: unknown algorithm %q", name)
		}
	}
	var kinds []minitls.OpKind
	for _, k := range []minitls.OpKind{minitls.KindRSA, minitls.KindECDSA,
		minitls.KindECDH, minitls.KindPRF, minitls.KindCipher} {
		if set[k] {
			kinds = append(kinds, k)
		}
	}
	return kinds, nil
}

// --- tiny nginx-style tokenizer/parser -------------------------------------

type confParser struct {
	toks []string
	pos  int
}

func tokenizeConf(text string) []string {
	var toks []string
	lines := strings.Split(text, "\n")
	for _, line := range lines {
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.ReplaceAll(line, "{", " { ")
		line = strings.ReplaceAll(line, "}", " } ")
		line = strings.ReplaceAll(line, ";", " ; ")
		toks = append(toks, strings.Fields(line)...)
	}
	return toks
}

func (p *confParser) done() bool { return p.pos >= len(p.toks) }

func (p *confParser) peek() string {
	if p.done() {
		return ""
	}
	return p.toks[p.pos]
}

func (p *confParser) word() (string, error) {
	if p.done() {
		return "", fmt.Errorf("conf: unexpected end of input")
	}
	t := p.toks[p.pos]
	p.pos++
	return t, nil
}

func (p *confParser) expect(tok string) error {
	got, err := p.word()
	if err != nil {
		return err
	}
	if got != tok {
		return fmt.Errorf("conf: expected %q, got %q", tok, got)
	}
	return nil
}

// strArg reads one argument terminated by ';'.
func (p *confParser) strArg(directive string) (string, error) {
	v, err := p.word()
	if err != nil {
		return "", fmt.Errorf("%s: missing argument", directive)
	}
	if v == ";" || v == "{" || v == "}" {
		return "", fmt.Errorf("%s: missing argument", directive)
	}
	if err := p.expect(";"); err != nil {
		return "", fmt.Errorf("%s: %v", directive, err)
	}
	return v, nil
}

func (p *confParser) intArg(directive string) (int, error) {
	v, err := p.strArg(directive)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", directive, err)
	}
	return n, nil
}
