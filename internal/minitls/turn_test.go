package minitls

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// writeAsync drives a Writev of a‖b to completion under p, re-entering it
// with the same slices after every ErrWantAsync (once p has completed the
// outstanding seal) and ErrWantAsyncRetry.
func writeAsync(t *testing.T, server *Conn, p *manualProvider, a, b []byte) {
	t.Helper()
	for {
		_, err := server.Writev(a, b)
		switch {
		case err == nil:
			return
		case errors.Is(err, ErrWantAsync):
			if !p.completeOne() {
				t.Fatal("want-async with empty queue")
			}
		case errors.Is(err, ErrWantAsyncRetry):
		default:
			t.Fatalf("Writev: %v", err)
		}
	}
}

// TestFirstRecordCut: a write that opens a turn and needs more than one
// record starts with a record of one TCP segment (tcpMSSEstimate on the
// wire), and every later record is MaxPlaintext; a write in the middle of
// a turn is cut at MaxPlaintext only. The cut is the same in every async
// mode: a stack-async Writev re-entered after ErrWantAsync, and one
// re-entered after a failed submission, keep the offsets chosen when the
// write started. The peer reads every byte back.
func TestFirstRecordCut(t *testing.T) {
	segment := map[string]int{"cbc": 1151, "gcm": 1186}
	sizes := []int{1, 1151, 1152, MaxPlaintext, MaxPlaintext + 1, 262211}
	modes := map[string]AsyncMode{"off": AsyncModeOff, "fiber": AsyncModeFiber, "stack": AsyncModeStack}
	for suite, cfg := range recordPlaneSuites {
		for modeName, mode := range modes {
			t.Run(suite+"/"+modeName, func(t *testing.T) {
				p := &manualProvider{}
				srvCfg := *cfg
				srvCfg.Provider = p
				server, client, m := memPair(t, &srvCfg)
				server.config.AsyncMode = mode
				if got := tcpMSSEstimate - recordHeaderLen - server.out.protection().overhead(); got != segment[suite] {
					t.Fatalf("one-segment record holds %d bytes, want %d", got, segment[suite])
				}
				for _, size := range sizes {
					whole := make([]byte, size)
					for i := range whole {
						whole[i] = byte('a' + i%26)
					}
					// A header-sized first part, so records gather across both.
					a, b := whole[:min(size, 66)], whole[min(size, 66):]
					for _, fresh := range []bool{true, false} {
						name := fmt.Sprintf("%d bytes, fresh turn %v", size, fresh)
						if fresh {
							// The peer's request opens the turn.
							if _, err := client.Write([]byte("GET")); err != nil {
								t.Fatal(err)
							}
							if n, err := server.Read(make([]byte, 8)); n != 3 || err != nil {
								t.Fatalf("%s: server read %d, %v", name, n, err)
							}
						}
						first := MaxPlaintext
						if fresh && size > MaxPlaintext {
							first = segment[suite]
						}
						want := recordCuts(size, first)

						p.failNext = 1 // one ring-full retry per write
						m.writes = nil
						writeAsync(t, server, p, a, b)
						lens, plain := readRecords(t, client)
						if fmt.Sprint(lens) != fmt.Sprint(want) {
							t.Fatalf("%s: record plaintext lengths %v, want %v", name, lens, want)
						}
						if !bytes.Equal(plain, whole) {
							t.Fatalf("%s: peer read different bytes", name)
						}
						if fresh && size > MaxPlaintext && m.writes[0] > tcpMSSEstimate {
							t.Fatalf("%s: first record is %d bytes on the wire, want <= %d", name, m.writes[0], tcpMSSEstimate)
						}
					}
				}
				if p.pending() != 0 {
					t.Fatalf("%d seals never retrieved", p.pending())
				}
			})
		}
	}
}
