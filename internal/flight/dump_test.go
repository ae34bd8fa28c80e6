package flight

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"qtls/internal/trace"
)

// fuzzEvents decodes data into journal events, 20 bytes each: kind, code,
// op and worker bytes, then the time, dur and arg words. Kinds run one past
// the last real kind so unknown kinds round-trip too.
func fuzzEvents(data []byte) []Event {
	var evs []Event
	for ; len(data) >= 20; data = data[20:] {
		evs = append(evs, Event{
			Kind:   Kind(data[0] % (uint8(numKinds) + 1)),
			Code:   data[1],
			Op:     trace.Op(data[2]),
			Worker: uint16(data[3]),
			Time:   int64(binary.LittleEndian.Uint32(data[4:])) * int64(time.Millisecond),
			Dur:    int64(binary.LittleEndian.Uint64(data[8:])),
			Arg:    int64(binary.LittleEndian.Uint32(data[16:])),
		})
	}
	return evs
}

// FuzzReadDump feeds operator bytes to the dump reader: ReadDump and
// Dump.Report never panic on any input, and a dump WriteDumpEvents
// wrote — here of events decoded from the same input — reads back with
// the same event count, kinds and codes.
func FuzzReadDump(f *testing.F) {
	r, clk := newTestRecorder(Config{})
	r.PhaseWindow(trace.PhaseRetrieve).Observe(float64(2*time.Millisecond), clk.now())
	var every []Event
	for k := Kind(0); k < numKinds; k++ {
		every = append(every, Event{Time: clk.now() + int64(k), Kind: k, Code: 1, Worker: uint16(k), Dur: 3e6, Arg: int64(k)})
	}
	var seed bytes.Buffer
	if err := r.WriteDumpEvents(&seed, "manual", every); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"t_ns":1,"kind":"lifecycle","code":"wedge","dur_ns":-1,"arg":9}`))
	f.Add([]byte("{}\n\n[1]\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := ReadDump(bytes.NewReader(data)); err == nil {
			d.Report(io.Discard, 3)
		}

		evs := fuzzEvents(data)
		var buf bytes.Buffer
		if err := r.WriteDumpEvents(&buf, "fuzz", evs); err != nil {
			t.Fatal(err)
		}
		d, err := ReadDump(&buf)
		if err != nil {
			t.Fatalf("written dump does not read back: %v\n%s", err, buf.Bytes())
		}
		if d.Header.Reason != "fuzz" || d.Header.Events != len(evs) || len(d.Events) != len(evs) {
			t.Fatalf("read back header %+v with %d events, wrote %d", d.Header, len(d.Events), len(evs))
		}
		for i, e := range evs {
			got := d.Events[i]
			if got.Kind != e.Kind.String() || got.Code != codeName(e.Kind, e.Code) ||
				got.TimeNs != e.Time || got.DurNs != e.Dur || got.Arg != e.Arg {
				t.Fatalf("event %d: wrote %+v, read back %+v", i, e, got)
			}
		}
		d.Report(io.Discard, 0)
	})
}
