package offload

import "testing"

func TestRecordPolicyOffloadDecision(t *testing.T) {
	cases := []struct {
		name  string
		pol   RecordPolicy
		bytes int
		want  bool
	}{
		{"software-never", RecordPolicy{Mode: RecordSoftware}, 1 << 20, false},
		{"offload-always-small", RecordPolicy{Mode: RecordOffload}, 1, true},
		{"offload-always-large", RecordPolicy{Mode: RecordOffload}, 16384, true},
		{"adaptive-below", RecordPolicy{Mode: RecordAdaptive}, DefaultRecordThreshold - 1, false},
		{"adaptive-at", RecordPolicy{Mode: RecordAdaptive}, DefaultRecordThreshold, true},
		{"adaptive-custom-below", RecordPolicy{Mode: RecordAdaptive, SizeThreshold: 1024}, 1023, false},
		{"adaptive-custom-at", RecordPolicy{Mode: RecordAdaptive, SizeThreshold: 1024}, 1024, true},
	}
	for _, tc := range cases {
		if got := tc.pol.Offload(tc.bytes); got != tc.want {
			t.Errorf("%s: Offload(%d) = %v, want %v", tc.name, tc.bytes, got, tc.want)
		}
	}
}

func TestRecordPolicyDefaults(t *testing.T) {
	// The zero policy must stay zero under WithDefaults: the five named
	// configurations all carry it, and it is the canonical "no record
	// engine" value in both stacks.
	if got := (RecordPolicy{}).WithDefaults(); got != (RecordPolicy{}) {
		t.Errorf("zero RecordPolicy resolved to %+v", got)
	}
	got := RecordPolicy{Mode: RecordAdaptive}.WithDefaults()
	if got.SizeThreshold != DefaultRecordThreshold {
		t.Errorf("adaptive threshold default = %d, want %d", got.SizeThreshold, DefaultRecordThreshold)
	}
	for m, want := range map[RecordMode]string{
		RecordSoftware: "software", RecordOffload: "offload", RecordAdaptive: "adaptive",
	} {
		if m.String() != want {
			t.Errorf("RecordMode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
		if got, ok := RecordModeByName(want); !ok || got != m {
			t.Errorf("RecordModeByName(%q) = %v, %v", want, got, ok)
		}
	}
	if _, ok := RecordModeByName("bogus"); ok {
		t.Error("RecordModeByName accepted bogus")
	}
}
