package figures

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tiny returns sub-smoke durations: the values are statistically
// meaningless but every generator's full code path executes.
func tiny() Opts {
	return Opts{Warmup: 40 * time.Millisecond, Measure: 60 * time.Millisecond}
}

// checkGolden compares one generator's CSV rendering against
// testdata/<id>.golden byte for byte. The DES is deterministic for a
// fixed seed, so any behavioral drift — a reordered delivery, an extra
// poll, a cost charged twice, a default resolved differently — shows up
// as a byte diff.
//
// Regenerate deliberately (after an intentional model change) with:
//
//	QTLS_UPDATE_GOLDEN=1 go test ./internal/perf/figures/ -run TestAllGeneratorsSmoke
func checkGolden(t *testing.T, id, got string) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	if os.Getenv("QTLS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (generate with QTLS_UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		t.Errorf("%s output drifted from its golden\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
	}
}

// Every DES generator runs end-to-end at tiny scale and its output is
// byte-pinned: the refactoring guard for the model and for the policy
// seam it shares with the live stack. The paper figures listed with a
// series count additionally keep their shape assertions: a well-formed
// table with positive values where the model guarantees activity.
// (notify-parity fixes its own durations and ignores the options.)
func TestAllGeneratorsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke sweep")
	}
	cases := []struct {
		id         string
		wantSeries int // 0: the golden alone pins the shape
	}{
		{"fig7a", 0},
		{"fig7b", 5},
		{"fig7c", 5},
		{"fig8", 5},
		{"fig9a", 0},
		{"fig9b", 5},
		{"fig10", 0},
		{"fig11", 4},
		{"fig12a", 3},
		{"fig12b", 0},
		{"fig12c", 3},
		{"blackbox", 0},
		{"notify-parity", 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel() // generators share no state; each owns its simulation
			gen, ok := ByID(tc.id)
			if !ok {
				t.Fatalf("ByID(%q) missing", tc.id)
			}
			tab := gen(tiny())
			if tab.ID != tc.id {
				t.Fatalf("ID = %q", tab.ID)
			}
			if tc.wantSeries > 0 {
				checkShape(t, tab, tc.wantSeries)
				// The fastest configuration must show activity in every
				// column even at tiny scale.
				best := tab.Series[len(tab.Series)-1]
				for i, v := range best.Values {
					if v <= 0 {
						t.Fatalf("%s/%s col %s = %v", tc.id, best.Name, tab.Columns[i], v)
					}
				}
			}
			checkGolden(t, tc.id, tab.CSV())
		})
	}
}
