package offload

import "testing"

// TestPlacementZeroValue pins the parity guarantee: the zero Placement is
// single-device, so a configuration that never sets one runs the paper's
// setup (server's TestConfigStrings checks the five named ones).
func TestPlacementZeroValue(t *testing.T) {
	var p Placement
	if p != PlacementSingle {
		t.Fatalf("zero Placement = %v, want single", p)
	}
}

func TestPlacementByName(t *testing.T) {
	for _, p := range []Placement{PlacementSingle, PlacementConnHash} {
		got, ok := PlacementByName(p.String())
		if !ok || got != p {
			t.Fatalf("PlacementByName(%q) = %v, %v", p.String(), got, ok)
		}
	}
	for _, name := range []string{"bogus", "class-shard"} {
		if _, ok := PlacementByName(name); ok {
			t.Errorf("PlacementByName accepted %q", name)
		}
	}
}
