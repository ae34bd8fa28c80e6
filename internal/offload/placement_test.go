package offload

import "testing"

// TestPlacementZeroValue pins the parity guarantee: the zero Placement is
// single-device, so every pre-placement Policy literal keeps its exact
// legacy meaning.
func TestPlacementZeroValue(t *testing.T) {
	var p Placement
	if p != PlacementSingle {
		t.Fatalf("zero Placement = %v, want single", p)
	}
	for _, cfg := range Configurations() {
		if cfg.Placement != PlacementSingle {
			t.Fatalf("%s: placement %v, want single", cfg.Name, cfg.Placement)
		}
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
