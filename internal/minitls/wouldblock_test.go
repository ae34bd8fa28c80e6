//go:build linux

package minitls

import (
	"fmt"
	"testing"

	"qtls/internal/netpoll"
)

// The transport's would-block error is recognised without an allocation,
// and a wrapped one is still recognised.
func TestIsWouldBlock(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if !isWouldBlock(netpoll.ErrWouldBlock) {
			t.Fatal("netpoll.ErrWouldBlock not recognised")
		}
	}); n != 0 {
		t.Fatalf("isWouldBlock(netpoll.ErrWouldBlock) allocates %v objects, want 0", n)
	}
	if !isWouldBlock(fmt.Errorf("read: %w", netpoll.ErrWouldBlock)) {
		t.Fatal("wrapped would-block error not recognised")
	}
	if isWouldBlock(fmt.Errorf("read: %w", errDecode)) || isWouldBlock(nil) {
		t.Fatal("an error without WouldBlock recognised as would-block")
	}
}
