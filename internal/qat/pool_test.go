package qat

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestAllocInstanceExhaustion pins the exhaustion path: the error must
// wrap ErrNoInstances, name the device index, and a device Reset must
// clear the allocation counters so re-alloc succeeds.
func TestAllocInstanceExhaustion(t *testing.T) {
	spec := DeviceSpec{Endpoints: 2, MaxInstancesPerEndpoint: 2, EnginesPerEndpoint: 1}
	p := NewPool(2, spec)
	defer p.Close()

	for dev := 0; dev < p.Size(); dev++ {
		for i := 0; i < 4; i++ {
			if _, err := p.AllocInstance(dev); err != nil {
				t.Fatalf("device %d alloc %d: %v", dev, i, err)
			}
		}
		_, err := p.AllocInstance(dev)
		if err == nil {
			t.Fatalf("device %d: alloc beyond capacity succeeded", dev)
		}
		if !errors.Is(err, ErrNoInstances) {
			t.Fatalf("device %d: exhaustion error %v does not wrap ErrNoInstances", dev, err)
		}
		want := fmt.Sprintf("device %d", dev)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("device %d: exhaustion error %q missing %q", dev, err, want)
		}
	}

	// Reset reinitializes the rings: allocation must succeed again.
	p.Device(1).Reset()
	inst, err := p.Device(1).AllocInstance()
	if err != nil {
		t.Fatalf("post-Reset alloc: %v", err)
	}
	// The re-allocated instance must be live end-to-end.
	done := make(chan struct{})
	if err := inst.Submit(Request{Op: OpPRF, Work: func() (any, error) { return 42, nil },
		Callback: func(r Response) {
			if r.Err != nil {
				t.Errorf("post-Reset op: %v", r.Err)
			}
			close(done)
		}}); err != nil {
		t.Fatalf("post-Reset submit: %v", err)
	}
	for inst.Available() == 0 {
	}
	inst.Poll(0)
	<-done
	// Device 0 was not reset and must still be exhausted.
	if _, err := p.Device(0).AllocInstance(); !errors.Is(err, ErrNoInstances) {
		t.Fatalf("device 0: want ErrNoInstances after neighbour reset, got %v", err)
	}
}

// TestPoolHealthPressure checks the per-device and pool-wide pressure
// views that admission control and qatinfo consume.
func TestPoolHealthPressure(t *testing.T) {
	spec := DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1, RingCapacity: 8}
	p := NewPool(2, spec)
	defer p.Close()
	i0, err := p.AllocInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AllocInstance(1); err != nil {
		t.Fatal(err)
	}

	block := make(chan struct{})
	for k := 0; k < 4; k++ {
		if err := i0.Submit(Request{Op: OpRSA, Work: func() (any, error) { <-block; return nil, nil }}); err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
	}
	h := p.Health()
	if len(h) != 2 {
		t.Fatalf("health: %d devices, want 2", len(h))
	}
	if h[0].Inflight != 4 || h[0].RingCapacity != 8 {
		t.Fatalf("device 0 health = %+v, want inflight 4 cap 8", h[0])
	}
	if got := h[0].Pressure(); got != 0.5 {
		t.Fatalf("device 0 pressure = %v, want 0.5", got)
	}
	if h[1].Inflight != 0 {
		t.Fatalf("device 1 health = %+v, want idle", h[1])
	}
	inflight, capacity := p.TotalPressure()
	if inflight != 4 || capacity != 16 {
		t.Fatalf("total pressure = %d/%d, want 4/16", inflight, capacity)
	}
	close(block)
}
