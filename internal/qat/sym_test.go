package qat

import (
	"testing"
	"time"
)

// TestSymByteCalibratedServiceTime verifies that OpSym engine occupancy
// scales with Request.Bytes: a 64 KB record must hold an engine visibly
// longer than a 1 KB record under the same calibration.
func TestSymByteCalibratedServiceTime(t *testing.T) {
	dev := NewDevice(DeviceSpec{
		Endpoints:          1,
		EnginesPerEndpoint: 1, // serialize: occupancy becomes latency
		SymBaseTime:        100 * time.Microsecond,
		SymPerKB:           200 * time.Microsecond,
	})
	defer dev.Close()
	inst, err := dev.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}

	timeOne := func(bytes int) time.Duration {
		start := time.Now()
		err := inst.Submit(Request{
			Op:    OpSym,
			Bytes: bytes,
			Work:  func() (any, error) { return nil, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		for inst.Poll(1) == 0 {
			time.Sleep(20 * time.Microsecond)
		}
		return time.Since(start)
	}

	small := timeOne(1024)
	large := timeOne(64 * 1024)
	// Calibrated floors: 300µs for 1KB, 12.9ms for 64KB. Sleeps can only
	// lengthen them — by up to a millisecond each when the runtime's
	// timers go through epoll, which is why the two sizes are 12 ms apart
	// — so compare against the midpoint.
	if small < 300*time.Microsecond {
		t.Errorf("1KB sym op completed in %v, below its calibrated floor", small)
	}
	if large < 8*time.Millisecond {
		t.Errorf("64KB sym op completed in %v; want byte-proportional occupancy (>= ~12.9ms)", large)
	}
	if large < 2*small {
		t.Errorf("64KB op (%v) not proportionally slower than 1KB op (%v)", large, small)
	}
}

// TestSymCountersAndStats checks OpSym flows through the firmware
// counters and instance stats like the asymmetric ops do.
func TestSymCountersAndStats(t *testing.T) {
	dev := NewDevice(DeviceSpec{Endpoints: 1})
	defer dev.Close()
	inst, err := dev.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	got := 0
	for i := 0; i < n; i++ {
		err := inst.Submit(Request{
			Op:       OpSym,
			Bytes:    4096,
			Work:     func() (any, error) { return 42, nil },
			Callback: func(r Response) { got++ },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for got < n && time.Now().Before(deadline) {
		inst.Poll(0)
		time.Sleep(100 * time.Microsecond)
	}
	if got != n {
		t.Fatalf("retrieved %d/%d sym responses", got, n)
	}
	ctr := dev.Counters()[0]
	if ctr.Requests[OpSym] != n || ctr.Responses[OpSym] != n {
		t.Errorf("fw counters for sym = %d/%d, want %d/%d",
			ctr.Requests[OpSym], ctr.Responses[OpSym], n, n)
	}
	if OpSym.Asymmetric() {
		t.Error("OpSym must not be classified asymmetric")
	}
	if OpSym.String() != "sym" {
		t.Errorf("OpSym.String() = %q", OpSym.String())
	}
}
