package sim

import (
	"testing"
	"time"
)

// run executes events until none remain.
func run(s *Simulation) {
	for s.Step() {
	}
}

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Nanosecond, func() { got = append(got, 3) })
	s.After(10*time.Nanosecond, func() { got = append(got, 1) })
	s.After(20*time.Nanosecond, func() { got = append(got, 2) })
	run(s)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %d, want 30", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	run(s)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(100, func() {})
	s.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(50, func() {})
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	ran := 0
	s.At(10, func() { ran++ })
	s.At(1000, func() { ran++ })
	s.RunUntil(500)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if s.Now() != 500 {
		t.Fatalf("Now = %d, want 500", s.Now())
	}
	s.RunUntil(2000)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(time.Nanosecond, recurse)
		}
	}
	s.After(0, recurse)
	run(s)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
}

func TestDeterminism(t *testing.T) {
	stamps := func() []Time {
		s := New(42)
		var stamps []Time
		for i := 0; i < 200; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Nanosecond
			s.After(d, func() { stamps = append(stamps, s.Now()) })
		}
		run(s)
		return stamps
	}
	a, b := stamps(), stamps()
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("event counts %d and %d, want 200", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic timestamps at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestFIFOBasic(t *testing.T) {
	var q FIFO[int]
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
	for i := 0; i < 1000; i++ {
		q.Push(i)
	}
	if q.Len() != 1000 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v want %d,true", v, ok, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
}

func TestFIFOInterleaved(t *testing.T) {
	var q FIFO[int]
	next := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			q.Push(round*10 + i)
		}
		for i := 0; i < 7; i++ {
			v, ok := q.Pop()
			if !ok || v != next {
				t.Fatalf("Pop = %d,%v want %d", v, ok, next)
			}
			next++
		}
	}
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		if v != next {
			t.Fatalf("tail Pop = %d want %d", v, next)
		}
		next++
	}
	if next != 500 {
		t.Fatalf("drained %d items, want 500", next)
	}
}
