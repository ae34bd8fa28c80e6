package asynclib

import (
	"iter"
	"sync"
)

// maxIdleFibers bounds the idle list: the fibers (one parked goroutine and
// its grown stack each) the process keeps after the jobs that needed them
// are gone. 64 is the deepest concurrency the paper sweeps per worker
// (Fig. 11); a burst beyond it still gets a fiber each, the surplus just
// exits instead of being kept.
const maxIdleFibers = 64

// fiber is a persistent coroutine that runs one job function after another.
// Creating one costs a goroutine and, on the first handshake, growing its
// stack through the TLS state machine; both are paid once per fiber, not
// once per job. next switches into the coroutine and returns at its next
// yield: a Pause, or the end of the job function.
type fiber struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	job   *Job // the job to run next, or running; nil while idle
}

// idle is the process-wide list of fibers waiting for a job. Workers share
// it, so a fiber may be driven by different goroutines over its life — one
// at a time, ordered by the mutex. (None of them may be locked to an OS
// thread: the runtime requires a coroutine's callers to match the thread
// lock state of its creator.)
var idle struct {
	sync.Mutex
	fibers []*fiber
}

// getFiber takes an idle fiber, or makes one.
func getFiber() *fiber {
	idle.Lock()
	if n := len(idle.fibers); n > 0 {
		f := idle.fibers[n-1]
		idle.fibers[n-1] = nil
		idle.fibers = idle.fibers[:n-1]
		idle.Unlock()
		return f
	}
	idle.Unlock()
	f := &fiber{}
	f.next, f.stop = iter.Pull(f.run)
	return f
}

// putFiber returns a fiber whose job has finished to the idle list; past
// the cap it is stopped, which ends its goroutine.
func putFiber(f *fiber) {
	idle.Lock()
	if len(idle.fibers) < maxIdleFibers {
		idle.fibers = append(idle.fibers, f)
		idle.Unlock()
		return
	}
	idle.Unlock()
	f.stop()
}

// run is the coroutine body: run the job StartJob attached, yield, and find
// the next job attached on return. The yield after a job reports false only
// to a fiber being stopped.
func (f *fiber) run(yield func(struct{}) bool) {
	f.yield = yield
	for {
		j := f.job
		j.err = j.fn(j)
		j.finished = true
		if !yield(struct{}{}) {
			return
		}
	}
}
