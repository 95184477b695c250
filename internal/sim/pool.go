package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool is a bounded pool of persistent worker goroutines for data-parallel
// fan-out of deterministic work: the per-cycle router tick of the network
// simulator and the per-job fan-out of the experiment harness both run on
// it. A Pool never owns ordering — Do hands the index space [0, n) out
// dynamically, so callers must ensure fn(i) touches only state owned by
// index i and must merge any cross-index effects in index order on their
// own goroutine. That split (scheduling here, ordering at the caller) is
// what keeps worker-count changes invisible in results.
//
// A Pool with one worker, or a one-task batch, runs entirely inline on the
// calling goroutine: no goroutines are spawned and no channel operations
// are performed, so serial configurations pay zero pool overhead. Workers
// are started lazily on the first parallel Do and park on a channel
// between batches; a warmed-up Do performs no heap allocations, which lets
// the network's per-cycle fan-out preserve the zero-allocation
// steady-state guarantee.
//
// A Pool is owned by a single orchestrating goroutine: Do and Close must
// not be invoked concurrently with each other or themselves. Concurrency
// in this repository is legal only in the packages named by the vixlint
// ConcurrencyAllowlist; sim hosts the one goroutine-spawning primitive
// the harness and the network share.
type Pool struct {
	workers int
	started bool
	start   chan struct{}

	// Batch state: written by Do before workers are released, read by
	// workers, and read back by Do after the final wg.Done. The channel
	// sends and the WaitGroup provide the happens-before edges.
	n    int
	fn   func(int)
	next atomic.Int64
	wg   sync.WaitGroup

	panicMu  sync.Mutex
	panicked bool
	panicVal any
}

// NewPool returns a pool of the given width; a width of 1 or less runs
// every Do inline. Its owner picks the width (the harness resolves
// -parallel, the network its Workers). No goroutines are spawned until
// the first Do that can use them.
func NewPool(workers int) *Pool { return &Pool{workers: workers} }

// Workers returns the pool's width, including the calling goroutine.
func (p *Pool) Workers() int { return p.workers }

// Do runs fn(0) … fn(n-1) across the pool and returns when all calls have
// completed. The calling goroutine participates as a worker, so a pool of
// width w uses at most w-1 background goroutines. Indices are claimed
// dynamically (no static partition), and completion order is scheduling-
// dependent: fn must confine itself to per-index state.
//
// If any fn panics, the remaining indices claimed by that worker are
// skipped, every other worker drains normally, and Do re-panics on the
// calling goroutine with the first recovered value.
func (p *Pool) Do(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if p.workers <= 1 || n == 1 {
		// Inline path: no goroutines, no channels, no synchronisation.
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if !p.started {
		p.start = make(chan struct{})
		p.started = true
		for i := 0; i < p.workers-1; i++ {
			go p.worker(p.start)
		}
	}
	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	p.fn, p.n = fn, n
	p.next.Store(0)
	p.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.start <- struct{}{}
	}
	p.claim()
	p.wg.Wait()
	p.fn = nil
	if p.panicked {
		val := p.panicVal
		p.panicked, p.panicVal = false, nil
		panic(fmt.Sprintf("sim: pool task panicked: %v", val))
	}
}

// worker parks on the start channel between batches and exits when Close
// closes it. The channel is passed in rather than read from the struct:
// a worker spawned by Do may not get scheduled before the owner calls
// Close, and the field write there must not race with a field read here.
func (p *Pool) worker(start chan struct{}) {
	for range start {
		p.claim()
		p.wg.Done()
	}
}

// claim runs batch tasks until the index space is exhausted, recording
// (not propagating) the first panic so Do can re-raise it on the caller.
func (p *Pool) claim() {
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if !p.panicked {
				p.panicked, p.panicVal = true, r
			}
			p.panicMu.Unlock()
		}
	}()
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		p.fn(i)
	}
}

// Close releases the background workers. It is safe to call on a pool
// that never went parallel, and a later Do simply restarts the workers
// lazily; Close exists so long-lived owners (a parallel network, the
// harness) do not leak parked goroutines once they are done.
func (p *Pool) Close() {
	if !p.started {
		return
	}
	close(p.start)
	p.start = nil
	p.started = false
}
