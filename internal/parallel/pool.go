package parallel

import (
	"fmt"
	"sync"
	"time"
)

// Pool is the real goroutine-based executor: T persistent workers are woken
// per region over per-worker channels and signal completion through a
// WaitGroup (the barrier). This mirrors RAxML's Pthreads master/worker
// design, where the master generates traversal descriptors and the workers
// execute them over their scheduled share of the alignment patterns.
//
// Dispatch is allocation-free: the master parks the region function in a
// per-region slot and wakes each worker with an empty send, which orders the
// slot write before the worker's read; no per-worker closure is built.
//
// A Pool can be shared by several concurrent sessions (see Session): regions
// from different sessions are serialized by an internal mutex, so each
// region still runs with the full worker complement and no two sessions'
// closures ever interleave inside a region. Per-session instrumentation is
// kept by the session views; the pool itself accumulates the aggregate.
type Pool struct {
	threads int
	wake    []chan struct{}
	wg      sync.WaitGroup
	workers

	runMu  sync.Mutex                  // serializes regions across sessions
	fn     func(w int, ctx *WorkerCtx) // current region's function (set under runMu)
	stats  Stats                       // aggregate across all sessions (guarded by runMu)
	obs    RegionObserver              // region-completion observer (guarded by runMu)
	closed bool                        // guarded by runMu
}

// NewPool starts a pool with the given worker count.
func NewPool(threads int) (*Pool, error) {
	if threads < 1 {
		return nil, fmt.Errorf("parallel: thread count %d must be positive", threads)
	}
	p := &Pool{
		threads: threads,
		wake:    make([]chan struct{}, threads),
		workers: newWorkers(threads),
	}
	for w := range p.wake {
		p.wake[w] = make(chan struct{}, 1)
		go p.worker(w, p.wake[w])
	}
	return p, nil
}

// worker is worker w's goroutine: per wake-up it runs the current region
// function on its own WorkerCtx, timing the closure on the monotonic clock
// and parking the duration in the padded ctx (no cross-worker cache-line
// traffic), then arrives at the barrier. It exits when Close closes wake.
func (p *Pool) worker(w int, wake chan struct{}) {
	ctx := &p.ctxs[w]
	for range wake {
		start := time.Now()
		p.fn(w, ctx)
		ctx.Seconds = time.Since(start).Seconds()
		p.wg.Done()
	}
}

// Threads returns the worker count.
func (p *Pool) Threads() int { return p.threads }

// SetObserver installs a region observer (nil detaches). The observer is
// invoked master-side after each region's barrier, under the same mutex that
// serializes regions, so implementations must be fast and non-blocking.
func (p *Pool) SetObserver(o RegionObserver) {
	p.runMu.Lock()
	p.obs = o
	p.runMu.Unlock()
}

// Run fans fn out to every worker and blocks until all complete, recording
// into the pool's aggregate statistics. Running on a closed pool is a
// programming error and panics (session views degrade instead; see
// PoolSession.Run).
func (p *Pool) Run(kind Region, fn func(w int, ctx *WorkerCtx)) {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.closed {
		panic("parallel: Run on closed Pool")
	}
	p.run(kind, fn, nil)
}

// run executes one region over the worker goroutines, recording into the
// aggregate stats and, when non-nil, a session's private stats. The master
// collects the workers' op counts and durations into the scratch after the
// barrier. The caller must hold runMu and have checked closed.
func (p *Pool) run(kind Region, fn func(w int, ctx *WorkerCtx), extra *Stats) {
	start := time.Now()
	p.fn = fn
	p.wg.Add(p.threads)
	for w, wake := range p.wake {
		p.ctxs[w].beginRegion(true)
		wake <- struct{}{}
	}
	p.wg.Wait()
	p.fn = nil
	for w := range p.ctxs {
		p.collect(w)
	}
	p.finish(kind, start, p.obs, &p.stats, extra)
}

// runDegraded executes one region with all T virtual workers serially on
// the calling goroutine (identical numerics to run), exactly like Sim. The
// caller must hold runMu.
func (p *Pool) runDegraded(kind Region, fn func(w int, ctx *WorkerCtx), extra *Stats) {
	start := time.Now()
	p.runSerial(fn)
	p.finish(kind, start, p.obs, &p.stats, extra)
}

// Stats returns the aggregate instrumentation across every session that ran
// on this pool. Only read it while no session is inside Run.
func (p *Pool) Stats() *Stats { return &p.stats }

// Close terminates the worker goroutines. It is idempotent and safe to call
// from multiple goroutines; it waits for any in-flight region to finish.
// Direct Run calls afterwards panic; session views degrade to serial
// execution (see PoolSession.Run).
func (p *Pool) Close() {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, wake := range p.wake {
		close(wake)
	}
}

// PoolSession is a lightweight per-session view of a shared Pool. It
// implements Executor: Run delegates to the pool (serialized against other
// sessions) while the recorded statistics are private to the session, so N
// concurrent analyses over one dataset each see their own region counts and
// worker-imbalance numbers. Closing a session never closes the pool.
type PoolSession struct {
	pool  *Pool
	stats Stats

	mu     sync.Mutex
	closed bool
}

// Session returns a new per-session executor view of the pool.
func (p *Pool) Session() *PoolSession { return &PoolSession{pool: p} }

// Threads returns the underlying pool's worker count.
func (s *PoolSession) Threads() int { return s.pool.threads }

// Run executes one region on the shared pool, recording into this session's
// statistics (and the pool aggregate). If the pool was closed under this
// session (a Dataset torn down while an analysis is mid-flight), the region
// runs degraded — all T virtual workers serially on the caller, with
// identical numerics — so the in-flight analysis completes instead of
// crashing; the session's next facade entry point reports the closed
// dataset as an error.
func (s *PoolSession) Run(kind Region, fn func(w int, ctx *WorkerCtx)) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		panic("parallel: Run on closed PoolSession")
	}
	p := s.pool
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.closed {
		p.runDegraded(kind, fn, &s.stats)
		return
	}
	p.run(kind, fn, &s.stats)
}

// Stats returns this session's private instrumentation.
func (s *PoolSession) Stats() *Stats { return &s.stats }

// Close retires the session view. It is idempotent and leaves the shared
// pool (and every other session) untouched.
func (s *PoolSession) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
