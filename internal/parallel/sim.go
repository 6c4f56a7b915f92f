package parallel

import "time"

// Sim executes regions with T virtual workers run serially on the calling
// goroutine: the numerical results are bit-identical to a Pool run with the
// same T, while the recorded statistics (critical-path ops per region, region
// count) drive the trace-based platform model. Because virtual time is
//
//	perOp(platform, T) * CriticalOps + sync(platform, T) * Regions
//
// a *single* Sim run can be priced on every platform profile afterwards; see
// Platform.EvalSeconds.
type Sim struct {
	threads int
	workers
	stats Stats
	obs   RegionObserver
}

// NewSim returns a virtual executor with T workers.
func NewSim(threads int) (*Sim, error) {
	if threads < 1 {
		return nil, errBadThreads(threads)
	}
	return &Sim{threads: threads, workers: newWorkers(threads)}, nil
}

func errBadThreads(t int) error {
	return &badThreadsError{t}
}

type badThreadsError struct{ t int }

func (e *badThreadsError) Error() string {
	return "parallel: thread count must be positive"
}

// Threads returns the virtual worker count.
func (s *Sim) Threads() int { return s.threads }

// SetObserver installs a region observer (nil detaches). Not safe to call
// concurrently with Run.
func (s *Sim) SetObserver(o RegionObserver) { s.obs = o }

// Run executes fn serially for every virtual worker. Workers whose schedule
// assignment is empty for this region record exactly zero ops (their Ops is
// reset before fn runs and nothing adds to it), so the virtual clock and the
// imbalance statistics see genuine idleness rather than stale counters. Each
// virtual worker's serial execution is wall-clock timed individually, so the
// measured per-worker seconds are an honest (contention-free) sample of that
// share's real cost on this host — the feedback the measured schedule
// strategy consumes.
func (s *Sim) Run(kind Region, fn func(w int, ctx *WorkerCtx)) {
	start := time.Now()
	s.runSerial(fn)
	s.finish(kind, start, s.obs, &s.stats, nil)
}

// Stats returns accumulated instrumentation.
func (s *Sim) Stats() *Stats { return &s.stats }

// Close is a no-op.
func (s *Sim) Close() {}
