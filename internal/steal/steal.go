// Package steal is the intra-region work-stealing runtime: the layer that
// bounds tail latency *inside* a synchronization region, where the
// precomputed-assignment model (internal/schedule) cannot help. A schedule —
// however well packed between regions — fixes each worker's share before the
// region starts; a worker whose share turns out cheap (mispriced costs, a
// masked partition, cache luck) idles at the barrier while the slowest worker
// finishes alone. This package slices every worker's share into cache-line-
// aligned chunks (schedule.ChunkRuns), loads them into one lock-free deque
// per worker, lets owners pop LIFO from the bottom, and lets a drained
// worker steal the largest remaining half of the deque of the victim with
// the highest remaining-cost estimate. The static schedule stays the
// locality prior (every chunk starts on its scheduled owner); stealing only
// redistributes the residual the pack mispriced.
//
// Correctness is structural, not probabilistic: chunks write disjoint
// pattern ranges, every chunk is claimed exactly once (a single CAS moves
// deque bounds, so a chunk range changes hands atomically), and reductions
// over chunk results are performed by the engine in fixed chunk-id order —
// so likelihoods and derivatives are bit-for-bit identical whichever workers
// end up executing which chunks, stealing on or off, pool or serial executor
// (see the determinism argument in DESIGN.md).
//
// With thieving off the runtime never touches a deque: every worker walks
// its own loaded chunk list through a private cursor — no arming, no CAS, no
// step barrier, and no deques allocated at all. That is the static layout's
// execution model (one chunk per schedule run, see the engine), and it needs
// no barrier between traversal steps because each owner reads at step s+1
// only the patterns it wrote itself at step s. Serial executors (Sim, a
// degraded pool session) take the same cursor path even with thieving on:
// they run their T virtual workers one after another on a single goroutine,
// where no worker waits at a barrier, and "stealing" would just mean virtual
// worker 0 swallowing work that virtual worker w > 0 was never going to idle
// over. By the fixed-order reduction, the cursor path produces bit-identical
// results to a concurrent run with stealing.
package steal

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"phylo/internal/parallel"
	"phylo/internal/schedule"
)

// DefaultMinChunk is the default minimum chunk size in patterns. It is chosen
// to amortize tip-table locality: the kernels build a tip lookup table only
// for work units of at least 2*codes patterns (32 for DNA, 46 for AA), so a
// 64-pattern floor keeps chunk-sized work units on the specialized fast path,
// and it spans four or more cache lines of every per-pattern array the
// kernels touch.
const DefaultMinChunk = 64

// Deque-state packing: one 64-bit word per deque holds an epoch counter and
// the [top, bottom) bounds of the live chunk-id window, so owner pops
// (bottom--), half-steals (top += k), and re-arms (epoch++, fresh bounds) are
// each a single compare-and-swap. The epoch changes on every re-arm, which
// defeats ABA: a thief that read stale bounds can never CAS them onto a
// re-armed deque.
const (
	idxBits  = 20
	idxMask  = 1<<idxBits - 1
	maxIndex = idxMask
	// MaxChunks bounds a layout's chunk count so indices fit the packing.
	MaxChunks = maxIndex
)

func packState(epoch uint64, top, bottom int) uint64 {
	return epoch<<(2*idxBits) | uint64(top)<<idxBits | uint64(bottom)
}

func unpackState(s uint64) (epoch uint64, top, bottom int) {
	return s >> (2 * idxBits), int(s >> idxBits & idxMask), int(s & idxMask)
}

// Chunk is one unit of stealable work: a strided sub-run of one span's
// (partition's) pattern assignment, small enough to migrate cheaply and large
// enough to amortize per-span kernel setup. Lo/Hi/Step follow schedule.Run
// semantics; Owner is the worker the schedule assigned the range to (the
// deque it is loaded into); Cost is the estimated total cost under the
// schedule's span pricing, used only for victim selection.
type Chunk struct {
	Span         int
	Lo, Hi, Step int
	Owner        int
	Cost         float64
}

// Patterns returns the chunk's pattern count.
func (c Chunk) Patterns() int {
	if c.Hi <= c.Lo {
		return 0
	}
	return (c.Hi - c.Lo + c.Step - 1) / c.Step
}

// Run returns the chunk's pattern range as a schedule.Run for the kernels.
func (c Chunk) Run() schedule.Run { return schedule.Run{Lo: c.Lo, Hi: c.Hi, Step: c.Step} }

// Layout is the immutable chunk decomposition of one schedule at one minimum
// chunk size. Chunk ids ascend by (span, owner, position); that id order is
// the engine's fixed reduction order, and it is identical however the chunks
// are later distributed, which is what makes stolen-work reductions
// deterministic. A layout is cheap to build (O(patterns/minChunk)) and is
// rebuilt whenever a session pins a rebuilt (rebalanced) schedule.
type Layout struct {
	chunks   []Chunk
	byWorker [][]int32 // chunk ids per owner, ascending
	threads  int
	minChunk int
}

// NewLayout chunks a schedule. minChunk < 1 selects DefaultMinChunk; if the
// resulting chunk count would overflow the deque-state packing (MaxChunks),
// the chunk size is doubled until it fits.
func NewLayout(s *schedule.Schedule, minChunk int) *Layout {
	if minChunk < 1 {
		minChunk = DefaultMinChunk
	}
	for {
		l := buildLayout(s, minChunk)
		if len(l.chunks) <= MaxChunks {
			return l
		}
		minChunk *= 2
	}
}

func buildLayout(s *schedule.Schedule, minChunk int) *Layout {
	t := s.Threads()
	l := &Layout{threads: t, minChunk: minChunk, byWorker: make([][]int32, t)}
	for sp := 0; sp < s.NumSpans(); sp++ {
		cost := s.Span(sp).Cost
		for w := 0; w < t; w++ {
			for _, r := range s.ChunkRuns(w, sp, minChunk) {
				id := len(l.chunks)
				l.chunks = append(l.chunks, Chunk{
					Span: sp, Lo: r.Lo, Hi: r.Hi, Step: r.Step,
					Owner: w, Cost: float64(r.Len()) * cost,
				})
				l.byWorker[w] = append(l.byWorker[w], int32(id))
			}
		}
	}
	return l
}

// NumChunks returns the total chunk count (the length of the engine's
// per-chunk partial-sum buffers).
func (l *Layout) NumChunks() int { return len(l.chunks) }

// Chunk returns chunk id's metadata.
func (l *Layout) Chunk(id int) Chunk { return l.chunks[id] }

// MinChunk returns the (possibly overflow-adjusted) minimum chunk size.
func (l *Layout) MinChunk() int { return l.minChunk }

// Threads returns the worker count the layout was built for.
func (l *Layout) Threads() int { return l.threads }

// deque is one worker's lock-free chunk deque: a packed epoch/top/bottom
// state word over a backing array of chunk ids. The owner pops from the
// bottom, thieves advance the top; both are CAS loops on state. The entry
// array is written only while the deque is observably empty (arming) or
// before the region starts, and entries are accessed atomically so a thief
// reading bounds that a concurrent re-arm invalidates sees untorn (if stale)
// values and then fails its epoch-checked CAS. remaining tracks a float64
// cost estimate of the live window for victim selection; it is advisory and
// may drift a chunk behind the state word.
type deque struct {
	state     atomic.Uint64
	remaining atomic.Uint64 // float64 bits
	_         [112]byte     // pad to two cache lines against false sharing
}

func (d *deque) remainingCost() float64 { return math.Float64frombits(d.remaining.Load()) }

func (d *deque) addRemaining(x float64) {
	for {
		old := d.remaining.Load()
		if d.remaining.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

// Runtime is the per-session chunk-distribution state: the current layout,
// the per-worker chunk lists and cursors, and — once a region runs with
// thieving on — one deque per worker plus the per-step re-arm barrier. A
// Runtime belongs to exactly one session engine; the master (session
// goroutine) calls Load before issuing a region and Finish after its
// barrier, workers call Next/NextStep from inside the region closure.
type Runtime struct {
	layout *Layout
	deques []deque          // nil until a region is loaded with thieving on
	arrs   [][]atomic.Int32 // per worker: deque backing array (chunk ids)

	// loaded is the per-worker chunk-id list of the current region (the
	// layout's per-owner ids filtered by the region's active-span mask),
	// ascending; deques are armed from it, and the cursor path iterates it
	// directly.
	loaded  [][]int32
	cursors []cursor

	barrier  stepBarrier
	stealing atomic.Bool
	armed    bool // the loaded region runs on the deques (thieving on at Load)
	inRegion atomic.Bool
	steps    atomic.Int64 // NextStep barrier passages (observability)
}

// cursor is one worker's position in its loaded chunk list, padded like
// deque: on a concurrent executor with thieving off every worker advances
// its own cursor at once.
type cursor struct {
	next int
	_    [120]byte
}

// NewRuntime builds the runtime for a layout with thieving enabled. Deques
// are allocated by the first Load with thieving on, so a runtime switched
// off with SetStealing(false) before its first region never allocates them.
func NewRuntime(l *Layout) *Runtime {
	rt := &Runtime{}
	rt.stealing.Store(true)
	rt.Install(l)
	return rt
}

// Layout returns the currently installed chunk layout.
func (rt *Runtime) Layout() *Layout { return rt.layout }

// SetStealing toggles thieving. With stealing off, workers walk their own
// chunk lists through private cursors instead of the deques, and reductions
// still run in fixed chunk order, so results are bit-for-bit identical
// either way; only idle workers stop absorbing others' backlogs. Must not be
// called while a region is in flight.
func (rt *Runtime) SetStealing(on bool) { rt.stealing.Store(on) }

// Stealing reports whether thieving is enabled.
func (rt *Runtime) Stealing() bool { return rt.stealing.Load() }

// Steps reports how many intra-region step re-arms the runtime has performed
// (thieving regions on concurrent executors only); a traversal of n steps
// contributes n-1.
func (rt *Runtime) Steps() int64 { return rt.steps.Load() }

// maxStealBatch caps one steal's chunk count (and thereby the only way a
// deque can grow past its scheduled share): half of a typical layout is a
// few hundred chunks, and anything the cap leaves behind is simply stolen
// again once the batch drains.
const maxStealBatch = 256

// Install quiesces the runtime and swaps in a new chunk layout (built from a
// rebuilt schedule). The caller must be between regions; Quiesce enforces it.
// The deques of the old layout are dropped; the next thieving Load builds
// them for the new one.
func (rt *Runtime) Install(l *Layout) {
	rt.Quiesce()
	rt.layout = l
	t := l.threads
	rt.deques, rt.arrs = nil, nil
	rt.loaded = make([][]int32, t)
	rt.cursors = make([]cursor, t)
	for w := 0; w < t; w++ {
		rt.loaded[w] = make([]int32, 0, len(l.byWorker[w]))
	}
}

// allocDeques builds the per-worker deques and the step barrier for the
// installed layout.
func (rt *Runtime) allocDeques() {
	l := rt.layout
	t := l.threads
	rt.deques = make([]deque, t)
	rt.arrs = make([][]atomic.Int32, t)
	for w := 0; w < t; w++ {
		// A deque holds at most its own scheduled chunks (armWorker) or one
		// steal batch (stealHalf publishes into an empty deque), whichever
		// is larger — not the whole layout.
		capacity := len(l.byWorker[w])
		if capacity < maxStealBatch {
			capacity = maxStealBatch
		}
		if n := len(l.chunks); capacity > n {
			capacity = n
		}
		rt.arrs[w] = make([]atomic.Int32, capacity)
	}
	rt.barrier.init(t)
}

// Quiesce asserts that no region is consuming the deques. The engine calls
// it (via Install) before pinning a rebuilt schedule: a schedule swap builds
// a new layout with new chunk ids, and swapping while workers still hold old
// ids would misdirect their partial sums. Regions and rebalances are both
// issued from the session goroutine, so an active region here is a lifecycle
// ordering bug, not a recoverable race — it panics.
func (rt *Runtime) Quiesce() {
	if rt.inRegion.Load() {
		panic("steal: Quiesce/Install while a region is in flight (rebalance must happen between regions)")
	}
}

// Load arms the runtime for one region: every worker's chunk list receives
// its layout chunks whose span is active (nil mask = all spans), the cursors
// rewind, and with thieving on the deques are armed from the lists. Called
// by the master immediately before Executor.Run; the executor's fan-out
// orders it before every worker's first Next.
func (rt *Runtime) Load(active []bool) {
	if rt.inRegion.Swap(true) {
		panic("steal: Load while a region is in flight")
	}
	for w := range rt.loaded {
		ids := rt.loaded[w][:0]
		for _, id := range rt.layout.byWorker[w] {
			if active == nil || active[rt.layout.chunks[id].Span] {
				ids = append(ids, id)
			}
		}
		rt.loaded[w] = ids
		rt.cursors[w].next = 0
	}
	rt.armed = rt.stealing.Load()
	if rt.armed {
		if rt.deques == nil {
			rt.allocDeques()
		}
		rt.armAll()
	}
}

// Finish marks the region done. Called by the master after Executor.Run
// returns (the region barrier orders every worker's last Next before it).
func (rt *Runtime) Finish() { rt.inRegion.Store(false) }

// armAll re-arms every deque with its loaded chunk list. Callers must
// guarantee no concurrent deque traffic: Load runs before the region fans
// out, and the step barrier's last arriver runs it while every other worker
// is blocked in the barrier.
func (rt *Runtime) armAll() {
	for w := range rt.deques {
		rt.armWorker(w)
	}
}

// armWorker loads worker w's chunk ids into its deque, reversed so that the
// owner's LIFO bottom pops walk patterns in ascending order while thieves
// take the top — the ranges the owner would reach last.
func (rt *Runtime) armWorker(w int) {
	ids := rt.loaded[w]
	arr := rt.arrs[w]
	cost := 0.0
	n := len(ids)
	for i, id := range ids {
		arr[n-1-i].Store(id)
		cost += rt.layout.chunks[id].Cost
	}
	d := &rt.deques[w]
	epoch, _, _ := unpackState(d.state.Load())
	d.remaining.Store(math.Float64bits(cost))
	d.state.Store(packState(epoch+1, 0, n))
}

// NextStep is the intra-region step boundary for multi-step (traversal)
// regions; every worker must call it between steps. In a thieving region on
// a concurrent executor it is a full barrier across the T workers — step
// s+1 reads CLVs that step s wrote, and with stealing a pattern's step-s
// writer need not be its step-s+1 reader, so the barrier is what makes the
// handoff safe — and the last worker to arrive re-arms all deques to the
// scheduled assignment before releasing the others. On the cursor path it
// just rewinds the calling worker's cursor: every worker processes only its
// own scheduled patterns, so the patterns it reads at step s+1 are exactly
// the ones it wrote at step s, and no other worker's progress matters.
func (rt *Runtime) NextStep(w int, ctx *parallel.WorkerCtx) {
	if !ctx.Concurrent || !rt.armed {
		rt.cursors[w].next = 0
		return
	}
	// Barrier wait is synchronization, not work: it accrues to ctx.Idle so
	// the executor's per-worker Seconds keep measuring work time (otherwise
	// every worker in a multi-step region would report the region's wall
	// time and the measured imbalance would flatten to 1).
	t0 := time.Now()
	rt.barrier.wait(func() {
		rt.armAll()
		rt.steps.Add(1)
	})
	ctx.Idle += time.Since(t0).Seconds()
}

// Next hands worker w its next chunk id, or -1 when no work remains
// anywhere. With thieving off, or on a serial executor, it walks w's own
// loaded chunks in ascending order. Otherwise owners pop LIFO from the
// bottom of their own deque; a worker whose deque has drained picks the
// victim with the highest remaining-cost estimate and steals the top half
// of its window — the largest remaining half, both in
// the chosen victim and in taking ceil(n/2) of its chunks. Steal operations
// are recorded into ctx.Steals; ctx.StolenPatterns counts the patterns of
// every chunk *executed* away from its scheduled owner — once per
// execution, at hand-out, so a chunk relayed through a chain of thieves is
// not double-counted and the migrated fraction of processed patterns stays
// in [0, 1].
//
//plk:hotpath
func (rt *Runtime) Next(w int, ctx *parallel.WorkerCtx) int {
	if !ctx.Concurrent || !rt.armed {
		ids := rt.loaded[w]
		cur := &rt.cursors[w]
		if cur.next >= len(ids) {
			return -1
		}
		id := ids[cur.next]
		cur.next++
		return int(id)
	}
	for {
		if id, ok := rt.popBottom(w, ctx); ok {
			if c := rt.layout.chunks[id]; c.Owner != w {
				ctx.StolenPatterns += float64(c.Patterns())
			}
			return id
		}
		if !rt.stealHalf(w, ctx) {
			return -1
		}
	}
}

// popBottom takes the bottom chunk of worker w's own deque. A failed CAS
// (a thief moved the window between the load and the swap) is counted into
// ctx.StealRaces and retried.
//
//plk:hotpath
func (rt *Runtime) popBottom(w int, ctx *parallel.WorkerCtx) (int, bool) {
	d := &rt.deques[w]
	for {
		old := d.state.Load()
		epoch, top, bottom := unpackState(old)
		if bottom <= top {
			return -1, false
		}
		id := int(rt.arrs[w][bottom-1].Load())
		if d.state.CompareAndSwap(old, packState(epoch, top, bottom-1)) {
			d.addRemaining(-rt.layout.chunks[id].Cost)
			return id, true
		}
		ctx.StealRaces++
	}
}

// stealHalf transfers the top half of the best victim's deque into worker
// w's (empty) deque. It returns false only when no victim shows any
// remaining work — the region (or step) is drained and w should exit to the
// barrier. A worker that exits while another worker is mid-steal can miss
// that in-flight batch; that costs at most one worker's tail overlap, never
// correctness (the thief still executes every claimed chunk).
//
//plk:hotpath
func (rt *Runtime) stealHalf(w int, ctx *parallel.WorkerCtx) bool {
	var buf [maxStealBatch]int32
	for {
		victim, vn := -1, 0
		best := math.Inf(-1)
		for v := range rt.deques {
			if v == w {
				continue
			}
			_, top, bottom := unpackState(rt.deques[v].state.Load())
			n := bottom - top
			if n <= 0 {
				continue
			}
			if cost := rt.deques[v].remainingCost(); victim < 0 || cost > best || (cost == best && n > vn) {
				victim, vn, best = v, n, cost
			}
		}
		if victim < 0 {
			return false
		}
		d := &rt.deques[victim]
		old := d.state.Load()
		epoch, top, bottom := unpackState(old)
		n := bottom - top
		if n <= 0 {
			continue // drained between the scan and now; rescan
		}
		k := (n + 1) / 2
		if k > len(buf) {
			k = len(buf)
		}
		// Read the candidate ids before claiming them: a concurrent re-arm
		// may overwrite these slots, but a re-arm bumps the epoch, so the CAS
		// below fails and the stale reads are discarded.
		for i := 0; i < k; i++ {
			buf[i] = rt.arrs[victim][top+i].Load()
		}
		if !d.state.CompareAndSwap(old, packState(epoch, top+k, bottom)) {
			ctx.StealRaces++
			continue // the victim's window moved; rescan
		}
		cost := 0.0
		for i := 0; i < k; i++ {
			cost += rt.layout.chunks[buf[i]].Cost
		}
		d.addRemaining(-cost)
		// Publish the booty as w's own deque (empty right now: only owners
		// push, and w only steals when drained), preserving order so w pops
		// ascending and re-victimized thieves lose their top again.
		arr := rt.arrs[w]
		for i := 0; i < k; i++ {
			arr[k-1-i].Store(buf[i])
		}
		own := &rt.deques[w]
		ownEpoch, _, _ := unpackState(own.state.Load())
		own.remaining.Store(math.Float64bits(cost))
		own.state.Store(packState(ownEpoch+1, 0, k))
		ctx.Steals++
		return true
	}
}

// stepBarrier is the blocking barrier NextStep uses between traversal steps
// on concurrent executors. It is condvar-based rather than spinning: worker
// counts can exceed the core count (and CI runs single-core), where spinning
// would burn the very cycles the stragglers need.
type stepBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func (b *stepBarrier) init(n int) {
	b.mu.Lock()
	if b.count != 0 {
		b.mu.Unlock()
		panic(fmt.Sprintf("steal: re-initializing a barrier with %d workers waiting", b.count))
	}
	b.n = n
	b.cond = sync.NewCond(&b.mu)
	b.mu.Unlock()
}

// wait blocks until all n workers arrive; the last arriver runs onLast while
// the others are still parked, then releases them.
func (b *stepBarrier) wait(onLast func()) {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		if onLast != nil {
			onLast()
		}
		b.count = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
