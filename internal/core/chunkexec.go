package core

// Region execution. Every parallel region — newview traversals, evaluate,
// sumtable, derivatives, and their batched forms — runs through one chunked
// driver per kernel: the session's steal.Runtime hands each worker chunk ids
// of the pinned schedule's steal.Layout, the worker runs the kernel over each
// chunk's pattern range, and reductions accumulate one partial per chunk.
// Options.Steal only picks the layout and whether thieves may move chunks:
//
//   - Steal on: each worker's share is cut at MinChunk into per-worker
//     deques; a worker that drains its deque steals the largest remaining
//     half from the costliest victim, so no worker idles at the region
//     barrier while another still has queued work.
//   - Steal off (static): one chunk per schedule run and thieving off, so
//     every worker walks exactly its scheduled runs through a private cursor
//     — no deques, no CAS, no intra-region step barrier.
//
// Determinism argument (the reason neither layout nor stealing can change
// results):
//
//  1. CLV, scaling, and sumtable writes are per-pattern and chunks are
//     disjoint pattern ranges, so newview/sumtable output is independent of
//     which worker executes a chunk.
//  2. Reduction kernels (evaluate, derivatives) accumulate one partial sum
//     per chunk, in ascending pattern order inside the chunk — a pure
//     function of the chunk's range — and the master reduces the per-chunk
//     partials in fixed chunk-id order after the barrier. The floating-point
//     association is therefore identical whatever the dynamic steal
//     interleaving, stealing on or off, concurrent or serial executor. Every
//     schedule strategy emits at most one run per (worker, span) and chunk
//     ids ascend by (span, owner), so under the static layout the chunk-order
//     sum is exactly "per worker, then workers ascending". The MinChunk
//     layout regroups those sums and agrees with the static layout to
//     reassociation tolerance, not bitwise.
//  3. Multi-step traversals with thieving on synchronize on an intra-region
//     step barrier (steal.Runtime.NextStep) before re-arming the deques,
//     because a stolen pattern's step-s writer need not be its step-s+1
//     reader; the barrier makes every step's CLVs visible before any worker
//     starts the next step. Without thieving no barrier is needed: each
//     owner reads at step s+1 only the patterns it wrote at step s.
//
// Session-shared tip tables and P-matrix setup are cached per (step, span)
// encounter in the worker-local span contexts, so a worker processing
// consecutive chunks of one span pays the setup once; thieves crossing into
// a new span pay it again, which the op accounting records as the (real)
// extra work stealing performs. Under the static layout a worker meets each
// span once per step, so tip tables, op charges, span/pattern counters and
// measured-cost charges are all per (worker, span).

import (
	"time"

	"phylo/internal/parallel"
	"phylo/internal/steal"
	"phylo/internal/tree"
)

// chargeChunk attributes the monotonic wall time since t0 and a chunk's
// pattern count to the (worker, partition) measurement cell, so measured-cost
// rebalancing and stealing compose: observed per-pattern costs reflect the
// patterns a worker actually executed (its own and stolen ones), not its
// static share. Only measured-strategy sessions pay the two clock reads.
func (e *Engine) chargeChunk(w, ip, patterns int, t0 time.Time) {
	e.partSecs[w][ip] += time.Since(t0).Seconds() //plk:allow(timenow) measured-cost attribution; never feeds likelihood values
	e.partPats[w][ip] += float64(patterns)
}

// newviewRegion is the traversal region: all steps run inside one parallel
// region (one barrier at the end, as the paper's design requires), with
// NextStep separating them.
func (e *Engine) newviewRegion(steps []tree.TraversalStep, act []bool) {
	rt := e.rt
	rt.Load(act)
	e.Exec.Run(parallel.RegionNewview, func(w int, ctx *parallel.WorkerCtx) {
		pmQ := e.pmScratch[w][0]
		pmR := e.pmScratch[w][1]
		ops := 0.0
		var c nvSpanCtx
		for si := range steps {
			if si > 0 {
				rt.NextStep(w, ctx)
			}
			cached := -1
			for {
				id := rt.Next(w, ctx)
				if id < 0 {
					break
				}
				ch := rt.Layout().Chunk(id)
				var t0 time.Time
				if e.measure {
					t0 = time.Now() //plk:allow(timenow) measured-cost attribution; never feeds likelihood values
				}
				if ch.Span != cached {
					e.prepareNewviewSpan(&c, steps[si], ch.Span, w, pmQ, pmR)
					cached = ch.Span
					c.noteSpan(ctx)
				}
				c.ensureTables(ch.Patterns())
				count := c.process(ch.Run())
				ops += c.takeOps(count)
				// Flush the chunk's observability scratch (per chunk, never per
				// pattern; prepareNewviewSpan resets c, so scaled cannot be
				// left to accumulate across span switches).
				ctx.Patterns += float64(count)
				ctx.Scalings += c.scaled
				c.scaled = 0
				if e.measure {
					e.chargeChunk(w, ch.Span, ch.Patterns(), t0)
				}
			}
		}
		ctx.Ops += ops
	})
	rt.Finish()
}

// evaluateRegion is the root log-likelihood reduction: per-chunk partial
// sums into the session's chunk buffer, reduced master-side in fixed
// chunk-id order (see the determinism argument above).
func (e *Engine) evaluateRegion(p, q *tree.Node, act []bool) (float64, []float64) {
	rt := e.rt
	n := rt.Layout().NumChunks()
	if cap(e.evalChunk) < n {
		e.evalChunk = make([]float64, n)
	}
	buf := e.evalChunk[:n]
	for i := range buf {
		buf[i] = 0
	}
	rt.Load(act)
	e.Exec.Run(parallel.RegionEvaluate, func(w int, ctx *parallel.WorkerCtx) {
		pm := e.pmScratch[w][0]
		ops := 0.0
		var c evalSpanCtx
		cached := -1
		for {
			id := rt.Next(w, ctx)
			if id < 0 {
				break
			}
			ch := rt.Layout().Chunk(id)
			var t0 time.Time
			if e.measure {
				t0 = time.Now() //plk:allow(timenow) measured-cost attribution; never feeds likelihood values
			}
			if ch.Span != cached {
				e.prepareEvalSpan(&c, p, q, ch.Span, w, pm)
				cached = ch.Span
			}
			c.ensureTable(ch.Patterns())
			sum, count := c.process(ch.Run())
			buf[id] = sum
			ops += c.takeOps(count)
			if e.measure {
				e.chargeChunk(w, ch.Span, ch.Patterns(), t0)
			}
		}
		ctx.Ops += ops
	})
	rt.Finish()
	perPart := make([]float64, len(e.Data.Parts))
	for id := 0; id < n; id++ {
		perPart[rt.Layout().Chunk(id).Span] += buf[id]
	}
	total := 0.0
	for ip, v := range perPart {
		if act[ip] {
			total += v
		}
	}
	return total, perPart
}

// sumtableRegion is the sumtable region; writes are per-pattern disjoint,
// so no reduction is needed.
func (e *Engine) sumtableRegion(p, q *tree.Node, act []bool) {
	rt := e.rt
	rt.Load(act)
	e.Exec.Run(parallel.RegionSumTable, func(w int, ctx *parallel.WorkerCtx) {
		ops := 0.0
		var c sumSpanCtx
		cached := -1
		for {
			id := rt.Next(w, ctx)
			if id < 0 {
				break
			}
			ch := rt.Layout().Chunk(id)
			var t0 time.Time
			if e.measure {
				t0 = time.Now() //plk:allow(timenow) measured-cost attribution; never feeds likelihood values
			}
			if ch.Span != cached {
				e.prepareSumtableSpan(&c, p, q, ch.Span, w)
				cached = ch.Span
			}
			c.ensureTables(ch.Patterns())
			ops += c.takeOps(c.process(ch.Run()))
			if e.measure {
				e.chargeChunk(w, ch.Span, ch.Patterns(), t0)
			}
		}
		ctx.Ops += ops
	})
	rt.Finish()
}

// derivativeRegion is the Newton-derivative reduction: (d1, d2) partials
// per chunk, reduced in fixed chunk-id order.
func (e *Engine) derivativeRegion(z []float64, act []bool, d1, d2 []float64) {
	rt := e.rt
	n := rt.Layout().NumChunks()
	if cap(e.derivChunk) < 2*n {
		e.derivChunk = make([]float64, 2*n)
	}
	buf := e.derivChunk[:2*n]
	for i := range buf {
		buf[i] = 0
	}
	rt.Load(act)
	e.Exec.Run(parallel.RegionDerivative, func(w int, ctx *parallel.WorkerCtx) {
		ex := e.exScratch[w]
		ops := 0.0
		var c derivSpanCtx
		cached := -1
		for {
			id := rt.Next(w, ctx)
			if id < 0 {
				break
			}
			ch := rt.Layout().Chunk(id)
			var t0 time.Time
			if e.measure {
				t0 = time.Now() //plk:allow(timenow) measured-cost attribution; never feeds likelihood values
			}
			if ch.Span != cached {
				e.prepareDerivSpan(&c, ch.Span, z[ch.Span], ex)
				cached = ch.Span
			}
			r1, r2, count := c.process(ch.Run())
			buf[2*id] = r1
			buf[2*id+1] = r2
			ops += float64(count) * opsDerivative(c.s, c.cats)
			if e.measure {
				e.chargeChunk(w, ch.Span, ch.Patterns(), t0)
			}
		}
		ctx.Ops += ops
	})
	rt.Finish()
	for ip := range d1 {
		d1[ip], d2[ip] = 0, 0
	}
	for id := 0; id < n; id++ {
		sp := rt.Layout().Chunk(id).Span
		d1[sp] += buf[2*id]
		d2[sp] += buf[2*id+1]
	}
}

// wholeRuns is the static layout's chunk size: larger than any run, so
// steal.NewLayout emits exactly one chunk per schedule run.
const wholeRuns = 1 << 40

// chunkLayout builds the chunk decomposition of the engine's current
// schedule: cut at the session's MinChunk when stealing, one chunk per
// schedule run otherwise.
func (e *Engine) chunkLayout() *steal.Layout {
	if !e.useSteal {
		return steal.NewLayout(e.sched, wholeRuns)
	}
	return steal.NewLayout(e.sched, e.minChunk)
}

// StealEnabled reports whether this session was built with Options.Steal
// (the MinChunk layout with thieving).
func (e *Engine) StealEnabled() bool { return e.useSteal }

// SetStealing toggles thieving on a steal-enabled session (no-op otherwise).
// The MinChunk layout and fixed-order reductions stay in place either way,
// so results are bit-for-bit identical with stealing on or off; the toggle
// exists for A/B measurement and the bit-identity acceptance tests. Must be
// called between regions.
func (e *Engine) SetStealing(on bool) {
	if e.useSteal {
		e.rt.SetStealing(on)
	}
}

// Stealing reports whether thieving is currently enabled.
func (e *Engine) Stealing() bool { return e.rt.Stealing() }
