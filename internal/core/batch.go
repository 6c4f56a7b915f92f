package core

import (
	"errors"
	"fmt"
	"time"

	"phylo/internal/alignment"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// Batched-replicate execution: the bootstrap-fleet fast path. An R-wide
// WeightSet attached to an evaluate or derivative region turns the final
// per-pattern reduction into an R-lane sweep — the site (or derivative
// ratio) value is computed once per pattern and accumulated under all R
// replicate weights — while everything upstream of the reduction (newview
// traversals, P matrices, tip tables, the sumtable) runs once and is shared
// by the whole batch. That is the entire win: an R-replicate bootstrap costs
// one traversal plus R cheap reduction lanes instead of R full evaluations.
//
// Bit-identity contract (the property every batched body maintains):
//
//  1. Lane r of a batched reduction performs exactly the floating-point
//     sequence of an unbatched run over replicate r's weights (same site
//     values, same per-pattern multiply, same accumulation order), so
//     extracting a replicate (WeightSet.Replicate) and re-running it alone
//     reproduces its batched lnL bit for bit.
//  2. Partials are per (chunk, lane), reduced master-side in fixed chunk-id
//     order — the same fixed-order discipline the unbatched reductions use
//     (see chunkexec.go), so results are invariant to steal interleavings
//     and identical across Pool, PoolSession, and Sim executors.

// bindBatch attaches a WeightSet's lanes to an evaluate span context; the
// span's pattern j reads its R weights at batchW[j*R : (j+1)*R].
func (c *evalSpanCtx) bindBatch(ws *WeightSet) {
	c.batchR = ws.r
	c.batchW = ws.lanes(c.partOffset)
}

// bindBatch attaches a WeightSet's lanes to a derivative span context.
func (c *derivSpanCtx) bindBatch(ws *WeightSet) {
	c.batchR = ws.r
	c.batchW = ws.lanes(c.partOffset)
}

// takeOpsBatch prices count patterns of R-lane reduction plus the claimed
// setup charge (the batched analogue of takeOps).
func (c *evalSpanCtx) takeOpsBatch(count int) float64 {
	ops := float64(count)*opsEvaluateBatch(c.s, c.cats, c.qTab != nil, c.batchR) + c.fixed
	c.fixed = 0
	return ops
}

// processGenericBatch is the generic R-lane evaluate body: the per-pattern
// site log likelihood exactly as processGeneric computes it, fanned out into
// R weighted partials.
//
//plk:hotpath
func (c *evalSpanCtx) processGenericBatch(run schedule.Run, out []float64) int {
	R := c.batchR
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		site := c.site(i, j, c.patternLi(j, c.base+j*c.patStride))
		wj := c.batchW[j*R : (j+1)*R]
		for r := 0; r < R; r++ {
			out[r] += wj[r] * site
		}
		count++
	}
	return count
}

// processFused4Batch is the unrolled 4-state R-lane evaluate body: the same
// per-pattern likelihood expressions as processFused4 (see fused4.go for the
// associativity argument), with the single weighted accumulation replaced by
// the R-lane sweep. A q-side tip without a table falls back to the generic
// batch body, which is bit-identical.
//
//plk:hotpath
func (c *evalSpanCtx) processFused4Batch(run schedule.Run, out []float64) int {
	if c.qTip && c.qTab == nil {
		return c.processGenericBatch(run, out)
	}
	f0, f1, f2, f3 := c.freqs[0], c.freqs[1], c.freqs[2], c.freqs[3]
	cats := c.cats
	R := c.batchR
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		off := c.base + j*c.patStride
		var tv []float64
		if c.pTip {
			tv = alignment.TipVector(c.dtype, c.pRow[j])
		}
		li := 0.0
		if c.qTab != nil {
			t := c.qTab[int(c.qRow[j])*c.cs:]
			for cat := 0; cat < cats; cat++ {
				cl := tv
				if !c.pTip {
					co := off + cat*c.catStride
					cl = c.pv[co : co+4]
				}
				tc := t[cat*4 : cat*4+4]
				li = li + f0*cl[0]*tc[0] + f1*cl[1]*tc[1] + f2*cl[2]*tc[2] + f3*cl[3]*tc[3]
			}
		} else {
			for cat := 0; cat < cats; cat++ {
				pc := c.pm[cat*16 : cat*16+16]
				co := off + cat*c.catStride
				cr := c.qv[co : co+4]
				r0, r1, r2, r3 := cr[0], cr[1], cr[2], cr[3]
				cl := tv
				if !c.pTip {
					cl = c.pv[co : co+4]
				}
				t0 := pc[0]*r0 + pc[1]*r1 + pc[2]*r2 + pc[3]*r3
				t1 := pc[4]*r0 + pc[5]*r1 + pc[6]*r2 + pc[7]*r3
				t2 := pc[8]*r0 + pc[9]*r1 + pc[10]*r2 + pc[11]*r3
				t3 := pc[12]*r0 + pc[13]*r1 + pc[14]*r2 + pc[15]*r3
				li = li + f0*cl[0]*t0 + f1*cl[1]*t1 + f2*cl[2]*t2 + f3*cl[3]*t3
			}
		}
		site := c.site(i, j, li)
		wj := c.batchW[j*R : (j+1)*R]
		for r := 0; r < R; r++ {
			out[r] += wj[r] * site
		}
		count++
	}
	return count
}

// processGenericBatch is the R-lane derivative body: per pattern the
// likelihood and its two derivative dot products over the sumtable run once —
// exactly as in the unbatched processGeneric — and the resulting first-
// derivative ratio and curvature terms accumulate under all R replicate
// weights into out[2r], out[2r+1].
//
//plk:hotpath
func (c *derivSpanCtx) processGenericBatch(run schedule.Run, out []float64) int {
	cs := c.cs
	R := c.batchR
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		soff := c.sbase + j*cs
		l, l1, l2 := 0.0, 0.0, 0.0
		for k := 0; k < cs; k++ {
			a := c.e.sumtable[soff+k] * c.eTab[k]
			l += a
			l1 += a * c.g1Tab[k]
			l2 += a * c.g2Tab[k]
		}
		count++
		if l < 1e-300 {
			// Same guard as the unbatched body: a vanished scaled likelihood
			// informs no replicate.
			continue
		}
		inv := 1 / l
		r1 := l1 * inv
		curv := l2*inv - r1*r1
		wj := c.batchW[j*R : (j+1)*R]
		for r := 0; r < R; r++ {
			out[2*r] += wj[r] * r1
			out[2*r+1] += wj[r] * curv
		}
	}
	return count
}

// checkBatch validates a WeightSet against the session's dataset.
func (e *Engine) checkBatch(ws *WeightSet) error {
	if ws == nil {
		return errors.New("core: nil weight set")
	}
	if ws.patterns != e.Data.TotalPatterns {
		return fmt.Errorf("core: weight set covers %d patterns, dataset has %d", ws.patterns, e.Data.TotalPatterns)
	}
	return nil
}

// SetWeightOverride replaces the pattern weights every *unbatched* evaluate
// and derivative reduction uses with a single-replicate WeightSet (R must be
// 1); nil restores the dataset's own weights. This is how the optimizer runs
// against a replicate — or the replicate-aggregate of a whole batch (see
// WeightSet.Aggregate and the shared-branch-length mode in internal/opt) —
// without any kernel changes: the override threads through the span contexts
// exactly where the dataset weights would. Must be called between regions;
// the override does not affect EvaluateBatch and BranchDerivativesBatch,
// which carry their own WeightSet.
func (e *Engine) SetWeightOverride(ws *WeightSet) error {
	if ws == nil {
		e.weightOverride = nil
		return nil
	}
	if ws.r != 1 {
		return fmt.Errorf("core: weight override must have batch width 1, got %d", ws.r)
	}
	if ws.patterns != e.Data.TotalPatterns {
		return fmt.Errorf("core: weight override covers %d patterns, dataset has %d", ws.patterns, e.Data.TotalPatterns)
	}
	e.weightOverride = ws.w
	return nil
}

// weightsFor returns the pattern weights the unbatched reductions should use
// for one partition: the session's override when set, the dataset's own
// weights otherwise.
func (e *Engine) weightsFor(part *alignment.CompressedPartition) []float64 {
	if e.weightOverride != nil {
		return e.weightOverride[part.Offset : part.Offset+part.PatternCount]
	}
	return part.Weights
}

// EvaluateBatch computes the per-replicate log likelihoods at the virtual
// root on branch (p, p.Back) under an R-wide WeightSet: one parallel region
// in which every site log likelihood is computed once and reduced into R
// weighted partials. Both end CLVs must already be valid and oriented towards
// the branch (use TraverseRoot) — and because pattern likelihoods are
// weight-independent, one traversal serves every replicate of the batch. The
// returned slice has one total per replicate; masked partitions contribute to
// none of them.
func (e *Engine) EvaluateBatch(p *tree.Node, active []bool, ws *WeightSet) ([]float64, error) {
	if err := e.checkBatch(ws); err != nil {
		return nil, err
	}
	q := p.Back
	if p.IsTip() && q.IsTip() {
		panic("core: EvaluateBatch on a tip-tip branch (2-taxon tree not supported)")
	}
	act := e.activeOrAll(active)
	e.refreshSchedule() // region boundary: adopt a rebalanced schedule if published
	return e.evaluateBatchRegion(p, q, act, ws), nil
}

// LogLikelihoodBatch runs one full traversal to the canonical virtual root
// and evaluates all R replicate log likelihoods of the WeightSet in a single
// batched reduction — the bootstrap fleet's scoring primitive.
func (e *Engine) LogLikelihoodBatch(ws *WeightSet) ([]float64, error) {
	if err := e.checkBatch(ws); err != nil {
		return nil, err
	}
	if e.obsBatchWidth != nil {
		e.obsBatchWidth.Set(float64(ws.r))
	}
	root := e.Tree.Tips[0].Back
	e.Traverse(root, false, nil)
	return e.EvaluateBatch(root, nil, ws)
}

// evaluateBatchRegion is the R-lane root reduction: per-chunk R-vector
// partials into the session's batch chunk buffer, reduced master-side in
// fixed chunk-id order (see the determinism argument in chunkexec.go; the
// batch merely widens each chunk's partial from one float to R). Reducing
// per (partition, lane) and then active partitions ascending into the totals
// is the unbatched Evaluate's order, so a width-1 batch over the dataset's
// own weights reproduces Evaluate bit for bit.
func (e *Engine) evaluateBatchRegion(p, q *tree.Node, act []bool, ws *WeightSet) []float64 {
	rt := e.rt
	R := ws.r
	n := rt.Layout().NumChunks()
	if cap(e.batchEvalChunk) < n*R {
		e.batchEvalChunk = make([]float64, n*R)
	}
	buf := e.batchEvalChunk[:n*R]
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
				c.bindBatch(ws)
				cached = ch.Span
			}
			c.ensureTable(ch.Patterns())
			count := c.kern.EvaluateBatch(&c, ch.Run(), buf[id*R:(id+1)*R])
			ops += c.takeOpsBatch(count)
			if e.measure {
				e.chargeChunk(w, ch.Span, ch.Patterns(), t0)
			}
		}
		ctx.Ops += ops
	})
	rt.Finish()
	perPart := make([]float64, len(e.Data.Parts)*R)
	for id := 0; id < n; id++ {
		sp := rt.Layout().Chunk(id).Span
		for r := 0; r < R; r++ {
			perPart[sp*R+r] += buf[id*R+r]
		}
	}
	totals := make([]float64, R)
	for ip := range e.Data.Parts {
		if !act[ip] {
			continue
		}
		for r := 0; r < R; r++ {
			totals[r] += perPart[ip*R+r]
		}
	}
	return totals
}

// BranchDerivativesBatch evaluates d lnL / dz and d² lnL / dz² for every
// replicate of the WeightSet over the branch whose sumtable was last
// prepared, at per-partition branch lengths z. The sumtable — like the CLVs —
// is weight-independent, so one PrepareSumtable serves the whole batch and
// each Newton iteration costs one R-lane sweep. Results land in d1 and d2,
// both of length NumPartitions*R indexed [partition*R + replicate]; masked
// partitions are zeroed. Lane r is bit-identical to an unbatched
// BranchDerivatives run under replicate r's weight override.
func (e *Engine) BranchDerivativesBatch(z []float64, active []bool, ws *WeightSet, d1, d2 []float64) error {
	if err := e.checkBatch(ws); err != nil {
		return err
	}
	R := ws.r
	want := len(e.Data.Parts) * R
	if len(d1) != want || len(d2) != want {
		return fmt.Errorf("core: derivative buffers have %d/%d entries, want %d (partitions x replicates)", len(d1), len(d2), want)
	}
	act := e.activeOrAll(active)
	e.refreshSchedule() // region boundary: adopt a rebalanced schedule if published
	e.derivativeBatchRegion(z, act, ws, d1, d2)
	return nil
}

// derivativeBatchRegion is the R-lane Newton-derivative reduction: 2R
// partials per chunk, reduced in fixed chunk-id order.
func (e *Engine) derivativeBatchRegion(z []float64, act []bool, ws *WeightSet, d1, d2 []float64) {
	rt := e.rt
	R := ws.r
	n := rt.Layout().NumChunks()
	if cap(e.batchDerivChunk) < 2*n*R {
		e.batchDerivChunk = make([]float64, 2*n*R)
	}
	buf := e.batchDerivChunk[:2*n*R]
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
				c.bindBatch(ws)
				cached = ch.Span
			}
			count := c.kern.DerivativesBatch(&c, ch.Run(), buf[id*2*R:(id+1)*2*R])
			ops += float64(count) * opsDerivativeBatch(c.s, c.cats, R)
			if e.measure {
				e.chargeChunk(w, ch.Span, ch.Patterns(), t0)
			}
		}
		ctx.Ops += ops
	})
	rt.Finish()
	for k := range d1 {
		d1[k], d2[k] = 0, 0
	}
	for id := 0; id < n; id++ {
		sp := rt.Layout().Chunk(id).Span
		for r := 0; r < R; r++ {
			d1[sp*R+r] += buf[id*2*R+2*r]
			d2[sp*R+r] += buf[id*2*R+2*r+1]
		}
	}
}
