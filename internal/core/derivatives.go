package core

import (
	"math"

	"phylo/internal/alignment"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// PrepareSumtable projects the CLVs at both ends of branch (p, p.Back) into
// the eigenbasis and stores, per pattern/category/eigenindex k,
//
//	A[k] = (sum_s pi_s L_s V_{sk}) * (sum_s' Vinv_{ks'} R_s') / numCats
//
// so that the per-site likelihood along the branch becomes the exponential
// sum l_i(z) = sum_{c,k} A_i[c,k] exp(lambda_k r_c z). One sumtable prepares
// an arbitrary number of cheap Newton-Raphson derivative iterations for the
// same branch — the sumtable region runs once per branch, the derivative
// regions once per Newton iteration. Both end CLVs must be valid (use
// TraverseRoot first).
func (e *Engine) PrepareSumtable(p *tree.Node, active []bool) {
	q := p.Back
	act := e.activeOrAll(active)
	e.refreshSchedule() // region boundary: adopt a rebalanced schedule if published
	e.sumtableRegion(p, q, act)
}

// sumSpanCtx is the per-(branch, partition, worker) sumtable setup — the
// eigenbasis views of both branch ends and the optional category-independent
// tip projection tables — prepared once per span encounter (see nvSpanCtx).
// A tip end whose chunk amortizes a projection table uses the per-code rows
// of buildTipSumLeft/Right instead of re-projecting the same 0/1 tip vector
// for every pattern and category (results are bit-identical).
type sumSpanCtx struct {
	e          *Engine
	ip, w      int
	s, cats    int
	cs         int
	base       int
	patStride  int // CLV layout: offset between consecutive patterns
	catStride  int // CLV layout: offset between consecutive categories
	sbase      int // sumtable base (the sumtable is always pattern-major)
	partOffset int
	dtype      alignment.DataType
	invCats    float64
	pTip, qTip bool
	pv, qv     []float64
	pRow, qRow []byte
	v, vi      []float64
	freqs      []float64
	lTab, rTab []float64
	kern       KernelBackend
	fixed      float64
}

// prepareSumtableSpan binds c to (branch, partition, worker).
func (e *Engine) prepareSumtableSpan(c *sumSpanCtx, p, q *tree.Node, ip, w int) {
	part := e.Data.Parts[ip]
	s := part.Type.States()
	m := e.Models[ip]
	*c = sumSpanCtx{
		e: e, ip: ip, w: w, s: s, cats: e.numCats, cs: e.numCats * s,
		base: e.layout.Base(ip), patStride: e.layout.PatStride(ip), catStride: e.layout.CatStride(ip),
		sbase: e.layout.SumIndex(ip, 0), partOffset: part.Offset,
		dtype: part.Type, invCats: 1.0 / float64(e.numCats),
		pTip: p.IsTip(), qTip: q.IsTip(),
		v: m.EigenVecs, vi: m.InvVecs, freqs: m.Freqs,
		kern: e.kernels[ip],
	}
	if c.pTip {
		c.pRow = part.Tips[p.Index]
	} else {
		c.pv = e.clv(p.Index)
	}
	if c.qTip {
		c.qRow = part.Tips[q.Index]
	} else {
		c.qv = e.clv(q.Index)
	}
}

// ensureTables builds the tip projection tables when the pending work unit
// amortizes them (see nvSpanCtx.ensureTables for the determinism argument).
func (c *sumSpanCtx) ensureTables(patterns int) {
	e := c.e
	if !e.Specialize || !(c.pTip || c.qTip) || patterns < tipTableMinPatterns(c.dtype) {
		return
	}
	codes := alignment.NumCodes(c.dtype)
	if c.pTip && c.lTab == nil {
		c.lTab = buildTipSumLeft(e.tipScratch[c.w][0], c.dtype, c.freqs, c.v, c.s)
		c.fixed += opsTipProj(c.s, codes)
	}
	if c.qTip && c.rTab == nil {
		c.rTab = buildTipSumRight(e.tipScratch[c.w][1], c.dtype, c.vi, c.s)
		c.fixed += opsTipProj(c.s, codes)
	}
}

// takeOps prices count processed patterns and claims the setup charge.
func (c *sumSpanCtx) takeOps(count int) float64 {
	ops := float64(count)*opsSumtableCase(c.s, c.cats, c.lTab != nil, c.rTab != nil) + c.fixed
	c.fixed = 0
	return ops
}

// process fills the sumtable for one pattern run and returns the pattern
// count, dispatching through the partition's backend. Sumtable writes are
// disjoint per pattern, so runs can execute on any worker in any order.
func (c *sumSpanCtx) process(run schedule.Run) int {
	return c.kern.Sumtable(c, run)
}

// processGeneric is the layout-aware generic sumtable body: CLV reads go
// through the layout strides, while the sumtable keeps the pattern-major
// geometry under every backend (the derivative kernel reduces one pattern's
// contiguous cats·s block at a time). Every backend routes here today; the
// eigenbasis projections accumulate in state-ascending order in any case.
//
//plk:hotpath
func (c *sumSpanCtx) processGeneric(run schedule.Run) int {
	s := c.s
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		off := c.base + j*c.patStride
		soff := c.sbase + j*c.cs
		var xl, xr []float64
		var lRow, rRow []float64
		if c.lTab != nil {
			code := int(c.pRow[j])
			lRow = c.lTab[code*s : (code+1)*s]
		} else if c.pTip {
			xl = alignment.TipVector(c.dtype, c.pRow[j])
		}
		if c.rTab != nil {
			code := int(c.qRow[j])
			rRow = c.rTab[code*s : (code+1)*s]
		} else if c.qTip {
			xr = alignment.TipVector(c.dtype, c.qRow[j])
		}
		for cat := 0; cat < c.cats; cat++ {
			co := off + cat*c.catStride
			var cl, cr []float64
			if lRow == nil {
				cl = xl
				if !c.pTip {
					cl = c.pv[co : co+s]
				}
			}
			if rRow == nil {
				cr = xr
				if !c.qTip {
					cr = c.qv[co : co+s]
				}
			}
			dst := c.e.sumtable[soff+cat*s : soff+(cat+1)*s]
			for k := 0; k < s; k++ {
				var lproj, rproj float64
				if lRow != nil {
					lproj = lRow[k]
				} else {
					for a := 0; a < s; a++ {
						lproj += c.freqs[a] * cl[a] * c.v[a*s+k]
					}
				}
				if rRow != nil {
					rproj = rRow[k]
				} else {
					for a := 0; a < s; a++ {
						rproj += c.vi[k*s+a] * cr[a]
					}
				}
				dst[k] = lproj * rproj * c.invCats
			}
		}
		count++
	}
	return count
}

// BranchDerivatives evaluates d lnL / dz and d^2 lnL / dz^2 for the branch
// whose sumtable was last prepared, at per-partition branch lengths z (z is
// indexed by partition; with a joint estimate pass the same value in every
// active entry). Results are written into d1 and d2 (length NumPartitions);
// masked partitions are zeroed. One parallel region per call — this is the
// unit of synchronization the paper counts per Newton iteration.
func (e *Engine) BranchDerivatives(z []float64, active []bool, d1, d2 []float64) {
	act := e.activeOrAll(active)
	e.refreshSchedule() // region boundary: adopt a rebalanced schedule if published
	e.derivativeRegion(z, act, d1, d2)
}

// derivSpanCtx is the per-(partition, branch length, worker) derivative
// setup: the per-category exponential and derivative-factor tables over the
// worker's scratch, prepared once per span encounter (see nvSpanCtx).
type derivSpanCtx struct {
	e                  *Engine
	ip                 int
	s, cats, cs        int
	sbase              int // sumtable base (always pattern-major)
	partOffset         int
	weights            []float64
	eTab, g1Tab, g2Tab []float64
	kern               KernelBackend

	// Batched-replicate bindings; see evalSpanCtx and internal/core/batch.go.
	batchR int
	batchW []float64
}

// prepareDerivSpan fills the exponential tables E = exp(lambda_k r_c z) and
// the derivative factors g1 = lambda_k r_c, g2 = g1^2 into ex.
func (e *Engine) prepareDerivSpan(c *derivSpanCtx, ip int, z float64, ex []float64) {
	part := e.Data.Parts[ip]
	s := part.Type.States()
	cats := e.numCats
	cs := cats * s
	m := e.Models[ip]
	*c = derivSpanCtx{
		e: e, ip: ip, s: s, cats: cats, cs: cs,
		sbase: e.layout.SumIndex(ip, 0), partOffset: part.Offset, weights: e.weightsFor(part),
		eTab: ex[0:cs], g1Tab: ex[cs : 2*cs], g2Tab: ex[2*cs : 3*cs],
		kern: e.kernels[ip],
	}
	for cat := 0; cat < cats; cat++ {
		rc := m.CatRates[cat]
		for k := 0; k < s; k++ {
			g := m.EigenVals[k] * rc
			c.eTab[cat*s+k] = math.Exp(g * z)
			c.g1Tab[cat*s+k] = g
			c.g2Tab[cat*s+k] = g * g
		}
	}
}

// process reduces one pattern run to its (d1, d2) partial sums and pattern
// count, dispatching through the partition's backend.
func (c *derivSpanCtx) process(run schedule.Run) (float64, float64, int) {
	return c.kern.Derivatives(c, run)
}

// processGeneric is the derivative body shared by every backend: it reads
// only the sumtable, which is pattern-major under all of them. Partials are
// accumulated in ascending pattern order within the run.
//
//plk:hotpath
func (c *derivSpanCtx) processGeneric(run schedule.Run) (float64, float64, int) {
	cs := c.cs
	dd1, dd2 := 0.0, 0.0
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
		// The cs-length dot products above already ran, so the pattern is
		// charged whether or not the guard below accepts its contribution;
		// skipped patterns must not undercount the region's performed work.
		count++
		if l < 1e-300 {
			// Scaled likelihood vanished; the pattern cannot inform this
			// branch numerically. Skip it (RAxML guards identically).
			continue
		}
		inv := 1 / l
		r1 := l1 * inv
		wgt := c.weights[j]
		dd1 += wgt * r1
		dd2 += wgt * (l2*inv - r1*r1)
	}
	return dd1, dd2, count
}
