package core

import (
	"fmt"
	"math"

	"phylo/internal/alignment"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// Evaluate computes the log likelihood at the virtual root placed on the
// branch (p, p.Back). Both end CLVs must already be valid and oriented
// towards the branch (use TraverseRoot). It returns the total over active
// partitions and the per-partition values (zero entries for masked
// partitions). The per-pattern reduction is one parallel region; the
// per-partition sums are what the newPAR optimizers consume.
func (e *Engine) Evaluate(p *tree.Node, active []bool) (float64, []float64) {
	q := p.Back
	if p.IsTip() && q.IsTip() {
		panic("core: Evaluate on a tip-tip branch (2-taxon tree not supported)")
	}
	// Orient so that the possibly-tip end is q: the kernel treats p's side
	// as the pi-weighted "left" vector, which may be a tip vector too.
	act := e.activeOrAll(active)
	e.refreshSchedule() // region boundary: adopt a rebalanced schedule if published
	return e.evaluateRegion(p, q, act)
}

// patternLi is the per-pattern evaluate kernel shared by the parallel
// reduction and SiteLogLikelihoods: the (unnormalized) sum-over-categories
// site likelihood before the log and the scaling-exponent correction, read
// through the layout strides. When the q-side tip table is built, its row
// already holds the P applications. The accumulation runs in (cat asc, state
// asc) order — the order every backend must preserve for bit-identity.
//
//plk:hotpath
func (c *evalSpanCtx) patternLi(j, off int) float64 {
	s, cats := c.s, c.cats
	li := 0.0
	var tvl, tvr []float64
	if c.pTip {
		tvl = alignment.TipVector(c.dtype, c.pRow[j])
	}
	if c.qTab != nil {
		t := c.qTab[int(c.qRow[j])*c.cs:]
		for cat := 0; cat < cats; cat++ {
			cl := tvl
			if !c.pTip {
				co := off + cat*c.catStride
				cl = c.pv[co : co+s]
			}
			tc := t[cat*s : (cat+1)*s]
			for a := 0; a < s; a++ {
				li += c.freqs[a] * cl[a] * tc[a]
			}
		}
		return li
	}
	if c.qTip {
		tvr = alignment.TipVector(c.dtype, c.qRow[j])
	}
	ss := s * s
	for cat := 0; cat < cats; cat++ {
		pc := c.pm[cat*ss : (cat+1)*ss]
		co := off + cat*c.catStride
		cl := tvl
		if !c.pTip {
			cl = c.pv[co : co+s]
		}
		cr := tvr
		if !c.qTip {
			cr = c.qv[co : co+s]
		}
		for a := 0; a < s; a++ {
			row := a * s
			t := 0.0
			for b := 0; b < s; b++ {
				t += pc[row+b] * cr[b]
			}
			li += c.freqs[a] * cl[a] * t
		}
	}
	return li
}

// evalSpanCtx is the per-(partition, worker) evaluate setup the region
// driver prepares once per span encounter; each chunk yields one partial
// sum, reduced master-side in fixed chunk order. A tip on the q side whose
// chunk amortizes a lookup table skips the per-pattern P application
// entirely (tip-case specialization; results are bit-identical). See
// nvSpanCtx.
type evalSpanCtx struct {
	e          *Engine
	ip, w      int
	s, cats    int
	cs         int
	base       int
	patStride  int // layout: offset between consecutive patterns
	catStride  int // layout: offset between consecutive categories
	partOffset int
	dtype      alignment.DataType
	weights    []float64
	invCats    float64
	pTip, qTip bool
	pv, qv     []float64
	psc, qsc   []int32
	pRow, qRow []byte
	pm         []float64
	freqs      []float64
	qTab       []float64
	kern       KernelBackend
	fixed      float64

	// Batched-replicate bindings (zero unless bindBatch attached a WeightSet):
	// batchR lanes per pattern, batchW[j*batchR+r] the weight of the span's
	// j-th pattern under replicate r (see internal/core/batch.go).
	batchR int
	batchW []float64
}

// prepareEvalSpan binds c to (root branch, partition, worker): the p-side
// transition matrices into the worker's scratch and the CLV/tip views of
// both branch ends.
func (e *Engine) prepareEvalSpan(c *evalSpanCtx, p, q *tree.Node, ip, w int, pm []float64) {
	part := e.Data.Parts[ip]
	s := part.Type.States()
	cats := e.numCats
	m := e.Models[ip]
	m.PMatrices(p.Z[e.slotOf(ip)], pm[:cats*s*s])
	*c = evalSpanCtx{
		e: e, ip: ip, w: w, s: s, cats: cats, cs: cats * s,
		base: e.layout.Base(ip), patStride: e.layout.PatStride(ip), catStride: e.layout.CatStride(ip),
		partOffset: part.Offset, dtype: part.Type,
		weights: e.weightsFor(part), invCats: 1.0 / float64(cats),
		pTip: p.IsTip(), qTip: q.IsTip(),
		pm: pm, freqs: m.Freqs,
		kern:  e.kernels[ip],
		fixed: float64(cats * s * s * s), // per-worker P-matrix setup
	}
	if c.pTip {
		c.pRow = part.Tips[p.Index]
	} else {
		c.pv = e.clv(p.Index)
		c.psc = e.scale(p.Index)
	}
	if c.qTip {
		c.qRow = part.Tips[q.Index]
	} else {
		c.qv = e.clv(q.Index)
		c.qsc = e.scale(q.Index)
	}
}

// ensureTable builds the q-side tip lookup table when the pending work unit
// amortizes it (see nvSpanCtx.ensureTables for the determinism argument).
func (c *evalSpanCtx) ensureTable(patterns int) {
	e := c.e
	if !e.Specialize || !c.qTip || c.qTab != nil || patterns < tipTableMinPatterns(c.dtype) {
		return
	}
	c.qTab = buildTipTable(e.tipScratch[c.w][0], c.dtype, c.pm[:c.cats*c.s*c.s], c.s, c.cats)
	c.fixed += opsTipTable(c.s, c.cats, alignment.NumCodes(c.dtype))
}

// takeOps prices count processed patterns and claims the setup charge.
func (c *evalSpanCtx) takeOps(count int) float64 {
	ops := float64(count)*opsEvaluateCase(c.s, c.cats, c.qTab != nil) + c.fixed
	c.fixed = 0
	return ops
}

// process reduces one pattern run to its weighted log-likelihood partial sum
// and pattern count, dispatching through the partition's backend. Patterns
// are accumulated in ascending order within the run, so a run's partial is
// invariant to which worker processes it.
func (c *evalSpanCtx) process(run schedule.Run) (float64, int) {
	return c.kern.Evaluate(c, run)
}

// processGeneric is the layout-aware generic evaluate body.
//
//plk:hotpath
func (c *evalSpanCtx) processGeneric(run schedule.Run) (float64, int) {
	sum := 0.0
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		sum += c.weights[j] * c.site(i, j, c.patternLi(j, c.base+j*c.patStride))
		count++
	}
	return sum, count
}

// site turns one pattern's raw category-summed likelihood into its site log
// likelihood: normalize by the category count, fold in the scaling exponents
// of both branch ends, clamp, and take the log. It is the shared tail of
// every backend's evaluate body and of SiteLogLikelihoods.
//
//plk:hotpath
func (c *evalSpanCtx) site(i, j int, rawLi float64) float64 {
	li := rawLi * c.invCats
	sc := int32(0)
	if !c.pTip {
		sc += c.psc[i]
	}
	if !c.qTip {
		sc += c.qsc[i]
	}
	if li <= 0 || math.IsNaN(li) {
		// Fully incompatible data cannot occur with strictly positive P
		// matrices; guard against pathological rounding anyway.
		li = math.SmallestNonzeroFloat64
	}
	return math.Log(li) + float64(sc)*logMinLik
}

// SiteLogLikelihoods returns the per-pattern log likelihoods (unweighted) of
// one partition at the canonical root; primarily a debugging and testing
// aid. It routes every pattern through the same evalSpanCtx kernel (layout
// strides, tip table decision, clamp) as the parallel reduction, so it cannot
// drift from the parallel path on any backend: the stride-aware generic body
// and the fused body accumulate in the same order, so their site values are
// bit-identical and one serial sweep serves every backend.
func (e *Engine) SiteLogLikelihoods(ip int) []float64 {
	root := e.Tree.Tips[0].Back
	e.Traverse(root, false, nil)
	q := root.Back
	if root.IsTip() && q.IsTip() {
		panic("core: degenerate two-taxon tree")
	}
	part := e.Data.Parts[ip]
	out := make([]float64, part.PatternCount)
	// Runs outside any region, so worker 0's scratch is free to borrow.
	var c evalSpanCtx
	e.prepareEvalSpan(&c, root, q, ip, 0, e.pmScratch[0][0])
	c.ensureTable(part.PatternCount)
	for j := 0; j < part.PatternCount; j++ {
		i := part.Offset + j
		out[j] = c.site(i, j, c.patternLi(j, c.base+j*c.patStride))
	}
	return out
}

// CheckFinite validates that a log likelihood is a usable number; the
// optimizers call it to fail fast on numerical corruption.
func CheckFinite(lnl float64) error {
	if math.IsNaN(lnl) || math.IsInf(lnl, 0) {
		return fmt.Errorf("core: non-finite log likelihood %v", lnl)
	}
	return nil
}
