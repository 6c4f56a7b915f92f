package core

import (
	"fmt"
	"math"
	"testing"

	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// poisonBuffers fills every buffer of a set with values no kernel may read
// before writing: NaN CLVs, sumtable and scratch, huge scaling exponents,
// and set scaling flags. A kernel that accumulated into a recycled entry, or
// read one its session never computed, turns a result into NaN or shifts it
// by ~1e11 log units.
func poisonBuffers(b *sessionBuffers) {
	nan := math.NaN()
	fill := func(v []float64) {
		for i := range v {
			v[i] = nan
		}
	}
	for i := range b.clvs {
		fill(b.clvs[i])
		for j := range b.scales[i] {
			b.scales[i][j] = 1 << 29
		}
	}
	fill(b.sumtable)
	for w := range b.pmScratch {
		fill(b.pmScratch[w][0])
		fill(b.pmScratch[w][1])
		fill(b.exScratch[w])
		fill(b.tipScratch[w][0])
		fill(b.tipScratch[w][1])
	}
	for w := range b.smallScratch {
		for j := range b.smallScratch[w] {
			b.smallScratch[w][j] = true
		}
	}
}

// recycledSession opens a session that really drew a poisoned, previously
// released buffer set from sh's pool. sync.Pool may drop a Put (it drops
// some on purpose under the race detector) or park it on another P, so it
// retries a bounded number of times.
func recycledSession(t *testing.T, open func() *Engine) *Engine {
	t.Helper()
	for attempt := 0; attempt < 64; attempt++ {
		prev := open()
		set := prev.bufs
		poisonBuffers(set)
		prev.Release()
		if prev.clvs != nil || prev.bufs != nil {
			t.Fatal("Release left the engine holding its buffers")
		}
		next := open()
		if next.bufs == set {
			return next
		}
		next.Release()
	}
	t.Fatal("the pool never handed a released buffer set to the next session")
	return nil
}

// maskedRecord runs the oldPAR pattern on a session whose CLVs were never
// computed: one partition active at a time, a full traversal under that
// mask, then the masked evaluate, sumtable and derivatives. The inactive
// partitions' CLV entries hold whatever the buffers held before, and none
// of it may leak into the active partition's results.
func maskedRecord(eng *Engine) []uint64 {
	var out []uint64
	nP := eng.NumPartitions()
	root := eng.Tree.Tips[0].Back
	z := make([]float64, nP)
	for i := range z {
		z[i] = 0.3
	}
	d1 := make([]float64, nP)
	d2 := make([]float64, nP)
	for ip := 0; ip < nP; ip++ {
		mask := make([]bool, nP)
		mask[ip] = true
		eng.InvalidateCLVs()
		eng.Traverse(root, false, mask)
		_, perPart := eng.Evaluate(root, mask)
		eng.TraverseRoot(root, false, mask)
		eng.PrepareSumtable(root, mask)
		eng.BranchDerivatives(z, mask, d1, d2)
		out = append(out, math.Float64bits(perPart[ip]),
			math.Float64bits(d1[ip]), math.Float64bits(d2[ip]))
	}
	return out
}

// TestRecycledBuffersBitIdentical is the acceptance test for session buffer
// recycling: a session that draws a released set full of NaN values and
// huge scaling exponents must produce the same bits as a session over a
// fresh Shared, whose first set comes zeroed from the allocator. It covers
// total and per-partition lnL, both branch derivatives, every lane of the
// batched evaluate and derivatives, and an oldPAR masked traversal, on both
// backends, at 1 and 4 categories, with stealing on and off, and with joint
// and per-partition branch lengths.
func TestRecycledBuffersBitIdentical(t *testing.T) {
	const threads = 3
	pool, err := parallel.NewPool(threads)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, backend := range []Backend{BackendGeneric, BackendFused} {
		for _, cats := range []int{1, 4} {
			for _, steal := range []bool{false, true} {
				for _, zSlots := range []int{1, 2} {
					label := fmt.Sprintf("%v/cats%d/steal=%v/zslots%d", backend, cats, steal, zSlots)
					d, models := stealFixture(t, cats, 31)
					opts := Options{Specialize: true, Schedule: schedule.Weighted, Steal: steal, MinChunk: 16}
					open := func(sh *Shared) *Engine {
						tr, err := tree.Random(taxaNames(d.NumTaxa()), zSlots, tree.RandomOptions{Seed: 5})
						if err != nil {
							t.Fatal(err)
						}
						// Give every slot its own lengths so per-partition
						// branch lengths really differ from the joint ones.
						for i, b := range tr.Branches() {
							for k := range b.Z {
								b.Z[k] = 0.02 + 0.01*float64((i+3*k)%11)
							}
						}
						ms := make([]*model.Model, len(models))
						for i, m := range models {
							ms[i] = m.Clone()
						}
						eng, err := NewSession(sh, tr, ms, pool.Session(), opts)
						if err != nil {
							t.Fatal(err)
						}
						return eng
					}
					newShared := func() *Shared {
						sh, err := NewSharedWith(d, cats, threads, backend)
						if err != nil {
							t.Fatal(err)
						}
						return sh
					}

					fresh := open(newShared())
					wantMasked := maskedRecord(fresh)
					want := goldenRecord(t, fresh)

					sh := newShared()
					eng := recycledSession(t, func() *Engine { return open(sh) })
					gotMasked := maskedRecord(eng)
					got := goldenRecord(t, eng)
					eng.Release()

					for i := range wantMasked {
						if gotMasked[i] != wantMasked[i] {
							t.Errorf("%s masked[%d]: bits %#016x != fresh %#016x (%v vs %v)", label, i,
								gotMasked[i], wantMasked[i],
								math.Float64frombits(gotMasked[i]), math.Float64frombits(wantMasked[i]))
						}
					}
					for _, key := range sortedKeys(want) {
						w, g := want[key], got[key]
						for i := range w {
							if g[i] != w[i] {
								t.Errorf("%s %s[%d]: bits %#016x != fresh %#016x (%v vs %v)", label, key, i,
									g[i], w[i], math.Float64frombits(g[i]), math.Float64frombits(w[i]))
							}
						}
					}
				}
			}
		}
	}
}
