package core

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// updateGolden rewrites testdata/static_golden_bits.txt from the current
// code instead of checking against it:
//
//	go test ./internal/core -run TestStaticGoldenBits -args -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the static golden-bits file")

const goldenBitsFile = "testdata/static_golden_bits.txt"

// goldenBatchR is the replicate width of the batched lanes the golden file
// records.
const goldenBatchR = 8

// goldenRecord runs one static session through every reduction the kernel
// exposes and returns the float64 bits of each result, keyed by quantity:
// total and per-partition lnL, both branch derivatives, and every lane of
// an R-wide EvaluateBatch and BranchDerivativesBatch.
func goldenRecord(t *testing.T, eng *Engine) map[string][]uint64 {
	t.Helper()
	res := runStealResult(t, eng)
	ws, err := NewWeightSet(eng.Data, goldenBatchR, 9090)
	if err != nil {
		t.Fatal(err)
	}
	totals, err := eng.LogLikelihoodBatch(ws)
	if err != nil {
		t.Fatal(err)
	}
	root := eng.Tree.Tips[0].Back
	eng.TraverseRoot(root, false, nil)
	eng.PrepareSumtable(root, nil)
	nP := eng.NumPartitions()
	z := make([]float64, nP)
	for i := range z {
		z[i] = 0.2
	}
	bd1 := make([]float64, nP*goldenBatchR)
	bd2 := make([]float64, nP*goldenBatchR)
	if err := eng.BranchDerivativesBatch(z, nil, ws, bd1, bd2); err != nil {
		t.Fatal(err)
	}
	bits := func(vs ...float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	return map[string][]uint64{
		"lnl":       bits(res.lnl),
		"part_lnl":  bits(res.perPart...),
		"d1":        bits(res.d1...),
		"d2":        bits(res.d2...),
		"batch_lnl": bits(totals...),
		"batch_d1":  bits(bd1...),
		"batch_d2":  bits(bd2...),
	}
}

// goldenSession builds a static (Steal off) session over the steal fixture.
// A measured-strategy session first gets one forced RebalanceNow over a
// fixed, deliberately skewed measurement window, so the rebuilt pack — and
// with it the reduction association — is deterministic rather than a
// function of wall-clock timings.
func goldenSession(t *testing.T, backend Backend, strat schedule.Strategy, cats int, exec parallel.Executor) *Engine {
	t.Helper()
	d, models := stealFixture(t, cats, 300)
	sh, err := NewSharedWith(d, cats, exec.Threads(), backend)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.Random(taxaNames(d.NumTaxa()), 1, tree.RandomOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*model.Model, len(models))
	for i, m := range models {
		ms[i] = m.Clone()
	}
	eng, err := NewSession(sh, tr, ms, exec, Options{Specialize: true, Schedule: strat})
	if err != nil {
		t.Fatal(err)
	}
	if strat == schedule.Measured {
		eng.LogLikelihood()
		eng.ResetMeasurements()
		for w := range eng.partSecs {
			for ip := range eng.partSecs[w] {
				eng.partPats[w][ip] = 100
				eng.partSecs[w][ip] = 1e-4 * float64(1+49*(1-ip)) // DNA priced 50x AA
			}
		}
		if err := eng.RebalanceNow(); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestStaticGoldenBits pins the exact floating-point results of static
// (Steal off) sessions across every schedule strategy, executor shape,
// kernel backend, and category count: total and per-partition lnL, branch
// derivatives, and all lanes of the batched reductions must reproduce the
// recorded bits exactly. Any change to the region drivers that regroups a
// reduction shows up here as a bit difference.
//
// The bits are amd64-specific: on other architectures the Go compiler may
// fuse multiply-adds, which legitimately changes the last bits.
func TestStaticGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const threads = 3
	pool, err := parallel.NewPool(threads)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	executors := []struct {
		name string
		mk   func() parallel.Executor
	}{
		{"t1", func() parallel.Executor { e, _ := parallel.NewSim(1); return e }},
		{"sim3", func() parallel.Executor { e, _ := parallel.NewSim(threads); return e }},
		{"pool3", func() parallel.Executor { return pool.Session() }},
	}
	strategies := []schedule.Strategy{schedule.Cyclic, schedule.Block, schedule.Weighted, schedule.Measured}

	got := map[string][]uint64{}
	for _, backend := range []Backend{BackendGeneric, BackendFused} {
		for _, strat := range strategies {
			for _, ex := range executors {
				for _, cats := range []int{1, 4} {
					eng := goldenSession(t, backend, strat, cats, ex.mk())
					label := fmt.Sprintf("%v/%v/%s/cats%d", backend, strat, ex.name, cats)
					for k, v := range goldenRecord(t, eng) {
						got[label+" "+k] = v
					}
					eng.Exec.Close()
				}
			}
		}
	}

	if *updateGolden {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for _, key := range sortedKeys(got) {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: missing from %s", key, goldenBitsFile)
			continue
		}
		g := got[key]
		if len(w) != len(g) {
			t.Errorf("%s: %d values, golden has %d", key, len(g), len(w))
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s[%d]: bits %#016x (%v) != golden %#016x (%v)",
					key, i, g[i], math.Float64frombits(g[i]), w[i], math.Float64frombits(w[i]))
			}
		}
	}
}

func sortedKeys(m map[string][]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeGolden stores one line per (configuration, quantity): the label, the
// quantity name, and the hex bits of every value.
func writeGolden(t *testing.T, m map[string][]uint64) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# Float64 bits of static-session results; regenerate with\n")
	b.WriteString("# go test ./internal/core -run TestStaticGoldenBits -args -update-golden\n")
	for _, key := range sortedKeys(m) {
		b.WriteString(key)
		for _, v := range m[key] {
			fmt.Fprintf(&b, " %016x", v)
		}
		b.WriteByte('\n')
	}
	if err := os.MkdirAll(filepath.Dir(goldenBitsFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenBitsFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T) map[string][]uint64 {
	t.Helper()
	f, err := os.Open(goldenBitsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]uint64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		vals := make([]uint64, 0, len(fields)-2)
		for _, h := range fields[2:] {
			v, err := strconv.ParseUint(h, 16, 64)
			if err != nil {
				t.Fatalf("malformed golden value %q: %v", h, err)
			}
			vals = append(vals, v)
		}
		out[fields[0]+" "+fields[1]] = vals
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
