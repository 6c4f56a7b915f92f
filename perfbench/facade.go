package main

import (
	"fmt"
	"time"

	"phylo"
	"phylo/internal/obs"
)

// A run repeats its set-up at least setupMinReps times and then until
// setupBudget has passed (at most setupMaxReps times); setup_s is the median.
const (
	setupMinReps = 5
	setupMaxReps = 50
	setupBudget  = time.Second
)

// setupRepeat runs step, one timed set-up per call, as often as the
// constants above say.
func setupRepeat(step func() error) error {
	begin := time.Now()
	for r := 0; r < setupMinReps || (r < setupMaxReps && time.Since(begin) < setupBudget); r++ {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// setupRuns collects a run's set-up timings, in seconds. A run sets up once
// before and once after its measured phase, so setup_s (the median of all
// samples) spans the whole run rather than its first second.
type setupRuns struct {
	total, parse, build, open []float64
}

// facade runs the facade set-up path — PHYLIP parse, NewDataset and the
// first NewAnalysis — repeatedly (see setupRepeat). With keep it returns the
// last dataset and session open for the load; otherwise it closes them.
// Steps are recorded as spans when rec is non-nil.
func (s *setupRuns) facade(in alignmentInput, dsOpts phylo.DatasetOptions, anOpts phylo.AnalysisOptions, rec *spanRecorder, keep bool) (*phylo.Dataset, *phylo.Analysis, error) {
	var ds *phylo.Dataset
	var an *phylo.Analysis
	release := func() {
		if an != nil {
			an.Close()
			ds.Close()
			an, ds = nil, nil
		}
	}
	err := setupRepeat(func() error {
		release()
		id := rec.newID()
		start := time.Now()
		var al *phylo.Alignment
		var err error
		s.parse = append(s.parse, rec.timed("phylo.parse", id, id, 0, func() { al, err = in.parse() }).Seconds())
		if err != nil {
			return err
		}
		var built *phylo.Dataset
		s.build = append(s.build, rec.timed("phylo.dataset_build", id, id, 0, func() { built, err = phylo.NewDataset(al, dsOpts) }).Seconds())
		if err != nil {
			return fmt.Errorf("building dataset: %w", err)
		}
		var opened *phylo.Analysis
		s.open = append(s.open, rec.timed("phylo.session_open", id, id, 0, func() { opened, err = built.NewAnalysis(anOpts) }).Seconds())
		if err != nil {
			built.Close()
			return fmt.Errorf("opening session: %w", err)
		}
		d := time.Since(start)
		ds, an = built, opened
		s.total = append(s.total, d.Seconds())
		rec.add(span{name: "setup", id: id, op: id, start: start, dur: d})
		return nil
	})
	if err != nil || !keep {
		release()
		return nil, nil, err
	}
	return ds, an, nil
}

// oracleOptions returns dataset options for the bit-exactness reference:
// one thread, the generic kernel backend, the paper's cyclic schedule and
// no stealing.
func oracleOptions() phylo.DatasetOptions {
	return phylo.DatasetOptions{Threads: 1, Backend: phylo.BackendGeneric}
}

// loop runs op(0), op(1), ... until seconds have passed and at least minOps
// operations have run, and returns the elapsed time.
func loop(seconds float64, minOps int, op func(i int) error) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		if err := op(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// tracedDataset is a dataset with the kernel runtime's own metrics
// registry and region tracer attached, as the traced run uses.
type tracedDataset struct {
	reg    *obs.Registry
	tracer *obs.Tracer
}

// traceCapacity bounds the region-span buffer of a traced dataset: one span
// per worker per region, enough for the traced phase of every workload.
const traceCapacity = 1 << 20

func newTracedDataset(o phylo.DatasetOptions) (tracedDataset, phylo.DatasetOptions) {
	t := tracedDataset{reg: phylo.NewMetricsRegistry(), tracer: phylo.NewTracer(traceCapacity)}
	o.Metrics, o.Trace = t.reg, t.tracer
	return t, o
}

// regionLayers adds the region-duration median and the empty-region probe.
func regionLayers(m metrics, t tracedDataset, threads int) error {
	p50, err := regionP50(t.tracer)
	if err != nil {
		return err
	}
	if n := t.tracer.Dropped(); n > 0 {
		return fmt.Errorf("region tracer dropped %d spans", n)
	}
	m.set("parallel.region_us_p50", p50, "us")
	empty, err := emptyRegionUS(threads)
	if err != nil {
		return err
	}
	m.set("parallel.empty_region_us", empty, "us")
	return nil
}

// writeTrace writes the run's spans and reports where.
func writeTrace(cfg runConfig, rec *spanRecorder) error {
	path, err := rec.writeChrome(cfg.out, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed), cfg.workload, cfg.host)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s (%d spans)\n", path, len(rec.spans))
	return nil
}
