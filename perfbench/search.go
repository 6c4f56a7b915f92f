package main

import (
	"context"
	"fmt"
	"time"

	"phylo"
)

// The search workload: the plkrun -mode search path through the facade on
// the paper's hard case — a mixed DNA+protein alignment with per-partition
// branch lengths, newPAR, the weighted schedule and work stealing at
// T = nproc. Each operation is one SPR search with a fixed round count and
// radius from the next seed-generated start tree.
const (
	searchTaxa     = 24
	searchDNAParts = 12
	searchAAParts  = 6
	searchPartLen  = 45 // 810 columns in all
	searchRounds   = 1
	searchRadius   = 2
	searchMinOps   = 3
	searchTrees    = 64
	// searchTracedOps is the fixed search count of each traced-run phase, so
	// the per-layer counts repeat exactly for a seed.
	searchTracedOps = 3
)

// searchOutcome is what the correctness check compares.
type searchOutcome struct {
	lnl            float64
	applied, tried int
}

func searchDatasetOptions(threads int) phylo.DatasetOptions {
	return phylo.DatasetOptions{Threads: threads, Schedule: phylo.ScheduleWeighted, Steal: true}
}

func searchAnalysisOptions(tree string) phylo.AnalysisOptions {
	return phylo.AnalysisOptions{Strategy: phylo.NewPar, PerPartitionBranchLengths: true, StartTreeNewick: tree}
}

// searchOnce opens a session on the start tree, runs the fixed search and
// closes the session. The search call alone is timed. Spans go to rec under
// op id op.
func searchOnce(ds *phylo.Dataset, tree string, rec *spanRecorder, op int64) (searchOutcome, time.Duration, error) {
	o := searchAnalysisOptions(tree)
	last := time.Now()
	if rec != nil {
		o.Progress = func(ev phylo.ProgressEvent) {
			now := time.Now()
			rec.add(span{name: "search.round", id: rec.newID(), parent: op, op: op, start: last, dur: now.Sub(last)})
			last = now
		}
	}
	var an *phylo.Analysis
	var err error
	rec.timed("phylo.session_open", op, op, 0, func() { an, err = ds.NewAnalysis(o) })
	if err != nil {
		return searchOutcome{}, 0, fmt.Errorf("opening session: %w", err)
	}
	defer rec.timed("phylo.session_close", op, op, 0, func() { an.Close() })
	var res phylo.SearchResult
	start := time.Now()
	last = start
	res, err = an.SearchWith(context.Background(), phylo.SearchOptions{MaxRounds: searchRounds, Radius: searchRadius})
	d := time.Since(start)
	rec.add(span{name: "phylo.search", id: op, op: op, start: start, dur: d})
	if err != nil {
		return searchOutcome{}, d, fmt.Errorf("search: %w", err)
	}
	return searchOutcome{lnl: res.LnL, applied: res.MovesApplied, tried: res.MovesTried}, d, nil
}

// searchPhase runs at least minOps searches on ds and continues for the
// given time, cycling through the start trees, and returns each search's
// outcome and latency and the elapsed time.
func searchPhase(ds *phylo.Dataset, trees []string, seconds float64, minOps int, rec *spanRecorder) ([]searchOutcome, []time.Duration, time.Duration, error) {
	var outs []searchOutcome
	var lats []time.Duration
	elapsed, err := loop(seconds, minOps, func(i int) error {
		out, d, err := searchOnce(ds, trees[i%len(trees)], rec, rec.newID())
		if err != nil {
			return err
		}
		outs = append(outs, out)
		lats = append(lats, d)
		return nil
	})
	return outs, lats, elapsed, err
}

// checkSearches compares the searches from the sampled start tree (index 0)
// with the oracle's search from that tree, and returns the operation log
// with mismatching searches counted as failed.
func checkSearches(in alignmentInput, trees []string, outs []searchOutcome, lats []time.Duration) (*opLog, error) {
	al, err := in.parse()
	if err != nil {
		return nil, err
	}
	ods, err := phylo.NewDataset(al, oracleOptions())
	if err != nil {
		return nil, err
	}
	defer ods.Close()
	want, _, err := searchOnce(ods, trees[0], nil, 0)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	log := &opLog{}
	for i, got := range outs {
		var bad error
		if i%len(trees) == 0 && (!relClose(got.lnl, want.lnl, 1e-9) || got.applied != want.applied || got.tried != want.tried) {
			bad = fmt.Errorf("search %d: lnL %.12g moves %d/%d, oracle %.12g moves %d/%d",
				i, got.lnl, got.applied, got.tried, want.lnl, want.applied, want.tried)
			fmt.Println("check failed:", bad)
		}
		log.add(lats[i], bad)
	}
	return log, nil
}

func runSearch(cfg runConfig) (report, error) {
	in, err := mixedInput(searchTaxa, searchDNAParts, searchAAParts, searchPartLen, cfg.seed)
	if err != nil {
		return report{}, err
	}
	trees := startTrees(cfg.seed, in.names, searchTrees)
	dsOpts := searchDatasetOptions(cfg.threads)
	m := metrics{}
	if !cfg.trace {
		var setup setupRuns
		ds, an, err := setup.facade(in, dsOpts, searchAnalysisOptions(trees[0]), nil, true)
		if err != nil {
			return report{}, err
		}
		an.Close()
		defer ds.Close()
		before := readMem()
		outs, lats, elapsed, err := searchPhase(ds, trees, cfg.seconds, searchMinOps, nil)
		if err != nil {
			return report{}, err
		}
		alloc := before.allocMB(readMem())
		if _, _, err := setup.facade(in, dsOpts, searchAnalysisOptions(trees[0]), nil, false); err != nil {
			return report{}, err
		}
		log, err := checkSearches(in, trees, outs, lats)
		if err != nil {
			return report{}, err
		}
		endToEnd(m, log, elapsed, median(setup.total), alloc, 1)
		return report{Correct: log.failed == 0, Attempted: log.attempted, Failed: log.failed, Metrics: m}, nil
	}

	// Traced run: an untraced phase for the overhead baseline, then the
	// same load with the registry, region tracer and spans attached.
	plain, err := buildPlain(in, dsOpts)
	if err != nil {
		return report{}, err
	}
	_, plainLats, _, err := searchPhase(plain, trees, 0, searchTracedOps, nil)
	plain.Close()
	if err != nil {
		return report{}, err
	}
	rec := newSpanRecorder()
	td, tracedOpts := newTracedDataset(dsOpts)
	var setup setupRuns
	ds, an, err := setup.facade(in, tracedOpts, searchAnalysisOptions(trees[0]), rec, true)
	if err != nil {
		return report{}, err
	}
	an.Close()
	defer ds.Close()
	regBefore, memBefore := snapshot(td.reg), readMem()
	outs, lats, _, err := searchPhase(ds, trees, 0, searchTracedOps, rec)
	if err != nil {
		return report{}, err
	}
	memAfter := readMem()
	d := snapshot(td.reg).since(regBefore)
	ops := float64(len(outs))
	log, err := checkSearches(in, trees, outs, lats)
	if err != nil {
		return report{}, err
	}

	m.set("phylo.parse_s", median(setup.parse), "s")
	m.set("phylo.dataset_build_s", median(setup.build), "s")
	m.set("phylo.dataset_footprint_mb", footprintMB(ds), "MB")
	m.set("phylo.session_open_ms", msMedian(rec.durations("phylo.session_open")), "ms")
	if err := sessionAlloc(m, ds, searchAnalysisOptions(trees[0])); err != nil {
		return report{}, err
	}
	kernelLayers(m, d, ops)
	if err := regionLayers(m, td, cfg.threads); err != nil {
		return report{}, err
	}
	applied, tried := 0, 0
	for _, o := range outs {
		applied += o.applied
		tried += o.tried
	}
	m.set("search.moves_tried", float64(tried)/ops, "count")
	m.set("search.moves_applied", float64(applied)/ops, "count")
	rounds := rec.durations("search.round")
	m.set("search.round_s", msMedian(rounds)/1e3, "s")
	m.set("opt.regions_per_round", ratio(d.sum("plk_regions_total"), float64(len(rounds))), "count")
	gcLayers(m, memBefore, memAfter, ops)
	m.set("obs.trace_overhead_frac", msMedian(lats)/msMedian(plainLats)-1, "frac")
	zeroLayers(m)
	if err := writeTrace(cfg, rec); err != nil {
		return report{}, err
	}
	return report{Correct: log.failed == 0, Attempted: log.attempted, Failed: log.failed, Metrics: m}, nil
}

// buildPlain parses and builds a dataset without timing it.
func buildPlain(in alignmentInput, o phylo.DatasetOptions) (*phylo.Dataset, error) {
	al, err := in.parse()
	if err != nil {
		return nil, err
	}
	return phylo.NewDataset(al, o)
}

// sessionAlloc sets phylo.session_alloc_mb: the heap one NewAnalysis
// allocates, median of five opens made one at a time.
func sessionAlloc(m metrics, ds *phylo.Dataset, o phylo.AnalysisOptions) error {
	o.Progress = nil
	var v []float64
	for i := 0; i < 5; i++ {
		before := readMem()
		an, err := ds.NewAnalysis(o)
		after := readMem()
		if err != nil {
			return fmt.Errorf("opening session: %w", err)
		}
		an.Close()
		v = append(v, before.allocMB(after))
	}
	m.set("phylo.session_alloc_mb", median(v), "MB")
	return nil
}

// msMedian is the median of durations in ms (0 for none).
func msMedian(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / float64(time.Millisecond)
	}
	return median(v)
}
