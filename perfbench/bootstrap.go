package main

import (
	"context"
	"fmt"
	"time"

	"phylo"
)

// The bootstrap workload: Analysis.Bootstrap with R = 1000 replicates on a
// 48-taxon DNA alignment of about 5k patterns in 20 partitions, with the
// cyclic schedule and no stealing at T = nproc. Each operation is one
// Bootstrap call on the session's seed-generated start tree.
const (
	bootTaxa       = 48
	bootSites      = 5000
	bootPartLen    = 250
	bootReplicates = 1000
	bootMinOps     = 3
	// bootTracedOps is the fixed call count of each traced-run phase.
	bootTracedOps = 3
)

func bootDatasetOptions(threads int) phylo.DatasetOptions {
	return phylo.DatasetOptions{Threads: threads, Schedule: phylo.ScheduleCyclic}
}

// bootPhase runs at least minOps Bootstrap calls on one session and
// continues for the given time, and returns each call's result and latency and the elapsed time. beginOp, if
// non-nil, is told each call's op id just before the call.
func bootPhase(an *phylo.Analysis, seed int64, seconds float64, minOps int, rec *spanRecorder, beginOp func(int64)) ([]*phylo.BootstrapResult, []time.Duration, time.Duration, error) {
	var outs []*phylo.BootstrapResult
	var lats []time.Duration
	elapsed, err := loop(seconds, minOps, func(int) error {
		op := rec.newID()
		if beginOp != nil {
			beginOp(op)
		}
		start := time.Now()
		res, err := an.Bootstrap(context.Background(), bootReplicates, seed)
		d := time.Since(start)
		rec.add(span{name: "phylo.bootstrap", id: op, op: op, start: start, dur: d})
		if err != nil {
			return fmt.Errorf("bootstrap: %w", err)
		}
		outs = append(outs, res)
		lats = append(lats, d)
		return nil
	})
	return outs, lats, elapsed, err
}

// bootProgress returns a progress callback recording one span per scored
// candidate topology, and a function that sets the current op id and the
// start of its first candidate.
func bootProgress(rec *spanRecorder) (func(phylo.ProgressEvent), func(op int64)) {
	var op int64
	var last time.Time
	progress := func(ev phylo.ProgressEvent) {
		if ev.Phase != phylo.PhaseBootstrap {
			return
		}
		now := time.Now()
		rec.add(span{name: "bootstrap.candidate", id: rec.newID(), parent: op, op: op, start: last, dur: now.Sub(last)})
		last = now
	}
	return progress, func(id int64) { op, last = id, time.Now() }
}

// checkBootstraps compares every call's replicate scores and winners with
// the oracle's run of the same bootstrap, and returns the operation log
// with mismatching calls counted as failed.
func checkBootstraps(in alignmentInput, tree string, seed int64, outs []*phylo.BootstrapResult, lats []time.Duration) (*opLog, error) {
	al, err := in.parse()
	if err != nil {
		return nil, err
	}
	ods, err := phylo.NewDataset(al, oracleOptions())
	if err != nil {
		return nil, err
	}
	defer ods.Close()
	an, err := ods.NewAnalysis(phylo.AnalysisOptions{StartTreeNewick: tree})
	if err != nil {
		return nil, err
	}
	defer an.Close()
	want, err := an.Bootstrap(context.Background(), bootReplicates, seed)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	log := &opLog{}
	for i, got := range outs {
		var bad error
		for r := range want.ReplicateLnL {
			if got.ReplicateWinner[r] != want.ReplicateWinner[r] || !relClose(got.ReplicateLnL[r], want.ReplicateLnL[r], 1e-9) {
				bad = fmt.Errorf("bootstrap %d replicate %d: lnL %.12g winner %d, oracle %.12g winner %d",
					i, r, got.ReplicateLnL[r], got.ReplicateWinner[r], want.ReplicateLnL[r], want.ReplicateWinner[r])
				fmt.Println("check failed:", bad)
				break
			}
		}
		log.add(lats[i], bad)
	}
	return log, nil
}

func runBootstrap(cfg runConfig) (report, error) {
	in, err := gridInput(bootTaxa, bootSites, bootPartLen, cfg.seed)
	if err != nil {
		return report{}, err
	}
	tree := startTrees(cfg.seed, in.names, 1)[0]
	anOpts := phylo.AnalysisOptions{StartTreeNewick: tree}
	dsOpts := bootDatasetOptions(cfg.threads)
	m := metrics{}
	if !cfg.trace {
		var setup setupRuns
		ds, an, err := setup.facade(in, dsOpts, anOpts, nil, true)
		if err != nil {
			return report{}, err
		}
		defer ds.Close()
		defer an.Close()
		before := readMem()
		outs, lats, elapsed, err := bootPhase(an, cfg.seed, cfg.seconds, bootMinOps, nil, nil)
		if err != nil {
			return report{}, err
		}
		alloc := before.allocMB(readMem())
		if _, _, err := setup.facade(in, dsOpts, anOpts, nil, false); err != nil {
			return report{}, err
		}
		log, err := checkBootstraps(in, tree, cfg.seed, outs, lats)
		if err != nil {
			return report{}, err
		}
		endToEnd(m, log, elapsed, median(setup.total), alloc, bootReplicates)
		return report{Correct: log.failed == 0, Attempted: log.attempted, Failed: log.failed, Metrics: m}, nil
	}

	// Traced run: an untraced phase for the overhead baseline, then the
	// same load with the registry, region tracer and spans attached.
	plain, err := buildPlain(in, dsOpts)
	if err != nil {
		return report{}, err
	}
	plainAn, err := plain.NewAnalysis(anOpts)
	if err != nil {
		plain.Close()
		return report{}, err
	}
	_, plainLats, _, err := bootPhase(plainAn, cfg.seed, 0, bootTracedOps, nil, nil)
	plainAn.Close()
	plain.Close()
	if err != nil {
		return report{}, err
	}
	rec := newSpanRecorder()
	progress, beginOp := bootProgress(rec)
	tracedAnOpts := anOpts
	tracedAnOpts.Progress = progress
	td, tracedOpts := newTracedDataset(dsOpts)
	var setup setupRuns
	ds, an, err := setup.facade(in, tracedOpts, tracedAnOpts, rec, true)
	if err != nil {
		return report{}, err
	}
	defer ds.Close()
	defer an.Close()
	regBefore, memBefore := snapshot(td.reg), readMem()
	outs, lats, _, err := bootPhase(an, cfg.seed, 0, bootTracedOps, rec, beginOp)
	if err != nil {
		return report{}, err
	}
	memAfter := readMem()
	d := snapshot(td.reg).since(regBefore)
	ops := float64(len(outs))
	log, err := checkBootstraps(in, tree, cfg.seed, outs, lats)
	if err != nil {
		return report{}, err
	}

	m.set("phylo.parse_s", median(setup.parse), "s")
	m.set("phylo.dataset_build_s", median(setup.build), "s")
	m.set("phylo.dataset_footprint_mb", footprintMB(ds), "MB")
	m.set("phylo.session_open_ms", median(setup.open)*1e3, "ms")
	if err := sessionAlloc(m, ds, anOpts); err != nil {
		return report{}, err
	}
	cands := rec.durations("bootstrap.candidate")
	m.set("phylo.bootstrap_candidate_ms", msMedian(cands), "ms")
	kernelLayers(m, d, ops)
	if err := regionLayers(m, td, cfg.threads); err != nil {
		return report{}, err
	}
	m.set("opt.regions_per_round", ratio(d.sum("plk_regions_total"), float64(len(cands))), "count")
	gcLayers(m, memBefore, memAfter, ops)
	m.set("obs.trace_overhead_frac", msMedian(lats)/msMedian(plainLats)-1, "frac")
	zeroLayers(m)
	if err := writeTrace(cfg, rec); err != nil {
		return report{}, err
	}
	return report{Correct: log.failed == 0, Attempted: log.attempted, Failed: log.failed, Metrics: m}, nil
}
