package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"phylo"
	"phylo/internal/server"
)

// replayReply mirrors the daemon's evaluate response, so the replay pays
// the same encode.
type replayReply struct {
	Dataset   string  `json:"dataset"`
	LnL       float64 `json:"lnl"`
	LnLBits   string  `json:"lnl_bits"`
	Regions   int64   `json:"regions"`
	Coalesced bool    `json:"coalesced"`
}

// replayed is one replayed request: the sum of its step spans and its
// score.
type replayed struct {
	sum  time.Duration
	bits string
	err  error
}

// replay sends bodies[from:to] through the public functions the evaluate
// handler calls, in the handler's order — JSON decode, Admission().Acquire,
// DatasetCache.Ref, NewAnalysis, SetAlpha, LogLikelihood, Close, JSON
// encode — from clients goroutines in a closed loop, recording one span per
// step under one parent span per request.
func replay(adm *server.Admission, cache *server.DatasetCache, id string, clients int, bodies [][]byte, from, to int, rec *spanRecorder) []replayed {
	out := make([]replayed, len(bodies))
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := "replay-" + strconv.Itoa(c)
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				out[i] = replayOne(adm, cache, id, tenant, c, bodies[i], int64(i)+1, rec)
			}
		}(c)
	}
	wg.Wait()
	return out
}

func replayOne(adm *server.Admission, cache *server.DatasetCache, id, tenant string, tid int, body []byte, op int64, rec *spanRecorder) replayed {
	parent := rec.newID()
	start := time.Now()
	var r replayed
	step := func(name string, fn func()) {
		r.sum += rec.timed(name, parent, op, tid, fn)
	}
	defer func() {
		rec.add(span{name: "replay.request", id: parent, op: op, tid: tid, start: start, dur: time.Since(start)})
	}()
	var q evalRequest
	var err error
	step("server.json_decode", func() { err = json.Unmarshal(body, &q) })
	if err != nil {
		r.err = err
		return r
	}
	var release func()
	step("server.admission_acquire", func() { release, err = adm.Acquire(context.Background(), tenant) })
	if err != nil {
		r.err = err
		return r
	}
	defer release()
	var h *server.CachedDataset
	step("server.cache_ref", func() { h, err = cache.Ref(id) })
	if err != nil {
		r.err = err
		return r
	}
	var an *phylo.Analysis
	step("phylo.session_open", func() {
		an, err = h.Dataset().NewAnalysis(phylo.AnalysisOptions{StartTreeNewick: q.Tree, Seed: 1})
	})
	if err != nil {
		h.Release()
		r.err = err
		return r
	}
	if q.Alpha > 0 {
		step("phylo.set_alpha", func() { err = an.SetAlpha(-1, q.Alpha) })
	}
	var lnl float64
	var regions int64
	if err == nil {
		step("phylo.loglik", func() { lnl = an.LogLikelihood(); regions = an.Stats().Regions })
	}
	step("phylo.session_close", func() { an.Close() })
	h.Release()
	if err != nil {
		r.err = err
		return r
	}
	r.bits = fmt.Sprintf("%016x", math.Float64bits(lnl))
	step("server.json_encode", func() {
		_, err = json.Marshal(replayReply{Dataset: q.Dataset, LnL: lnl, LnLBits: r.bits, Regions: regions})
	})
	r.err = err
	return r
}

// traceServe is the traced serve run. Three phases send the same
// serveTraced requests: (A) plain HTTP, the overhead baseline, over which
// the GC cost is also taken; (B) HTTP with client spans and the daemon's
// registry read before and after; (C) the replay of the handler's steps.
// B and C alternate in chunks of serveChunk requests so both see the same
// host conditions, and each request's HTTP latency is compared with its own
// replay. The replay's dataset is built by the benchmark with the daemon's
// options plus a region tracer, which a dataset built inside the daemon
// cannot carry, and held in a DatasetCache of its own; admission goes
// through the running daemon's gate.
func traceServe(cfg runConfig, in alignmentInput, d *daemon, reqs []evalRequest, body [][]byte) (report, error) {
	from, to := serveWarmup, serveWarmup+serveTraced
	memBefore := readMem()
	plain, _ := closedLoop(d.ts.URL, cfg.clients, body, from, to, time.Time{}, nil)
	memAfter := readMem()

	// Replay dataset: the daemon's build path, timed step by step.
	rec := newSpanRecorder()
	scfg := serveConfig(cfg.threads)
	td, dsOpts := newTracedDataset(phylo.DatasetOptions{
		Threads: scfg.Threads, Schedule: phylo.ScheduleWeighted, GammaCategories: 4,
	})
	var parse, build []float64
	var ds *phylo.Dataset
	err := setupRepeat(func() error {
		if ds != nil {
			ds.Close()
			ds = nil
		}
		var al *phylo.Alignment
		var err error
		parse = append(parse, rec.timed("phylo.parse", 0, 0, 0, func() { al, err = serveAlignment(in.phylip) }).Seconds())
		if err != nil {
			return err
		}
		build = append(build, rec.timed("phylo.dataset_build", 0, 0, 0, func() { ds, err = phylo.NewDataset(al, dsOpts) }).Seconds())
		return err
	})
	if err != nil {
		return report{}, err
	}
	cache := server.NewDatasetCache(0)
	defer cache.Close()
	h, _, err := cache.Acquire(d.id, func() (*phylo.Dataset, error) { return ds, nil })
	if err != nil {
		return report{}, err
	}
	h.Release()

	reg := d.srv.Metrics()
	regBefore, runsBefore := snapshot(reg), d.srv.KernelRuns()
	results := make([]reqResult, len(body))
	rep := make([]replayed, len(body))
	for lo := from; lo < to; lo += serveChunk {
		hi := min(lo+serveChunk, to)
		chunk, _ := closedLoop(d.ts.URL, cfg.clients, body, lo, hi, time.Time{}, rec)
		copy(results[lo:hi], chunk[lo:hi])
		copy(rep[lo:hi], replay(d.srv.Admission(), cache, d.id, cfg.clients, body, lo, hi, rec)[lo:hi])
	}
	delta := snapshot(reg).since(regBefore)
	runs := d.srv.KernelRuns() - runsBefore

	// A request whose replay fails or scores other bits than the daemon
	// replied with fails like any other check.
	var gaps []float64
	for i := from; i < to; i++ {
		r, x := &results[i], rep[i]
		if r.err != nil {
			continue
		}
		if x.err == nil && x.bits != r.reply.LnLBits {
			x.err = fmt.Errorf("replay lnl_bits %s, daemon %s", x.bits, r.reply.LnLBits)
		}
		if x.err != nil {
			r.err = fmt.Errorf("replay: %w", x.err)
			continue
		}
		gaps = append(gaps, float64(r.lat-x.sum)/float64(time.Millisecond))
	}
	log, err := checkReplies(in.phylip, reqs, results)
	if err != nil {
		return report{}, err
	}

	m := metrics{}
	completed := float64(len(log.latMS))
	coalesced := 0
	for _, r := range results {
		if r.sent && r.err == nil && r.reply.Coalesced {
			coalesced++
		}
	}
	acq := usValues(rec.durations("server.admission_acquire"))
	m.set("server.admission_acquire_us_p50", median(acq), "us")
	m.set("server.admission_acquire_us_p99", tail(acq), "us")
	m.set("server.admission_rejected", float64(d.srv.Admission().Stats().Rejected), "count")
	m.set("server.cache_ref_us", median(usValues(rec.durations("server.cache_ref"))), "us")
	m.set("server.kernel_runs_per_request", ratio(float64(runs), completed), "count/op")
	m.set("server.coalesced_frac", ratio(float64(coalesced), completed), "frac")
	m.set("server.http_overhead_ms", median(gaps), "ms")
	m.set("phylo.parse_s", median(parse), "s")
	m.set("phylo.dataset_build_s", median(build), "s")
	m.set("phylo.dataset_footprint_mb", footprintMB(ds), "MB")
	m.set("phylo.session_open_ms", msMedian(rec.durations("phylo.session_open")), "ms")
	if err := sessionAlloc(m, ds, phylo.AnalysisOptions{StartTreeNewick: reqs[0].Tree}); err != nil {
		return report{}, err
	}
	m.set("phylo.set_alpha_ms", msMedian(rec.durations("phylo.set_alpha")), "ms")
	m.set("phylo.loglik_ms", msMedian(rec.durations("phylo.loglik")), "ms")
	kernelLayers(m, delta, completed)
	if err := regionLayers(m, td, cfg.threads); err != nil {
		return report{}, err
	}
	gcLayers(m, memBefore, memAfter, float64(serveTraced))
	var plainLat []float64
	for _, r := range plain {
		if r.sent && r.err == nil {
			plainLat = append(plainLat, float64(r.lat)/float64(time.Millisecond))
		}
	}
	m.set("obs.trace_overhead_frac", median(log.latMS)/median(plainLat)-1, "frac")
	zeroLayers(m)
	if err := writeTrace(cfg, rec); err != nil {
		return report{}, err
	}
	return report{Correct: log.failed == 0, Attempted: log.attempted, Failed: log.failed, Metrics: m}, nil
}

// usValues converts durations to µs.
func usValues(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / float64(time.Microsecond)
	}
	return v
}
