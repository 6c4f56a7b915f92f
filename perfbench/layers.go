package main

import (
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"phylo"
	"phylo/internal/obs"
	"phylo/internal/parallel"
)

// regSnap is a registry snapshot keyed by series: family name plus its
// sorted labels.
type regSnap map[string]regSample

type regSample struct {
	name   string
	labels map[string]string
	value  float64
}

func snapshot(reg *obs.Registry) regSnap {
	out := regSnap{}
	for _, s := range reg.Snapshot() {
		labels := make(map[string]string, len(s.Labels))
		parts := make([]string, 0, len(s.Labels))
		for _, l := range s.Labels {
			labels[l.Key] = l.Value
			parts = append(parts, l.Key+"="+l.Value)
		}
		sort.Strings(parts)
		out[s.Name+"{"+strings.Join(parts, ",")+"}"] = regSample{name: s.Name, labels: labels, value: s.Value}
	}
	return out
}

// since returns the per-series change from an earlier snapshot.
func (s regSnap) since(before regSnap) regSnap {
	out := make(regSnap, len(s))
	for k, v := range s {
		v.value -= before[k].value
		out[k] = v
	}
	return out
}

// sum adds up every series of a family whose labels include all of the
// given key=value pairs.
func (s regSnap) sum(name string, match ...string) float64 {
	total := 0.0
	for _, v := range s {
		if v.name != name || !v.matches(match) {
			continue
		}
		total += v.value
	}
	return total
}

func (v regSample) matches(match []string) bool {
	for _, m := range match {
		k, want, _ := strings.Cut(m, "=")
		if v.labels[k] != want {
			return false
		}
	}
	return true
}

// series returns the values of every series of a family.
func (s regSnap) series(name string) []float64 {
	var out []float64
	for _, v := range s {
		if v.name == name {
			out = append(out, v.value)
		}
	}
	return out
}

// maxOverMean is the max/avg ratio of v (1 for empty or all-zero input).
func maxOverMean(v []float64) float64 {
	sum, max := 0.0, 0.0
	for _, x := range v {
		sum += x
		max = math.Max(max, x)
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(v)))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// regionKinds are the region kinds the kernel runtime reports, as labelled
// in plk_regions_total, with the metric-name suffix for each.
var regionKinds = [][2]string{
	{"newview", "newview"}, {"evaluate", "evaluate"}, {"sumtable", "sumtable"},
	{"derivative", "derivative"}, {"rate-eval", "rate_eval"}, {"other", "other"},
}

// kernelLayers derives the core, parallel, steal and schedule metrics from
// the change in a dataset registry over ops operations.
func kernelLayers(m metrics, d regSnap, ops float64) {
	patterns := d.sum("plk_kernel_patterns_total")
	m.set("core.newview_patterns_per_op", ratio(patterns, ops), "count/op")
	for _, c := range [][2]string{{"tip-tip", "tip_tip"}, {"tip-inner", "tip_inner"}, {"inner-inner", "inner_inner"}} {
		m.set("core.spans_per_op."+c[1], ratio(d.sum("plk_kernel_spans_total", "case="+c[0]), ops), "count/op")
	}
	newviewSecs := d.sum("plk_worker_region_seconds_sum", "kind=newview")
	m.set("core.ns_per_pattern", ratio(newviewSecs*1e9, patterns), "ns")
	m.set("core.scaling_events", ratio(d.sum("plk_scaling_events_total"), ops), "count/op")

	regions := d.sum("plk_regions_total")
	m.set("parallel.regions_per_op", ratio(regions, ops), "count/op")
	for _, k := range regionKinds {
		m.set("parallel.regions_per_op."+k[1], ratio(d.sum("plk_regions_total", "kind="+k[0]), ops), "count/op")
	}
	busy := d.series("plk_worker_busy_seconds_total")
	busyTotal, idleTotal := 0.0, d.sum("plk_worker_idle_seconds_total")
	for _, b := range busy {
		busyTotal += b
	}
	m.set("parallel.busy_frac", ratio(busyTotal, busyTotal+idleTotal), "frac")
	m.set("parallel.idle_s", ratio(idleTotal, ops), "s/op")
	m.set("parallel.time_imbalance", maxOverMean(busy), "ratio")
	m.set("schedule.worker_imbalance", maxOverMean(d.series("plk_worker_ops_total")), "ratio")

	m.set("steal.steals_per_region", ratio(d.sum("plk_steals_total"), regions), "count")
	m.set("steal.migrated_frac", ratio(d.sum("plk_stolen_patterns_total"), patterns), "frac")
	m.set("steal.races", ratio(d.sum("plk_steal_races_total"), ops), "count/op")
}

// regionP50 is the median region duration, in µs, from the per-worker
// region spans of a dataset tracer: the spans of one region share its start
// time, and the region lasts until its slowest worker finishes.
func regionP50(tr *obs.Tracer) (float64, error) {
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Cat string  `json:"cat"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		return 0, err
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		return 0, err
	}
	longest := map[float64]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "region" {
			longest[ev.Ts] = math.Max(longest[ev.Ts], ev.Dur)
		}
	}
	durs := make([]float64, 0, len(longest))
	for _, d := range longest {
		durs = append(durs, d)
	}
	if len(durs) == 0 {
		return 0, nil
	}
	return median(durs), nil
}

// emptyRegionUS times an empty-bodied region on a fresh T-worker pool: the
// fixed cost of one dispatch and barrier. It reports the median over
// batches of per-region time, in µs.
func emptyRegionUS(threads int) (float64, error) {
	pool, err := parallel.NewPool(threads)
	if err != nil {
		return 0, err
	}
	defer pool.Close()
	empty := func(int, *parallel.WorkerCtx) {}
	const batches, perBatch = 21, 500
	for i := 0; i < perBatch; i++ {
		pool.Run(parallel.RegionOther, empty)
	}
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			pool.Run(parallel.RegionOther, empty)
		}
		per[b] = float64(time.Since(start)) / float64(time.Microsecond) / perBatch
	}
	return median(per), nil
}

// memSnap is the process allocation and GC state at one instant.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// allocMB is the heap allocated since s, in MB (10^6 bytes).
func (s memSnap) allocMB(now memSnap) float64 { return float64(now.totalAlloc-s.totalAlloc) / 1e6 }

// gcLayers reports GC cost per operation between two instants.
func gcLayers(m metrics, before, after memSnap, ops float64) {
	m.set("gc.pause_ms", ratio(float64(after.pauseNs-before.pauseNs)/1e6, ops), "ms/op")
	m.set("gc.cycles_per_op", ratio(float64(after.numGC-before.numGC), ops), "count/op")
}

// endToEnd fills the end-to-end metrics shared by every workload from the
// operation log of the measured phase. workPerOp converts operations into
// the unit ops_per_s counts (1, or R replicates per bootstrap call).
func endToEnd(m metrics, log *opLog, elapsed time.Duration, setupS, allocMB, workPerOp float64) {
	m.set("setup_s", setupS, "s")
	m.set("latency_p50_ms", median(log.latMS), "ms")
	m.set("latency_tail_ms", tail(log.latMS), "ms")
	m.set("ops_per_s", float64(len(log.latMS))*workPerOp/elapsed.Seconds(), "1/s")
	m.set("alloc_mb_per_op", ratio(allocMB, float64(log.attempted)), "MB")
}

// footprintMB is the dataset's priced memory footprint in MB.
func footprintMB(ds *phylo.Dataset) float64 { return float64(ds.MemoryFootprint()) / 1e6 }

// zeroLayers sets every per-layer metric a workload's layers do not
// produce to 0, so each traced run reports the full metric set: a 0 means
// the layer did no such work in this workload.
func zeroLayers(m metrics) {
	for _, d := range perLayerUnits {
		if _, ok := m[d[0]]; !ok {
			m.set(d[0], 0, d[1])
		}
	}
}

// endToEndUnits lists every end-to-end metric with its unit, as endToEnd
// reports them; BENCHMARK.json declares the same set.
var endToEndUnits = [][2]string{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
}

// perLayerUnits lists every per-layer metric with its unit; BENCHMARK.json
// declares the same set.
var perLayerUnits = [][2]string{
	{"server.admission_acquire_us_p50", "us"},
	{"server.admission_acquire_us_p99", "us"},
	{"server.admission_rejected", "count"},
	{"server.cache_ref_us", "us"},
	{"server.kernel_runs_per_request", "count/op"},
	{"server.coalesced_frac", "frac"},
	{"server.http_overhead_ms", "ms"},
	{"phylo.parse_s", "s"},
	{"phylo.dataset_build_s", "s"},
	{"phylo.dataset_footprint_mb", "MB"},
	{"phylo.session_open_ms", "ms"},
	{"phylo.session_alloc_mb", "MB"},
	{"phylo.set_alpha_ms", "ms"},
	{"phylo.loglik_ms", "ms"},
	{"phylo.bootstrap_candidate_ms", "ms"},
	{"core.newview_patterns_per_op", "count/op"},
	{"core.spans_per_op.tip_tip", "count/op"},
	{"core.spans_per_op.tip_inner", "count/op"},
	{"core.spans_per_op.inner_inner", "count/op"},
	{"core.ns_per_pattern", "ns"},
	{"core.scaling_events", "count/op"},
	{"parallel.regions_per_op", "count/op"},
	{"parallel.regions_per_op.newview", "count/op"},
	{"parallel.regions_per_op.evaluate", "count/op"},
	{"parallel.regions_per_op.sumtable", "count/op"},
	{"parallel.regions_per_op.derivative", "count/op"},
	{"parallel.regions_per_op.rate_eval", "count/op"},
	{"parallel.regions_per_op.other", "count/op"},
	{"parallel.region_us_p50", "us"},
	{"parallel.busy_frac", "frac"},
	{"parallel.idle_s", "s/op"},
	{"parallel.time_imbalance", "ratio"},
	{"parallel.empty_region_us", "us"},
	{"steal.steals_per_region", "count"},
	{"steal.migrated_frac", "frac"},
	{"steal.races", "count/op"},
	{"schedule.worker_imbalance", "ratio"},
	{"opt.regions_per_round", "count"},
	{"search.moves_tried", "count"},
	{"search.moves_applied", "count"},
	{"search.round_s", "s"},
	{"gc.pause_ms", "ms/op"},
	{"gc.cycles_per_op", "count/op"},
	{"obs.trace_overhead_frac", "frac"},
}
