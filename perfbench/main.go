// Command perfbench is the repository benchmark. It runs one named
// workload with a given seed for a given number of seconds, checks the
// program's outputs against the single-thread generic-backend oracle, and
// prints every metric by name and unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run is traced and the metrics are the per-layer metrics, and a Chrome
// trace-event file of the benchmark's spans is written under --out.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve|search|bootstrap --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is what one workload run produces.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runConfig is the run's command line plus the load rules derived from the
// host.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	threads  int // T = nproc
	clients  int // closed-loop clients for serve, at most nproc
	host     hostInfo
}

// hostInfo is recorded with every result; numbers from differing host
// records are not comparable.
type hostInfo struct {
	Cores          int    `json:"cores"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	CPUModel       string `json:"cpu_model"`
	Threads        int    `json:"threads"`
	Clients        int    `json:"clients"`
	Oversubscribed bool   `json:"oversubscribed"`
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// that is unavailable).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var workloads = map[string]func(runConfig) (report, error){
	"serve":     runServe,
	"search":    runSearch,
	"bootstrap": runBootstrap,
}

// checkMetricSet verifies that a run reports exactly the declared metric
// set — the per-layer metrics for a traced run, the end-to-end metrics
// otherwise — with the declared units and finite values.
func checkMetricSet(m metrics, traced bool) error {
	want := endToEndUnits
	if traced {
		want = perLayerUnits
	}
	if len(m) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(m), len(want))
	}
	for _, d := range want {
		got, ok := m[d[0]]
		if !ok || got.Unit != d[1] {
			return fmt.Errorf("metric %s [%s] reported as %+v", d[0], d[1], got)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s is %v", d[0], got.Value)
		}
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: serve | search | bootstrap")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 15, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		out      = flag.String("out", ".bench_out", "directory for the traced run's trace files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload serve|search|bootstrap --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	cores := runtime.NumCPU()
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out,
		threads: cores, clients: cores,
	}
	cfg.host = hostInfo{
		Cores: cores, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		Threads: cfg.threads, Clients: cfg.clients, Oversubscribed: cfg.threads > cores,
	}
	host, _ := json.Marshal(cfg.host)
	fmt.Printf("host %s\n", host)

	rep, err := run(cfg)
	if err == nil {
		err = checkMetricSet(rep.Metrics, cfg.trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("metric %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("ops attempted %d failed %d correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
