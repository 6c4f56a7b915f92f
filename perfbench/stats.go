package main

import (
	"math"
	"sort"
	"time"
)

// opLog accumulates the outcome of every operation a workload attempts. An
// operation that fails — an error, a non-2xx response or a failed
// correctness check — counts against failed and contributes no latency
// sample, so a failure can never make the latency figures look better.
type opLog struct {
	attempted int
	failed    int
	latMS     []float64 // latencies of the successful operations, in ms
}

// add records one operation.
func (l *opLog) add(d time.Duration, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		return
	}
	l.latMS = append(l.latMS, float64(d)/float64(time.Millisecond))
}

// median returns the middle value of v (the mean of the two middle values
// for even lengths), or NaN for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// tailMinSamples is the smallest sample count for which the percentile
// rule in tail lies above the median.
const tailMinSamples = 21

// tailIndex is the rank, in ascending order, of the tail sample for n >=
// tailMinSamples samples: the highest percentile that still has at least
// ten samples beyond it, capped at the 99th. With n >= 1000 that is the p99
// sample; below, the 11th-largest, which leaves exactly ten beyond it.
func tailIndex(n int) int {
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if idx > n-11 {
		idx = n - 11
	}
	return idx
}

// tail is the latency tail reported for v: the tailIndex sample when v has
// at least tailMinSamples samples. With fewer, the percentile rule would
// land at or below the median, so tail reports the mean of the upper half
// of the sorted samples instead (the maximum for one or two samples). It is
// NaN for no samples.
func tail(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	if n >= tailMinSamples {
		return s[tailIndex(n)]
	}
	upper := s[n/2:]
	sum := 0.0
	for _, x := range upper {
		sum += x
	}
	return sum / float64(len(upper))
}

// relClose reports whether got agrees with want to within rel relative
// error (exact equality covers infinities and zero).
func relClose(got, want, rel float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= rel*math.Abs(want)
}
