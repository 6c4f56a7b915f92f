package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, idx int }{
		{21, 10},
		{100, 89},
		{500, 489},
		{999, 988},
		{1000, 989}, // p99 from here on
		{2000, 1979},
	} {
		if idx := tailIndex(c.n); idx != c.idx {
			t.Errorf("tailIndex(%d) = %d, want %d", c.n, idx, c.idx)
		}
	}
	for n := tailMinSamples; n <= 5000; n++ {
		idx := tailIndex(n)
		beyond := n - 1 - idx
		if beyond < 10 {
			t.Fatalf("n=%d: %d samples beyond the tail, want >= 10", n, beyond)
		}
		p99 := int(math.Ceil(0.99*float64(n))) - 1
		if idx != p99 && beyond != 10 {
			t.Fatalf("n=%d: tail index %d is neither p99 (%d) nor the highest rank with ten beyond", n, idx, p99)
		}
		if idx < n/2 {
			t.Fatalf("n=%d: tail index %d below the median", n, idx)
		}
	}
}

func TestTailValues(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(199 - i) // descending input
	}
	if got := tail(v); got != 189 {
		t.Errorf("tail of 0..199 = %v, want 189 (ten samples beyond)", got)
	}
	// Below tailMinSamples: the mean of the upper half.
	if got := tail([]float64{5, 1, 4, 2, 3, 6}); got != 5 {
		t.Errorf("tail of 1..6 = %v, want 5 (mean of 4, 5, 6)", got)
	}
	if got := tail([]float64{7}); got != 7 {
		t.Errorf("tail of one sample = %v, want 7", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(tail(nil)) {
		t.Error("median/tail of no samples should be NaN")
	}
}

func TestOpLogExcludesFailuresFromLatency(t *testing.T) {
	var l opLog
	l.add(2*time.Millisecond, nil)
	l.add(500*time.Millisecond, errors.New("HTTP 500"))
	l.add(4*time.Millisecond, nil)
	if l.attempted != 3 || l.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", l.attempted, l.failed)
	}
	if len(l.latMS) != 2 || median(l.latMS) != 3 {
		t.Errorf("latency samples %v, want the two successes only", l.latMS)
	}
}
