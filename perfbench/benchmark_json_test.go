package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness in
// step: the declared end-to-end metrics are exactly the ones endToEnd
// reports, the declared per-layer metrics exactly perLayerUnits, with the
// same units, and the declared workloads exactly the runnable ones.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q is not runnable", w.Name)
		}
	}

	m := metrics{}
	endToEnd(m, &opLog{attempted: 1, latMS: []float64{1}}, time.Second, 1, 1, 1)
	if err := checkMetricSet(m, false); err != nil {
		t.Errorf("endToEnd: %v", err)
	}
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		harness  [][2]string
	}{
		{"end-to-end", spec.EndToEnd, endToEndUnits},
		{"per-layer", spec.PerLayer, perLayerUnits},
	} {
		if len(c.declared) != len(c.harness) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the harness %d", len(c.declared), c.what, len(c.harness))
			continue
		}
		for i, d := range c.declared {
			if c.harness[i][0] != d.Name || c.harness[i][1] != d.Unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], harness %s [%s]",
					c.what, i, d.Name, d.Unit, c.harness[i][0], c.harness[i][1])
			}
		}
	}
}
