package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root names exactly the metrics, units and workloads this program
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(jsonE2E) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the result line %d", len(b.EndToEnd), len(jsonE2E))
	}
	for i, m := range b.EndToEnd {
		if i < len(jsonE2E) && (m.Name != jsonE2E[i] || m.Unit != unitOf(m.Name)) {
			t.Errorf("end_to_end[%d] = %+v, program reports %s in %s", i, m, jsonE2E[i], unitOf(jsonE2E[i]))
		}
	}
	if len(b.PerLayer) != len(layerDefs) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(layerDefs))
	}
	for i, m := range b.PerLayer {
		if i < len(layerDefs) && (m.Name != layerDefs[i].Name || m.Unit != layerDefs[i].Unit) {
			t.Errorf("per_layer[%d] = %+v, program reports %+v", i, m, layerDefs[i])
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s, program has %s", i, w.Name, workloads[i])
		}
	}
}
