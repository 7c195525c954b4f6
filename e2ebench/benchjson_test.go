package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root records the workloads and metrics
// this command reports; the two must not drift apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads recorded, %d defined", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: recorded %q (%q), defined %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEndCatalog) {
		t.Fatalf("%d end-to-end metrics recorded, %d reported", len(b.EndToEnd), len(endToEndCatalog))
	}
	for i, m := range b.EndToEnd {
		c := endToEndCatalog[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("end-to-end %d: recorded %s %s %s, reported %s %s %s", i, m.Name, m.Unit, m.Better, c.name, c.unit, c.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayerCatalog) {
		t.Fatalf("%d per-layer metrics recorded, %d reported", len(b.PerLayer), len(perLayerCatalog))
	}
	for i, m := range b.PerLayer {
		c := perLayerCatalog[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer %d: recorded %s %s %s, reported %s %s %s", i, m.Name, m.Unit, m.Better, c.name, c.unit, c.better)
		}
	}
}
