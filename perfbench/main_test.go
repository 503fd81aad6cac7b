package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesDriver keeps BENCHMARK.json and the metrics
// the driver emits in step: same names, units and order.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no driver", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the driver has %d", len(spec.Workloads), len(workloads))
	}
	for _, c := range []struct {
		what string
		json []m
		code [][2]string
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the driver %d", c.what, len(c.json), len(c.code))
			continue
		}
		for i, jm := range c.json {
			if jm.Name != c.code[i][0] || jm.Unit != c.code[i][1] {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, driver %s/%s", c.what, i, jm.Name, jm.Unit, c.code[i][0], c.code[i][1])
			}
		}
	}
}
