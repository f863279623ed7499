package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline by which an end-to-end metric may worsen; the
// per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is BENCHMARK.json: the one place that names workloads, metrics,
// units and bounds. The program reads it so the two cannot drift.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// workloadSpec names a workload and records why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) workloadNames() []string {
	names := make([]string, len(sp.Workloads))
	for i, w := range sp.Workloads {
		names[i] = w.Name
	}
	return names
}

// find returns the declaration of a metric and whether it is end to end.
func (sp *spec) find(name string) (metricSpec, bool) {
	for _, m := range sp.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range sp.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
