package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// contract is BENCHMARK.json: the names this command must print and the
// bound each end-to-end metric may worsen by.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("the benchmark is defined by BENCHMARK.json at the repository root: %w", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

func (c *contract) workloadNames() []string {
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// bound is the regression bound of an end-to-end metric.
func (c *contract) bound(name string) (float64, bool) {
	for _, m := range c.EndToEnd {
		if m.Name == name {
			return m.Bound, true
		}
	}
	return 0, false
}

// checkNames fails unless got holds exactly the metrics BENCHMARK.json
// lists for this kind of run, each with the listed unit.
func (c *contract) checkNames(got map[string]metric, traced bool) error {
	want := c.EndToEnd
	if traced {
		want = c.PerLayer
	}
	var problems []string
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, listed %q", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !listed[name] {
			problems = append(problems, "unlisted "+name)
		}
	}
	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	return fmt.Errorf("printed metrics differ from BENCHMARK.json: %v", problems)
}
