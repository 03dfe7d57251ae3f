package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// smoke runs one workload small: a 2048-node world and a 2 s window,
// traced, so both metric families are produced.
func smoke(t *testing.T, sp *spec) *report {
	t.Helper()
	rep, err := runWorkload(runConfig{sp: sp, seed: 7, seconds: 2, nodes: 2048, setups: 1, traced: true})
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	return rep
}

// TestSmoke drives all four workloads end to end against the real SUT
// constructors, so drift in server.Config, storage or cluster breaks a
// test rather than the benchmark silently: every declared metric must
// come out finite and every correctness check must pass.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, sp := range specs {
		rep := smoke(t, sp)
		for _, p := range rep.Problems {
			t.Errorf("%s: %s", sp.name, p)
		}
		if rep.Attempted == 0 || rep.Failed != 0 {
			t.Errorf("%s: %d operations attempted, %d failed", sp.name, rep.Attempted, rep.Failed)
		}
		if err := rep.Metrics.check(endToEnd); err != nil {
			t.Errorf("%s: %v", sp.name, err)
		}
		// trace.overhead_frac compares two child runs; the parent adds it.
		rep.Metrics.put("trace.overhead_frac", 0, 0)
		rep.Metrics.fill(perLayer) // layers off this workload's path report 0
		if err := rep.Metrics.check(perLayer); err != nil {
			t.Errorf("%s: %v", sp.name, err)
		}
		for _, d := range endToEnd {
			if rep.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, d.name, rep.Metrics[d.name].Value)
			}
		}
	}
	// ~15 s on the 2-core reference box; not asserted, the race detector
	// alone quadruples it.
	t.Logf("smoke run of %d workloads took %v", len(specs), time.Since(start))
}

// TestEpochsDoNotDependOnScheduling: gated cuts make every epoch cover
// exactly the events before its cut, so the published epochs are the same
// on one P as on two.
func TestEpochsDoNotDependOnScheduling(t *testing.T) {
	sp := specByName("steady_epochs")
	var prints []string
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		rep := smoke(t, sp)
		runtime.GOMAXPROCS(prev)
		if !rep.Correct {
			t.Errorf("GOMAXPROCS=%d: %v", procs, rep.Problems)
		}
		prints = append(prints, rep.Epochs)
	}
	if prints[0] != prints[1] {
		t.Errorf("epochs differ: GOMAXPROCS=1 published %s, GOMAXPROCS=2 published %s", prints[0], prints[1])
	}
}

// TestDeclaredMetricsAreWellFormed keeps the two metric tables within the
// benchmark contract's limits.
func TestDeclaredMetricsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
		if len(d.name) > 64 || len(d.unit) > 16 || (d.better != "lower" && d.better != "higher") {
			t.Errorf("metric %+v breaks the contract's limits", d)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics declared, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json at the repository root is
// what the PR driver reads; the tables in metrics.go and workload.go are
// what the benchmark emits. They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(doc.Workloads), len(specs))
	}
	for i, sp := range specs {
		if doc.Workloads[i].Name != sp.name || doc.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, doc.Workloads[i], sp.name, sp.why)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark emits %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i] != (jsonMetric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	same("per-layer", doc.PerLayer, perLayer)
}
