package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric tables")

// TestCountsRepeat runs every workload at a tiny size twice and checks
// that its exact counts repeat and its checks pass.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	sizes := map[string]int{"core-64pe": 3, "sweep-seeds": 1, "serve-mix": 12}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var digests []string
			for i := 0; i < 2; i++ {
				b, err := runWorkload(w, 7, sizes[w.Name], nil, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if b.failed != 0 || b.attempted == 0 {
					t.Fatalf("run %d: %d of %d operations failed: %v", i, b.failed, b.attempted, b.failures)
				}
				digests = append(digests, b.digest())
			}
			if digests[0] != digests[1] {
				t.Errorf("counts digest %s then %s", digests[0], digests[1])
			}
		})
	}
}

// TestTracedRunMatches checks that tracing changes no count and yields a
// self time for the layers a workload exercises.
func TestTracedRunMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload")
	}
	w, err := findWorkload("serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runWorkload(w, 3, 8, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := runWorkload(w, 3, 8, tr, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest() != traced.digest() {
		t.Errorf("traced counts %v differ from untraced %v", traced.counts, plain.counts)
	}
	self := selfTimes(tr.snapshot())
	for _, layer := range []string{"client", "cluster", "serve", "mrc", "store"} {
		if self[layer] <= 0 {
			t.Errorf("self time of %s is %v", layer, self[layer])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "a", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "b", Start: 1, End: 4},
		{ID: 3, Parent: 1, Layer: "b", Start: 3, End: 6},
		{ID: 4, Parent: 1, Layer: "c", Start: 8, End: 12},
	}
	got := selfTimes(spans)
	want := map[string]float64{"a": 10 - 5 - 2, "b": 3 + 3, "c": 4}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 200: 95, 999: 95, 1000: 99, 20000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// benchmarkJSON renders BENCHMARK.json from the metric tables.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"python3", "perfbench/run.py"}, Paths: []string{"perfbench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}

func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("../BENCHMARK.json is out of date with the metric tables; rerun with -update")
	}
}
