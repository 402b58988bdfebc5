// Package perf is the core performance suite (S22): a fixed set of
// representative machines whose steady-state cycle loop is
// allocation-audited here and timed by the repository benchmark
// (perfbench, declared in BENCHMARK.json). The 64-PE RB rows are the
// Section 7 saturated-bus regime its core-64pe workload runs;
// TestSteadyStateAllocFree pins zero allocations per cycle in steady
// state for every scenario, oracle on or off.
package perf

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Scenario is one representative machine of the suite.
type Scenario struct {
	// Name identifies the scenario: "<protocol>-<n>pe" with an
	// "-oracle" suffix when the consistency oracle is on.
	Name string
	// PEs is the processor count (the 64-PE rows are the Section 7
	// saturation regime: one bus, far past its knee).
	PEs int
	// Protocol is the coherence scheme name (coherence.ByName).
	Protocol string
	// Oracle enables the read-latest consistency check on every
	// retirement.
	Oracle bool
}

// Scenarios returns the fixed suite: 1/8/64 PEs x RB/RWB x oracle
// on/off, all on a single shared bus with paper-scale (2048-line)
// caches and the Table 1-1 synthetic application mix.
func Scenarios() []Scenario {
	var out []Scenario
	for _, proto := range []string{"rb", "rwb"} {
		for _, pes := range []int{1, 8, 64} {
			for _, oracle := range []bool{false, true} {
				name := fmt.Sprintf("%s-%dpe", proto, pes)
				if oracle {
					name += "-oracle"
				}
				out = append(out, Scenario{
					Name:     name,
					PEs:      pes,
					Protocol: proto,
					Oracle:   oracle,
				})
			}
		}
	}
	return out
}

// ScenarioByName returns the named scenario from the suite.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("perf: unknown scenario %q", name)
}

// Build assembles the scenario's machine: unbounded synthetic-app
// agents (maxRefs 0) so the loop never drains, one bus, 2048-line
// direct-mapped caches, watchdog off.
func Build(s Scenario) (*machine.Machine, error) {
	proto, err := coherence.ByName(s.Protocol)
	if err != nil {
		return nil, err
	}
	layout := workload.DefaultLayout()
	agents := make([]workload.Agent, s.PEs)
	for i := range agents {
		app, err := workload.NewApp(workload.PDEProfile(), layout, i, 1, 0)
		if err != nil {
			return nil, err
		}
		agents[i] = app
	}
	return machine.New(machine.Config{
		Protocol:         proto,
		CacheLines:       2048,
		CheckConsistency: s.Oracle,
	}, agents)
}
