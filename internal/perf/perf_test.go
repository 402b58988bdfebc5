package perf

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mrc"
)

// TestScenarioNamesMatchBaseline pins the suite/benchmark contract:
// every scenario name is unique and spells out its own shape, and the
// two rows the repository benchmark builds (rb-64pe and rb-64pe-oracle)
// are in the suite, so a benchmark baseline measured at one commit
// names the same machines as a run at the next.
func TestScenarioNamesMatchBaseline(t *testing.T) {
	names := map[string]bool{}
	for _, s := range Scenarios() {
		if names[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		names[s.Name] = true
		want := fmt.Sprintf("%s-%dpe", s.Protocol, s.PEs)
		if s.Oracle {
			want += "-oracle"
		}
		if s.Name != want {
			t.Errorf("scenario %+v is named %q, want %q", s, s.Name, want)
		}
	}
	for _, name := range []string{"rb-64pe", "rb-64pe-oracle"} {
		if !names[name] {
			t.Errorf("benchmark scenario %q is not in the suite", name)
		}
	}
}

// TestScenarioByName checks that names resolve to their own shape and
// that an unknown name is an error.
func TestScenarioByName(t *testing.T) {
	s, err := ScenarioByName("rb-64pe")
	if err != nil {
		t.Fatal(err)
	}
	if s.PEs != 64 || s.Protocol != "rb" || s.Oracle {
		t.Fatalf("rb-64pe resolved to %+v", s)
	}
	s, err = ScenarioByName("rb-64pe-oracle")
	if err != nil {
		t.Fatal(err)
	}
	if s.PEs != 64 || s.Protocol != "rb" || !s.Oracle {
		t.Fatalf("rb-64pe-oracle resolved to %+v", s)
	}
	if _, err := ScenarioByName("nonesuch"); err == nil {
		t.Fatal("expected an error for an unknown scenario")
	}
}

// TestSteadyStateAllocFree is the allocation regression of the flat-core
// refactor: after warmup, the cycle loop of every suite machine must not
// allocate at all — oracle on or off, 1 to 64 PEs. The assertion runs
// only without the race detector (raceEnabled), whose instrumentation
// allocates on its own.
func TestSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			m, err := Build(s)
			if err != nil {
				t.Fatal(err)
			}
			// Warm past page allocation, cache fills and scratch growth.
			if err := m.RunFor(20_000); err != nil {
				t.Fatal(err)
			}
			const chunk = 2_000
			avg := testing.AllocsPerRun(5, func() {
				if err := m.RunFor(chunk); err != nil {
					t.Fatal(err)
				}
			})
			if perCycle := avg / chunk; perCycle != 0 {
				t.Errorf("steady state allocates: %.6f allocs/cycle (%v allocs per %d cycles)",
					perCycle, avg, chunk)
			}
		})
	}
}

// ExampleScenarios documents the suite's shape.
func ExampleScenarios() {
	fmt.Println(len(Scenarios()), "scenarios")
	// Output: 12 scenarios
}

// TestProfilerOverhead pins the cost of the online miss-ratio profiler
// (internal/mrc) against the unprofiled cycle loop and logs the measured
// overhead. On a quiet 2-CPU x86-64 host it measures about 25-35%, and
// more when other processes load the host: each reference pays two
// O(log footprint) curve updates while the simulated machine itself
// costs only a few hundred nanoseconds per reference. The bound is a
// regression guard, not a target — a slip past 2x means the hot path grew
// an allocation or lost its O(log) bound.
func TestProfilerOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation distorts timing; run without -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	s, err := ScenarioByName("rb-8pe")
	if err != nil {
		t.Fatal(err)
	}
	const warm, run = 20_000, 100_000
	wall := func(profiled bool) (time.Duration, error) {
		m, err := Build(s)
		if err != nil {
			return 0, err
		}
		if profiled {
			mrc.Attach(m)
		}
		if err := m.RunFor(warm); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := m.RunFor(run); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	best := func(profiled bool) time.Duration {
		bestWall := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			w, err := wall(profiled)
			if err != nil {
				t.Fatal(err)
			}
			if rep == 0 || w < bestWall {
				bestWall = w
			}
		}
		return bestWall
	}
	plain := best(false)
	profiled := best(true)
	overhead := float64(profiled-plain) / float64(plain)
	t.Logf("unprofiled %v, profiled %v: %.1f%% overhead", plain, profiled, 100*overhead)
	if overhead > 1.0 {
		t.Errorf("profiler overhead %.1f%% exceeds the 100%% regression bound", 100*overhead)
	}
}
