// Profiling modes of mimdsim: -profile attaches the online
// miss-ratio-curve profiler (internal/mrc) to a plain run; -profile-smoke
// is the CI self-check (record a tier-1 scenario, replay it as a trace
// workload, byte-compare online vs offline curves, assert replay metrics
// equal the original run).
package main

import (
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/mrc"
	"repro/internal/stackdist"
	"repro/internal/trace"
	"repro/internal/workload"
)

// printProfile renders a run's curves: machine-wide always, per PE when
// verbose.
func printProfile(set *mrc.Set, verbose bool) {
	docs := set.Docs(mrc.DefaultSizes())
	for _, d := range docs {
		if d.Scope != "machine" && !verbose {
			continue
		}
		fmt.Printf("\nmiss-ratio curve [%s]: %d refs, footprint %d, %d cold misses\n",
			d.Scope, d.Refs, d.Footprint, d.Colds)
		fmt.Printf("%8s  %10s  %10s  %s\n", "lines", "misses", "miss ratio", "hit ratio")
		for _, pt := range d.Points {
			fmt.Printf("%8d  %10d  %10.4f  %.4f\n", pt.Lines, pt.Misses, pt.MissRatio, 1-pt.MissRatio)
		}
	}
}

// smokeConfig is the tier-1 scenario the smoke records and replays.
func smokeConfig() machine.Config {
	return machine.Config{Protocol: coherence.RB{}, CacheLines: 64}
}

const (
	smokePEs  = 4
	smokeRefs = 2000
)

func smokeAgents(seed uint64) []workload.Agent {
	layout := workload.DefaultLayout()
	prof := workload.PDEProfile()
	agents := make([]workload.Agent, smokePEs)
	for i := range agents {
		agents[i] = workload.MustApp(prof, layout, i, seed, smokeRefs)
	}
	return agents
}

func smokeRun(m *machine.Machine) error {
	if _, err := m.Run(uint64(smokeRefs) * 400); err != nil {
		return err
	}
	if !m.Done() {
		return fmt.Errorf("machine did not drain")
	}
	return nil
}

// recProbe records the raw reference streams a live run's caches see:
// per PE in program order, and interleaved in machine execution order —
// the inputs the offline stack algorithm replays.
type recProbe struct {
	rec *[]bus.Addr
	all *[]bus.Addr
}

func (p *recProbe) OnRef(a bus.Addr) {
	*p.rec = append(*p.rec, a)
	*p.all = append(*p.all, a)
}

// offlineDocs runs Mattson's stack algorithm over captured streams and
// renders docs with the exact shape mrc.Set.Docs emits, so the
// online/offline comparison can be a byte comparison.
func offlineDocs(all []bus.Addr, perPE [][]bus.Addr, sizes []int) []mrc.CurveDoc {
	doc := func(scope string, stream []bus.Addr) mrc.CurveDoc {
		p := stackdist.New()
		for _, a := range stream {
			p.Touch(a)
		}
		return mrc.CurveDoc{
			Scope: scope, Refs: p.Refs(), Colds: p.Colds(),
			Footprint: p.Footprint(), Points: p.Curve(sizes),
		}
	}
	docs := []mrc.CurveDoc{doc("machine", all)}
	for i, stream := range perPE {
		docs = append(docs, doc(fmt.Sprintf("pe%d", i), stream))
	}
	return docs
}

// runProfileSmoke is the check.sh profile-smoke stage. Everything is a
// byte comparison or a deep equality — any drift between the online
// profiler, the offline stack algorithm, and the trace replay path
// fails the stage.
func runProfileSmoke(seed uint64) error {
	cfg := smokeConfig()
	sizes := mrc.DefaultSizes()

	// Original run, profiled online.
	mA, err := machine.New(cfg, smokeAgents(seed))
	if err != nil {
		return err
	}
	setA := mrc.Attach(mA)
	if err := smokeRun(mA); err != nil {
		return err
	}
	docsA, err := json.Marshal(setA.Docs(sizes))
	if err != nil {
		return err
	}
	metricsA := mA.Metrics()

	// Record the same scenario standalone (App agents are non-reactive,
	// so the standalone capture is exactly the stream the live run
	// consumed) and replay it as a trace workload, profiled the same way.
	var recs []trace.Record
	for pe, a := range smokeAgents(seed) {
		recs = append(recs, trace.Capture(pe, a, smokeRefs+1)...)
	}
	split := trace.Split(recs)
	replay := make([]workload.Agent, smokePEs)
	for i := range replay {
		if tr, ok := split[i]; ok {
			replay[i] = tr
		} else {
			replay[i] = workload.Idle()
		}
	}
	mB, err := machine.New(cfg, replay)
	if err != nil {
		return err
	}
	setB := mrc.Attach(mB)
	if err := smokeRun(mB); err != nil {
		return err
	}
	if got, want := mB.Metrics(), metricsA; !reflect.DeepEqual(got, want) {
		return fmt.Errorf("trace replay diverged from the original run:\nreplay:   %+v\noriginal: %+v", got, want)
	}
	docsB, err := json.Marshal(setB.Docs(sizes))
	if err != nil {
		return err
	}
	if string(docsA) != string(docsB) {
		return fmt.Errorf("replay curves differ from the original run's")
	}
	fmt.Printf("profile-smoke: replay of %d records matches the original run (metrics and curves)\n", len(recs))

	// Offline cross-validation: a third identical run records the raw
	// streams (per PE and interleaved); the stack algorithm's curves over
	// them must reproduce the online docs byte for byte.
	mC, err := machine.New(cfg, smokeAgents(seed))
	if err != nil {
		return err
	}
	perPE := make([][]bus.Addr, smokePEs)
	var all []bus.Addr
	for i := 0; i < smokePEs; i++ {
		mC.Cache(i).SetProbe(&recProbe{rec: &perPE[i], all: &all})
	}
	if err := smokeRun(mC); err != nil {
		return err
	}
	offline, err := json.Marshal(offlineDocs(all, perPE, sizes))
	if err != nil {
		return err
	}
	if string(docsA) != string(offline) {
		return fmt.Errorf("online curves differ from the offline stack algorithm:\nonline:  %s\noffline: %s", docsA, offline)
	}
	fmt.Printf("profile-smoke: online curves match offline stackdist byte-for-byte (%d scopes, %d refs)\n",
		1+smokePEs, len(all))
	fmt.Println("profile-smoke: PASS")
	return nil
}
