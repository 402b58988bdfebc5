package main

import (
	"fmt"
	"runtime"

	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/workload"
)

const (
	// coreChunk is the cycles one timed sample runs (about 14 ms on a
	// 2-CPU host); coreChunksPerSecond is the nominal rate that turns
	// -seconds into a chunk count.
	coreChunk           = 4000
	coreChunksPerSecond = 70
	// coreWarmup cycles run before the first sample, so cache fills and
	// lazily grown pages are behind the measurement.
	coreWarmup = 80_000
	coreSetups = 5
	// coreAuditRefs bounds each PE of the audit machine so it drains.
	coreAuditRefs = 1500
)

func coreSize(seconds int) int { return seconds * coreChunksPerSecond }

// buildCore is one set-up: the perf suite's rb-64pe machine, re-seeded
// from the workload seed, warmed up.
func buildCore(b *bench) (*machine.Machine, error) {
	sc, err := perf.ScenarioByName("rb-64pe")
	if err != nil {
		return nil, err
	}
	start := now()
	sp := b.tr.begin("machine.new", "machine", 0, "")
	m, err := perf.Build(sc)
	if err == nil {
		err = m.Reset(b.seed)
	}
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	mid := now()
	sp = b.tr.begin("machine.warmup", "machine", 0, "")
	err = m.RunFor(coreWarmup)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	b.setup(start, mid)
	return m, nil
}

// runCore times the rb-64pe cycle loop in fixed chunks through
// Machine.RunFor.
func runCore(b *bench) error {
	var m *machine.Machine
	for i := 0; i < coreSetups; i++ {
		var err error
		if m, err = buildCore(b); err != nil {
			return err
		}
	}
	before := m.Metrics()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := now()
	for i := 0; i < b.size; i++ {
		sp := b.tr.begin("machine.run_for", "machine", 0, "")
		t := now()
		err := m.RunFor(coreChunk)
		b.samples = append(b.samples, msSince(t))
		b.tr.end(sp)
		b.op(err)
		if err != nil {
			break
		}
	}
	b.windowS = now().Sub(start).Seconds()
	runtime.ReadMemStats(&ms1)
	b.heapMB = liveHeapMB()
	cycles := float64(len(b.samples) * coreChunk)
	b.work = cycles

	after := m.Metrics()
	var reads, writes, hits uint64
	for _, c := range after.Caches {
		reads += c.Reads
		writes += c.Writes
		hits += c.ReadHits + c.WriteHits
	}
	refs := after.TotalRefs()
	windowRefs := refs - before.TotalRefs()
	b.layer["machine.new_s"] = median(b.newS)
	b.layer["machine.warmup_s"] = median(b.warmS)
	b.layer["machine.ns_per_cycle"] = b.windowS * 1e9 / cycles
	if windowRefs > 0 {
		b.layer["machine.ns_per_ref"] = b.windowS * 1e9 / float64(windowRefs)
	}
	b.layer["machine.allocs_per_cycle"] = float64(ms1.Mallocs-ms0.Mallocs) / cycles
	b.layer["machine.refs_retired"] = float64(refs)
	b.layer["cache.hits"] = float64(hits)
	b.layer["cache.misses"] = float64(reads + writes - hits)
	b.layer["cache.miss_ratio"] = float64(reads+writes-hits) / float64(reads+writes)
	b.layer["bus.transactions"] = float64(after.Bus.Transactions())
	b.layer["bus.utilization"] = after.Bus.Utilization()
	b.counts["machine.cycles"] = after.Cycles
	b.counts["machine.refs_retired"] = refs
	b.counts["cache.hits"] = hits
	b.counts["cache.misses"] = reads + writes - hits
	b.counts["bus.stats"] = after.Bus
	b.counts["machine.miss_latency_count"] = after.MissLatency.Count()

	b.check(m.Err() == nil, "core: timed machine reports %v", m.Err())
	b.check(after.Cycles == uint64(coreWarmup)+uint64(cycles),
		"core: machine ran %d cycles, want %d", after.Cycles, coreWarmup+uint64(cycles))
	sp := b.tr.begin("machine.audit", "machine", 0, "")
	auditCore(b)
	b.tr.end(sp)
	return nil
}

// auditCore runs the same rb-64pe shape with the read-latest oracle on
// and bounded agents seeded like the timed machine, to completion, then
// checks the final state. The timed machine's agents are unbounded, so it
// never drains and cannot be audited itself.
func auditCore(b *bench) {
	sc, err := perf.ScenarioByName("rb-64pe-oracle")
	if err != nil {
		b.op(err)
		return
	}
	m, err := perf.Build(sc)
	if err != nil {
		b.op(err)
		return
	}
	agents := make([]workload.Agent, sc.PEs)
	for i := range agents {
		app, err := workload.NewApp(workload.PDEProfile(), workload.DefaultLayout(), i, b.seed, coreAuditRefs)
		if err != nil {
			b.op(err)
			return
		}
		agents[i] = app
	}
	if err := m.ResetWith(agents); err != nil {
		b.op(err)
		return
	}
	_, err = m.Run(1 << 30)
	b.op(err)
	b.check(m.Done(), "core audit: machine did not drain")
	if !m.Done() {
		return
	}
	if err := m.AuditFinalCoherence(); err != nil {
		b.op(fmt.Errorf("core audit: %w", err))
	} else {
		b.op(nil)
	}
	if err := m.VerifyFinalMemory(); err != nil {
		b.op(fmt.Errorf("core audit: %w", err))
	} else {
		b.op(nil)
	}
	b.counts["audit.cycles"] = m.Cycle()
	b.counts["audit.refs_retired"] = m.Metrics().TotalRefs()
}
