package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/sweep"
)

// sweepExperiments are small 2-8-PE ablations whose jobs take a few
// milliseconds each; their tag stores fit in L1, so the engine's own
// costs (expand, fusion, store, journal) are a visible share.
var sweepExperiments = []string{"ablation-threshold", "ablation-rmwstyle", "ablation-private"}

const (
	// sweepBlockSeeds seeds make one spec, which the engine fuses into one
	// dispatch group; specs alternate experiments so groups stay this size
	// and the pool balances whatever order they finish in.
	sweepBlockSeeds    = 24
	sweepJobsPerSecond = 175
	sweepSetups        = 5
	sweepWarmSeeds     = 8
)

// sweepSize is the number of blocks: one spec per experiment each.
func sweepSize(seconds int) int {
	return max(1, seconds*sweepJobsPerSecond/(sweepBlockSeeds*len(sweepExperiments)))
}

// splitmix64 derives every input from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedBase returns a per-workload-seed base for job seeds, leaving 2^20
// consecutive seeds above it for the workload's specs.
func seedBase(seed uint64, salt uint64) uint64 { return (splitmix64(seed^salt) >> 40) << 20 }

// sweepSpecs builds blocks x experiments specs over consecutive seeds
// starting after base.
func sweepSpecs(base uint64, blocks, perBlock int) ([]sweep.Spec, error) {
	var specs []sweep.Spec
	next := base
	for k := 0; k < blocks; k++ {
		for _, id := range sweepExperiments {
			seeds := make([]uint64, perBlock)
			for i := range seeds {
				next++
				seeds[i] = next
			}
			sp, err := sweep.SpecFor(id, seeds, 1)
			if err != nil {
				return nil, err
			}
			specs = append(specs, sp)
		}
	}
	return specs, nil
}

// jobSink is the Sink the benchmark passes in sweep.Options: it keeps
// job wall times and turns each done event into a span.
type jobSink struct {
	tr     *tracer
	parent int

	mu       sync.Mutex
	wallMS   []float64
	lastDone time.Time
	jobSpans map[string]int
}

func (s *jobSink) Emit(ev sweep.Event) {
	if ev.Event != "done" {
		return
	}
	at := now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wallMS = append(s.wallMS, ev.WallMS)
	s.lastDone = at
	if s.tr != nil {
		end := s.tr.ms(at)
		s.jobSpans[ev.Key] = s.tr.add(span{Parent: s.parent, Name: "sweep.job " + ev.Experiment,
			Layer: "machine", Key: ev.Key, Start: end - ev.WallMS, End: end})
	}
}

func tablesDigest(out *sweep.Outcome) ([]string, string) {
	h := sha256.New()
	var plain []string
	for _, t := range out.Tables {
		s := ""
		if t != nil {
			s = t.Plain()
		}
		plain = append(plain, s)
		h.Write([]byte(s))
	}
	return plain, hex.EncodeToString(h.Sum(nil)[:12])
}

// sweepSetup is one set-up: a fresh on-disk store and engine, the job set
// expanded, and a warm-up sweep on a throwaway store.
type sweepSetup struct {
	store  *sweep.DirStore
	timed  *timedStore
	specs  []sweep.Spec
	jobs   []sweep.Job
	sink   *jobSink
	engine *sweep.Engine
}

func newSweepSetup(b *bench, i int) (*sweepSetup, error) {
	start := now()
	base := seedBase(b.seed, 0x5eed)
	specs, err := sweepSpecs(base, b.size, sweepBlockSeeds)
	if err != nil {
		return nil, err
	}
	sp := b.tr.begin("sweep.expand", "sweep", 0, "")
	t := now()
	jobs := sweep.Expand(specs)
	b.layer["sweep.expand_s"] = now().Sub(t).Seconds()
	b.tr.end(sp)
	dir, err := os.MkdirTemp(b.dir, fmt.Sprintf("cold%d-", i))
	if err != nil {
		return nil, err
	}
	store, err := sweep.OpenDirStore(dir)
	if err != nil {
		return nil, err
	}
	s := &sweepSetup{store: store, timed: newTimedStore(store, b.tr, ""), specs: specs, jobs: jobs,
		sink: &jobSink{tr: b.tr, jobSpans: map[string]int{}}}
	s.engine = sweep.New(sweep.Options{Workers: runtime.NumCPU(), Store: s.timed, Sink: s.sink})
	mid := now()

	warmSpecs, err := sweepSpecs(base+1<<19, 1, sweepWarmSeeds)
	if err != nil {
		return nil, err
	}
	warmDir, err := os.MkdirTemp(b.dir, fmt.Sprintf("warm%d-", i))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(warmDir)
	warmStore, err := sweep.OpenDirStore(warmDir)
	if err != nil {
		return nil, err
	}
	sp = b.tr.begin("sweep.warmup", "sweep", 0, "")
	_, err = sweep.New(sweep.Options{Workers: runtime.NumCPU(), Store: warmStore}).Run(context.Background(), warmSpecs)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	b.setup(start, mid)
	return s, nil
}

// runSweep times one cold sweep.Engine.Run over many same-shape jobs on a
// fresh DirStore, then re-reads it warm and compares the tables.
func runSweep(b *bench) error {
	var s *sweepSetup
	for i := 0; i < sweepSetups; i++ {
		if s != nil {
			os.RemoveAll(s.store.Dir())
		}
		var err error
		if s, err = newSweepSetup(b, i); err != nil {
			return err
		}
	}
	workers := runtime.NumCPU()
	runSpan := b.tr.begin("sweep.run", "sweep", 0, "")
	s.sink.parent = runSpan
	start := now()
	out, err := s.engine.Run(context.Background(), s.specs)
	end := now()
	b.tr.end(runSpan)
	b.windowS = end.Sub(start).Seconds()
	b.heapMB = liveHeapMB()
	var failures *sweep.FailureSummary
	if err != nil && !errors.As(err, &failures) {
		return fmt.Errorf("sweep: %w", err)
	}
	b.samples = s.sink.wallMS
	b.work = float64(len(s.jobs))
	b.attempted += len(s.jobs)
	b.failed += len(out.Failed)
	for _, f := range out.Failed {
		b.failures = append(b.failures, fmt.Sprintf("sweep job %d: %v", f.Job.Index, f.Err))
	}
	b.check(out.Executed == len(s.jobs) && out.CacheHits == 0,
		"sweep: cold run executed %d and hit %d of %d jobs", out.Executed, out.CacheHits, len(s.jobs))
	b.check(len(s.sink.wallMS) == len(s.jobs), "sweep: %d done events for %d jobs", len(s.sink.wallMS), len(s.jobs))

	if b.tr != nil {
		b.tr.add(span{Parent: runSpan, Name: "sweep.merge", Layer: "sweep",
			Start: b.tr.ms(s.sink.lastDone), End: b.tr.ms(end)})
		spans := b.tr.snapshot()
		for _, id := range s.timed.ids {
			sp := spans[id-1]
			if sp.Name == "store.journal" {
				b.tr.setParent(id, runSpan)
			} else {
				b.tr.setParent(id, s.sink.jobSpans[sp.Key])
			}
		}
	}
	b.layer["machine.new_s"] = median(b.newS)
	b.layer["machine.warmup_s"] = median(b.warmS)
	b.layer["sweep.merge_s"] = end.Sub(s.sink.lastDone).Seconds()
	b.layer["sweep.job_p50_ms"] = median(b.samples)
	b.layer["sweep.job_tail_ms"] = percentile(b.samples, tailPercentile(len(b.samples)))
	b.layer["sweep.busy_ratio"] = sum(b.samples) / (float64(workers) * b.windowS * 1000)
	b.layer["sweep.store_get_ms"] = s.timed.medianMS("get")
	b.layer["sweep.store_put_ms"] = s.timed.medianMS("put")
	b.layer["sweep.journal_ms"] = s.timed.medianMS("journal")
	b.layer["sweep.executed"] = float64(out.Executed)
	b.layer["sweep.cache_hits"] = float64(out.CacheHits)
	b.layer["sweep.failed"] = float64(len(out.Failed))

	cold, digest := tablesDigest(out)
	b.counts["sweep.jobs"] = len(s.jobs)
	b.counts["sweep.executed"] = out.Executed
	b.counts["sweep.cache_hits"] = out.CacheHits
	b.counts["sweep.failed"] = len(out.Failed)
	b.counts["sweep.tables_sha"] = digest

	// Warm re-read straight from the store: every job a hit, every table
	// byte-equal to the cold one.
	sp := b.tr.begin("sweep.warm_reread", "sweep", 0, "")
	warm, err := sweep.New(sweep.Options{Workers: workers, Store: s.store}).Run(context.Background(), s.specs)
	b.tr.end(sp)
	b.op(err)
	if err != nil {
		return nil
	}
	b.check(warm.Executed == 0 && warm.CacheHits == len(s.jobs),
		"sweep: warm re-read executed %d and hit %d of %d jobs", warm.Executed, warm.CacheHits, len(s.jobs))
	again, _ := tablesDigest(warm)
	for i := range cold {
		b.check(cold[i] != "" && cold[i] == again[i], "sweep: table %d differs between cold run and warm re-read", i)
	}
	return nil
}
