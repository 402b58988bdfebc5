// Command sweep drives the S21 experiment-orchestration engine from the
// command line: expand (experiment × seed) grids into content-hashed
// jobs, run them on a worker pool, memoize results in a versioned
// on-disk store, and merge the output deterministically.
//
// Usage:
//
//	sweep -list                               # job axes of every experiment
//	sweep -experiments table1-1,fig7-1 -seeds 1,2,3
//	sweep -experiments all -j 8 -cache-dir .sweepcache
//	sweep -events - ...                       # JSONL progress to stderr
//	sweep -batch=false ...                    # fresh machine per job (no fusion)
//	sweep -smoke                              # CI gate: parallel==serial, warm==all-cached
//	sweep -batch-smoke                        # CI gate: batched==unbatched, byte for byte
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/sweep"
)

// traceFlags collects repeatable -trace name=path arguments.
type traceFlags []string

func (t *traceFlags) String() string     { return strings.Join(*t, ",") }
func (t *traceFlags) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment ids with their declared axes and exit")
		expList  = flag.String("experiments", "all", "comma-separated experiment ids, or \"all\"")
		seedList = flag.String("seeds", "1", "comma-separated replica seeds; replicas aggregate into mean ±stddev cells")
		scale    = flag.Int("scale", 1, "workload scale multiplier")
		workers  = flag.Int("j", runtime.NumCPU(), "worker pool size")
		jobTO    = flag.Duration("job-timeout", 0, "per-job wall-clock budget (e.g. 90s); an overrunning job fails and the sweep continues; 0 disables")
		cacheDir = flag.String("cache-dir", "", "memoize results in this sweep store directory")
		format   = flag.String("format", "plain", "output format: plain, markdown, csv")
		events   = flag.String("events", "", "write JSONL progress events to this file (\"-\" = stderr)")
		summary  = flag.Bool("summary", true, "print the per-experiment summary to stderr")
		batchRun = flag.Bool("batch", true, "fuse same-shape jobs and recycle machines by generation reset; -batch=false rebuilds a fresh machine per job")
		smoke    = flag.Bool("smoke", false, "bounded self-check: assert parallel==serial bytes and a warm re-run executes zero jobs")
		bsmoke   = flag.Bool("batch-smoke", false, "bounded self-check: assert batched output (reports, journal, store envelopes) is byte-identical to unbatched")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	var traces traceFlags
	flag.Var(&traces, "trace", "register a trace workload as name=path (repeatable); runnable as experiment \"trace-<name>\"")
	flag.Parse()

	for _, arg := range traces {
		if err := experiments.RegisterTraceFile(arg); err != nil {
			fatal(err)
		}
	}

	stopProfiles, err := profiling.Start(*cpuprof, *memprof)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
		}
	}()

	if *list {
		for _, e := range experiments.All() {
			axes := "-"
			var parts []string
			if e.Axes.Seed {
				parts = append(parts, "seed")
			}
			if e.Axes.Scale {
				parts = append(parts, "scale")
			}
			if len(parts) > 0 {
				axes = strings.Join(parts, ",")
			}
			fmt.Printf("%-22s v%-2d axes=%-10s %s\n", e.ID, e.Version, axes, e.Title)
		}
		return
	}

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep -smoke:", err)
			os.Exit(1)
		}
		fmt.Println("sweep smoke ok: parallel output byte-identical to serial; warm re-run executed 0 jobs")
		return
	}

	if *bsmoke {
		if err := runBatchSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep -batch-smoke:", err)
			os.Exit(1)
		}
		fmt.Println("sweep batch smoke ok: fused reports, journal, and store envelopes byte-identical to unbatched")
		return
	}

	seeds, err := parseSeeds(*seedList)
	if err != nil {
		fatal(err)
	}
	specs, err := resolveSpecs(*expList, seeds, *scale)
	if err != nil {
		fatal(err)
	}

	var store sweep.Store
	if *cacheDir != "" {
		ds, err := sweep.OpenDirStore(*cacheDir)
		if err != nil {
			fatal(err)
		}
		store = ds
	}
	var eventsW io.Writer
	if *events == "-" {
		eventsW = os.Stderr
	} else if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		eventsW = f
	}

	// SIGINT cancels the context: dispatch stops, in-flight jobs finish
	// and land in the journal, and the run exits cleanly — a second ^C
	// kills the process the usual way (stop() restores default handling
	// once the run returns).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := sweep.Options{Workers: *workers, Store: store, Events: eventsW, JobTimeout: *jobTO}
	if !*batchRun {
		// Naming a Runner alone opts the engine out of job fusion: the
		// escape hatch if a batched result ever looks suspect.
		opts.Runner = sweep.ExperimentRunner
	}
	eng := sweep.New(opts)
	out, err := eng.Run(ctx, specs)
	if code := sweep.ReportRunError(os.Stderr, "sweep", out, err); code != 0 {
		os.Exit(code)
	}
	for i, tb := range out.Tables {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(tb.Render(*format))
	}
	if *summary {
		fmt.Fprintf(os.Stderr, "\n%-22s %5s %9s %7s %12s\n", "experiment", "jobs", "executed", "cached", "wall")
		for _, st := range out.Stats {
			fmt.Fprintf(os.Stderr, "%-22s %5d %9d %7d %12s\n",
				st.Experiment, st.Jobs, st.Executed, st.CacheHits, st.Wall.Round(time.Millisecond))
		}
		fmt.Fprintf(os.Stderr, "%-22s %5d %9d %7d %12s\n",
			"total", len(out.Jobs), out.Executed, out.CacheHits, out.Wall.Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}

// parseSeeds parses a comma-separated seed list.
func parseSeeds(list string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds given")
	}
	return seeds, nil
}

// resolveSpecs maps the -experiments flag to sweep specs.
func resolveSpecs(list string, seeds []uint64, scale int) ([]sweep.Spec, error) {
	if list == "all" || list == "" {
		return sweep.AllSpecs(seeds, scale), nil
	}
	var specs []sweep.Spec
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		sp, err := sweep.SpecFor(id, seeds, scale)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	return specs, nil
}

// smokeIDs is the bounded experiment set the CI gate runs: the
// parameter-free artifacts plus one real multi-seed simulation, all
// cheap at scale 1.
var smokeIDs = []string{"fig3-1", "fig5-1", "fig6-1", "fig6-2", "fig6-3", "section7-sbb", "fig7-1"}

// runSmoke executes the smoke sweep three ways — serial, parallel, and
// warm — and fails unless the parallel merged output and journal are
// byte-identical to the serial ones and the warm run executes nothing.
func runSmoke() error {
	seeds := []uint64{1, 2}
	var specs []sweep.Spec
	for _, id := range smokeIDs {
		sp, err := sweep.SpecFor(id, seeds, 1)
		if err != nil {
			return err
		}
		specs = append(specs, sp)
	}

	render := func(out *sweep.Outcome) []byte {
		var b bytes.Buffer
		for _, tb := range out.Tables {
			b.WriteString(tb.Plain())
			b.WriteByte('\n')
		}
		return b.Bytes()
	}

	serialStore := sweep.NewMemStore()
	serial, err := sweep.New(sweep.Options{Workers: 1, Store: serialStore}).Run(context.Background(), specs)
	if err != nil {
		return err
	}
	parallelStore := sweep.NewMemStore()
	parallel, err := sweep.New(sweep.Options{Workers: 4, Store: parallelStore}).Run(context.Background(), specs)
	if err != nil {
		return err
	}
	if !bytes.Equal(render(serial), render(parallel)) {
		return fmt.Errorf("parallel merged output differs from serial")
	}
	if !bytes.Equal(serialStore.JournalBytes(), parallelStore.JournalBytes()) {
		return fmt.Errorf("parallel journal differs from serial")
	}
	warm, err := sweep.New(sweep.Options{Workers: 4, Store: parallelStore}).Run(context.Background(), specs)
	if err != nil {
		return err
	}
	if warm.Executed != 0 {
		return fmt.Errorf("warm re-run executed %d jobs, want 0", warm.Executed)
	}
	if !bytes.Equal(render(parallel), render(warm)) {
		return fmt.Errorf("warm merged output differs from cold")
	}
	return nil
}

// runBatchSmoke executes a 2-shape × 3-seed sweep twice — unbatched
// (fresh machine per job) and batched (fused same-shape groups recycling
// machines by generation reset) — and fails unless the merged reports,
// the journal, and every on-disk store envelope are byte-identical.
func runBatchSmoke() error {
	seeds := []uint64{1, 2, 3}
	var specs []sweep.Spec
	for _, id := range []string{"ablation-threshold", "ablation-private"} {
		sp, err := sweep.SpecFor(id, seeds, 1)
		if err != nil {
			return err
		}
		specs = append(specs, sp)
	}

	render := func(out *sweep.Outcome) []byte {
		var b bytes.Buffer
		for _, tb := range out.Tables {
			b.WriteString(tb.Plain())
			b.WriteByte('\n')
		}
		return b.Bytes()
	}

	unbatchedStore := sweep.NewMemStore()
	unbatched, err := sweep.New(sweep.Options{Workers: 2, Store: unbatchedStore, Runner: sweep.ExperimentRunner}).
		Run(context.Background(), specs)
	if err != nil {
		return err
	}
	batchedStore := sweep.NewMemStore()
	batched, err := sweep.New(sweep.Options{Workers: 2, Store: batchedStore}).
		Run(context.Background(), specs)
	if err != nil {
		return err
	}
	if !bytes.Equal(render(batched), render(unbatched)) {
		return fmt.Errorf("batched merged output differs from unbatched")
	}
	if !bytes.Equal(batchedStore.JournalBytes(), unbatchedStore.JournalBytes()) {
		return fmt.Errorf("batched journal differs from unbatched")
	}
	for _, j := range sweep.Expand(specs) {
		want, ok, err := unbatchedStore.GetRaw(j.Key)
		if err != nil || !ok {
			return fmt.Errorf("unbatched store missing %s: %v", j.Key, err)
		}
		got, ok, err := batchedStore.GetRaw(j.Key)
		if err != nil || !ok {
			return fmt.Errorf("batched store missing %s: %v", j.Key, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("store envelope for %s (%s seed %d) differs between batched and unbatched",
				j.Key, j.Spec.Experiment, j.Spec.Seed)
		}
	}
	return nil
}
