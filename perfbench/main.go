// Command perfbench is the repository's benchmark: three closed-loop
// workloads (core-64pe, sweep-seeds, serve-mix) that time the cycle loop,
// the sweep engine and the request path from outside, through each
// layer's public calls and the seams a user already sets (Store, Sink,
// HTTP). It checks the outputs it times and prints, as its last line, one
// JSON object: end-to-end metrics with -trace 0, per-layer metrics from a
// traced run with -trace 1.
//
// Run it from the root of a source checkout:
//
//	python3 perfbench/run.py --workload core-64pe --seed 1 --seconds 20 --trace 0
//
// The amount of work follows from -seconds at a nominal per-second rate
// measured on a 2-CPU host, so every exact count repeats at a given seed
// and length while the window lasts about -seconds.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// outDir holds the scratch stores and trace files, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_out"

// now reads the wall clock; every figure the benchmark reports is host
// time measured around a call, and no simulation input depends on it.
//
//lint:ignore determinism host timing only; simulation inputs never depend on it
func now() time.Time { return time.Now() }

func msSince(t time.Time) float64 { return float64(now().Sub(t)) / float64(time.Millisecond) }

// bench is one workload run: its inputs and what it measured.
type bench struct {
	seed uint64
	size int
	tr   *tracer // nil when untraced
	dir  string  // scratch directory inside the checkout

	setupS, newS, warmS []float64 // one entry per set-up repetition
	samples             []float64 // timed samples, ms
	work                float64   // units of work in the timed window
	windowS             float64
	heapMB              float64
	attempted, failed   int
	failures            []string
	layer               map[string]float64 // per-layer metrics
	counts              map[string]any     // exact counts, digested
}

func newBench(seed uint64, size int, tr *tracer, dir string) *bench {
	return &bench{seed: seed, size: size, tr: tr, dir: dir,
		layer: map[string]float64{}, counts: map[string]any{}}
}

// op counts one attempted operation and, when err is non-nil, one failure.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// check counts one correctness check as an operation.
func (b *bench) check(ok bool, format string, args ...any) {
	if ok {
		b.op(nil)
		return
	}
	b.op(fmt.Errorf(format, args...))
}

// setup records one set-up repetition.
func (b *bench) setup(start, mid time.Time) {
	end := now()
	b.newS = append(b.newS, mid.Sub(start).Seconds())
	b.warmS = append(b.warmS, end.Sub(mid).Seconds())
	b.setupS = append(b.setupS, end.Sub(start).Seconds())
}

// liveHeapMB collects garbage and returns the live Go heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func (b *bench) endToEnd() map[string]float64 {
	return map[string]float64{
		"throughput_per_s": b.work / b.windowS,
		"p50_ms":           median(b.samples),
		"tail_ms":          percentile(b.samples, tailPercentile(len(b.samples))),
		"setup_s":          median(b.setupS),
		"heap_mb":          b.heapMB,
	}
}

// digest hashes the exact counts; equal digests mean equal counts.
func (b *bench) digest() string {
	data, _ := json.Marshal(b.counts) // map keys marshal sorted
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostRecord is printed with every result so a number is never read
// without the machine and source it came from.
type hostRecord struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Size       int            `json:"size"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	SourceSHA  string         `json:"source_sha256"`
	Digest     string         `json:"counts_digest"`
	Counts     map[string]any `json:"counts"`
	Samples    int            `json:"samples"`
	TailPct    float64        `json:"tail_pct"`
	Failures   []string       `json:"failures,omitempty"`
	TraceFile  string         `json:"trace_file,omitempty"`
}

// commit returns the VCS revision stamped into the binary, if any.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceSHA hashes every Go source and go.mod under root, so a result
// names the exact source it measured even outside a git checkout.
func sourceSHA(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// runWorkload runs one workload in its own scratch directory under parent.
func runWorkload(w workloadDef, seed uint64, size int, tr *tracer, parent string) (*bench, error) {
	dir, err := os.MkdirTemp(parent, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer removeDir(dir, parent)
	b := newBench(seed, size, tr, dir)
	return b, w.Run(b)
}

// removeDir deletes a scratch directory and syncs its parent, so the
// unlinks are committed now rather than by the next timed fsync.
func removeDir(dir, parent string) {
	os.RemoveAll(dir)
	if f, err := os.Open(parent); err == nil {
		f.Sync()
		f.Close()
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: core-64pe, sweep-seeds or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", runSeconds, "nominal length of the timed window")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run after an untraced one")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds int, traced bool) error {
	w, err := findWorkload(workload)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	n := w.Size(seconds)
	b, err := runWorkload(w, seed, n, nil, outDir)
	if err != nil {
		return err
	}
	rec := hostRecord{
		Workload: workload, Seed: seed, Seconds: seconds, Size: n,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), SourceSHA: sourceSHA("."),
		Digest: b.digest(), Counts: b.counts,
		Samples: len(b.samples), TailPct: tailPercentile(len(b.samples)),
	}
	e2e := b.endToEnd()
	out := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	failures := b.failures
	layer := map[string]float64{}
	if traced {
		tr := newTracer()
		t, err := runWorkload(w, seed, n, tr, outDir)
		if err != nil {
			return err
		}
		spans := tr.snapshot()
		for l, ms := range selfTimes(spans) {
			t.layer["self."+l+"_ms"] = ms
		}
		t.layer["trace.overhead_pct"] = 100 * (t.windowS/b.windowS - 1)
		t.layer["bench.samples"] = float64(len(t.samples))
		t.layer["bench.tail_pct"] = tailPercentile(len(t.samples))
		rec.TraceFile = filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
		if err := writeSpans(rec.TraceFile, spans); err != nil {
			return err
		}
		t.check(t.digest() == b.digest(), "traced run counts digest %s differs from untraced %s", t.digest(), b.digest())
		out.Attempted += t.attempted
		out.Failed += t.failed
		failures = append(failures, t.failures...)
		layer = t.layer
		for _, m := range perLayer {
			out.Metrics[m.Name] = metricValue{layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
		}
	}
	out.Correct = out.Failed == 0
	rec.Failures = failures

	// Human-readable table: every metric by name with its unit.
	fmt.Printf("perfbench %s seed=%d seconds=%d size=%d\n", workload, seed, seconds, n)
	for _, m := range endToEnd {
		fmt.Printf("  %-26s %14.6g %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	if traced {
		for _, m := range perLayer {
			fmt.Printf("  %-26s %14.6g %-6s moves: %s\n", m.Name, layer[m.Name], m.Unit, m.Feeds)
		}
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", out.Attempted, out.Failed, out.Correct)
	recLine, err := json.Marshal(map[string]hostRecord{"record": rec})
	if err != nil {
		return err
	}
	fmt.Println(string(recLine))
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
