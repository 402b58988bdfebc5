package main

// metric describes one reported number. Feeds names the end-to-end metric
// a per-layer metric should move, and on which workloads; BENCHMARK.json
// lists the same names, units and directions.
type metric struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	Feeds string
}

// runSeconds is the timed window the benchmark is run with.
const runSeconds = 20

// endToEnd are the numbers a user of the system sees, reported by every
// workload with tracing off. Failed operations are carried by the
// result's "attempted" and "failed" fields. The timing bounds are wide
// because on a shared 2-vCPU host the same run drifts by 10-15% from one
// minute to the next: over ten runs the interquartile range is 6-12% of
// the median for most timings and 15-20% for serve-mix p50, which tracks
// allocation-heavy journal parsing.
var endToEnd = []metric{
	{"throughput_per_s", "1/s", "higher", 0.25, ""},
	{"p50_ms", "ms", "lower", 0.25, ""},
	{"tail_ms", "ms", "lower", 0.25, ""},
	{"setup_s", "s", "lower", 0.25, ""},
	{"heap_mb", "MB", "lower", 0.1, ""},
}

// perLayer are the numbers of single layers, reported by every workload
// in the traced run. A layer a workload does not exercise reads 0 there.
var perLayer = []metric{
	{"machine.new_s", "s", "lower", 0, "setup_s on all workloads (object construction before warm-up)"},
	{"machine.warmup_s", "s", "lower", 0, "setup_s on all workloads (untimed warm-up before the first sample)"},
	{"machine.ns_per_cycle", "ns", "lower", 0, "throughput_per_s and p50_ms on core-64pe"},
	{"machine.ns_per_ref", "ns", "lower", 0, "throughput_per_s and p50_ms on core-64pe"},
	{"machine.allocs_per_cycle", "allocs", "lower", 0, "throughput_per_s and p50_ms on core-64pe"},
	{"machine.refs_retired", "count", "higher", 0, "exact; a simulator-only change leaves it identical (core-64pe)"},
	{"cache.hits", "count", "higher", 0, "exact; a simulator-only change leaves it identical (core-64pe)"},
	{"cache.misses", "count", "lower", 0, "exact; a simulator-only change leaves it identical (core-64pe)"},
	{"cache.miss_ratio", "ratio", "lower", 0, "exact; a simulator-only change leaves it identical (core-64pe)"},
	{"bus.transactions", "count", "lower", 0, "exact; a simulator-only change leaves it identical (core-64pe)"},
	{"bus.utilization", "ratio", "lower", 0, "exact; a simulator-only change leaves it identical (core-64pe)"},
	{"sweep.expand_s", "s", "lower", 0, "setup_s on sweep-seeds"},
	{"sweep.merge_s", "s", "lower", 0, "throughput_per_s on sweep-seeds"},
	{"sweep.job_p50_ms", "ms", "lower", 0, "p50_ms on sweep-seeds"},
	{"sweep.job_tail_ms", "ms", "lower", 0, "tail_ms on sweep-seeds"},
	{"sweep.busy_ratio", "ratio", "higher", 0, "throughput_per_s on sweep-seeds"},
	{"sweep.store_get_ms", "ms", "lower", 0, "throughput_per_s on sweep-seeds"},
	{"sweep.store_put_ms", "ms", "lower", 0, "throughput_per_s on sweep-seeds"},
	{"sweep.journal_ms", "ms", "lower", 0, "throughput_per_s on sweep-seeds"},
	{"sweep.executed", "count", "higher", 0, "exact (sweep-seeds)"},
	{"sweep.cache_hits", "count", "lower", 0, "exact (sweep-seeds, 0 on a cold store)"},
	{"sweep.failed", "count", "lower", 0, "exact (sweep-seeds)"},
	{"serve.cold_ms", "ms", "lower", 0, "tail_ms and throughput_per_s on serve-mix"},
	{"serve.hit_ms", "ms", "lower", 0, "p50_ms on serve-mix"},
	{"serve.profile_ms", "ms", "lower", 0, "tail_ms and throughput_per_s on serve-mix"},
	{"mrc.profile_get_ms", "ms", "lower", 0, "p50_ms on serve-mix"},
	{"serve.flight_ms", "ms", "lower", 0, "throughput_per_s and tail_ms on serve-mix"},
	{"cluster.proxy_ms", "ms", "lower", 0, "p50_ms on serve-mix"},
	{"serve.store_get_ms", "ms", "lower", 0, "p50_ms on serve-mix"},
	{"serve.store_put_ms", "ms", "lower", 0, "p50_ms on serve-mix"},
	{"serve.store_getraw_ms", "ms", "lower", 0, "p50_ms on serve-mix"},
	{"serve.store_putraw_ms", "ms", "lower", 0, "p50_ms on serve-mix"},
	{"serve.journal_ms", "ms", "lower", 0, "p50_ms on serve-mix"},
	{"serve.engine_runs", "count", "lower", 0, "exact; equals the distinct specs sent (serve-mix)"},
	{"serve.coalesced", "count", "lower", 0, "exact; 0 by construction (serve-mix)"},
	{"serve.store_served", "count", "higher", 0, "exact (serve-mix)"},
	{"serve.profiles_built", "count", "lower", 0, "exact (serve-mix)"},
	{"serve.profiles_served", "count", "higher", 0, "exact (serve-mix)"},
	{"serve.retries_429", "count", "lower", 0, "exact; 0 at two clients (serve-mix)"},
	{"cluster.failovers", "count", "lower", 0, "exact; 0 without faults (serve-mix)"},
	{"cluster.breaker_opens", "count", "lower", 0, "exact; 0 without faults (serve-mix)"},
	{"cluster.replicas_added", "count", "lower", 0, "exact; 0 while cold flights stay under the hot p99 (serve-mix)"},
	{"self.machine_ms", "ms", "lower", 0, "throughput_per_s on core-64pe and sweep-seeds"},
	{"self.sweep_ms", "ms", "lower", 0, "throughput_per_s on sweep-seeds"},
	{"self.store_ms", "ms", "lower", 0, "throughput_per_s on sweep-seeds, p50_ms on serve-mix"},
	{"self.serve_ms", "ms", "lower", 0, "throughput_per_s and tail_ms on serve-mix"},
	{"self.cluster_ms", "ms", "lower", 0, "p50_ms on serve-mix"},
	{"self.mrc_ms", "ms", "lower", 0, "p50_ms on serve-mix"},
	{"self.client_ms", "ms", "lower", 0, "p50_ms on serve-mix (HTTP client and loopback)"},
	{"trace.overhead_pct", "%", "lower", 0, "none; traced window wall over untraced window wall, minus one"},
	{"bench.samples", "count", "higher", 0, "none; the sample count behind p50_ms and tail_ms"},
	{"bench.tail_pct", "%", "higher", 0, "none; the percentile tail_ms is read at"},
}

// workloadDef is one closed-loop workload: the reason it was chosen, how
// it runs, and how much work it does in a window of a given length.
type workloadDef struct {
	Name, Why string
	Run       func(*bench) error
	Size      func(seconds int) int
}

var workloads = []workloadDef{
	{"core-64pe", "cycle loop alone: 64 PEs on one saturated bus, 2048-line caches far past L2; sweep, serve and cluster layers absent", runCore, coreSize},
	{"sweep-seeds", "sweep engine cold on disk: equal 2-8-PE ablation jobs over many seeds, so expand, fusion, store and journal dominate", runSweep, sweepSize},
	{"serve-mix", "request path: router and two workers under cold, repeated and profile requests from two closed-loop clients", runServe, serveSize},
}
