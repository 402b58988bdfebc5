// Command mimdrouter is the S25 shard-manager tier: an HTTP router in
// front of N mimdserved workers. It partitions the content-hash
// request-id space across the fleet with rendezvous hashing, proxies
// submissions and event streams to each shard's owner, detects worker
// failure (active probing plus passive proxy errors) and fails over,
// and runs a p99-latency-driven rebalancer that grants hot shards a
// read replica filled over the replication pull API — retiring it again
// on sustained recovery. Results are byte-identical to a single-node
// run: request ids are pure content hashes and replicas are filled with
// raw store bytes.
//
// Self-healing controls: per-worker circuit breakers open after
// consecutive proxy failures and re-admit traffic through a half-open
// trial; -attempt-timeout bounds the wait for a worker's response
// headers before failing over; -journal makes submissions durable — a
// restarted router replays unfinished flights before taking traffic, and
// SIGINT drains in-flight streams to their terminal frame before exiting.
//
// Usage:
//
//	mimdrouter -workers w1=http://10.0.0.1:8471,w2=http://10.0.0.2:8471
//	mimdrouter -spawn 3            # self-contained: 3 in-process workers
//	mimdrouter -smoke              # CI gate: router + 2 workers, full contract
//
// The -job-timeout and -max-jobs flags must mirror the workers' values:
// both feed the content-hash request id the router routes on.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/serve"
)

// traceFlags collects repeatable -trace name=path arguments.
type traceFlags []string

func (t *traceFlags) String() string     { return strings.Join(*t, ",") }
func (t *traceFlags) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8470", "listen address")
		workers   = flag.String("workers", "", "declared fleet as id=url[,id=url...]")
		spawn     = flag.Int("spawn", 0, "instead of -workers, start this many in-process workers on loopback ports")
		shards    = flag.Int("shards", 0, "virtual shard space size; must match the workers'; 0 = default")
		jobTO     = flag.Duration("job-timeout", 0, "per-job budget the workers run with (feeds the request id; must match)")
		maxJobs   = flag.Int("max-jobs", 10000, "spec expansion limit the workers run with (must match)")
		hotP99    = flag.Float64("hot-p99-ms", 250, "windowed p99 (ms) that trips a shard's read replica")
		recover99 = flag.Float64("recover-p99-ms", 0, "p99 (ms) at or under which a replicated shard cools; 0 = hot/4")
		minSamp   = flag.Int64("min-samples", 16, "smallest window that can trip a replica")
		coolPolls = flag.Int("cool-polls", 3, "consecutive cool polls before a replica retires")
		pollIvl   = flag.Duration("poll-interval", 2*time.Second, "rebalancer poll cadence")
		probeIvl  = flag.Duration("probe-interval", time.Second, "health probe cadence")
		journalP  = flag.String("journal", "", "flight journal path; submissions are journaled and resumed after a restart")
		attemptTO = flag.Duration("attempt-timeout", 2*time.Second, "max wait for a worker's response headers before failing over; 0 disables")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight streams on SIGINT before exiting anyway")
		smoke     = flag.Bool("smoke", false, "bounded self-check: in-process router + 2 workers; verifies routing, coalescing, failover, and a replica read")
	)
	var traces traceFlags
	flag.Var(&traces, "trace", "register a trace workload as name=path (repeatable) for -spawn workers; runnable as experiment \"trace-<name>\"")
	flag.Parse()

	for _, arg := range traces {
		if err := experiments.RegisterTraceFile(arg); err != nil {
			fatal(err)
		}
	}

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "mimdrouter -smoke:", err)
			os.Exit(1)
		}
		fmt.Println("mimdrouter smoke ok: sharded routing, coalescing, submit-time failover, and replica read verified")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var fleet []cluster.Worker
	switch {
	case *spawn > 0 && *workers != "":
		fatal(fmt.Errorf("use -workers or -spawn, not both"))
	case *spawn > 0:
		var err error
		fleet, err = spawnWorkers(ctx, *spawn, *shards, *jobTO, *maxJobs)
		if err != nil {
			fatal(err)
		}
	default:
		var err error
		fleet, err = parseFleet(*workers)
		if err != nil {
			fatal(err)
		}
	}

	var journal *cluster.Journal
	if *journalP != "" {
		var err error
		journal, err = cluster.OpenJournal(*journalP)
		if err != nil {
			fatal(err)
		}
		defer journal.Close()
	}

	idOpts := serve.Options{JobTimeout: *jobTO, MaxJobs: *maxJobs}
	router, err := cluster.New(cluster.Options{
		Workers:        fleet,
		NumShards:      *shards,
		RequestID:      func(body []byte) (string, error) { return serve.ComputeRequestID(body, idOpts) },
		HotP99MS:       *hotP99,
		RecoverP99MS:   *recover99,
		MinSamples:     *minSamp,
		CoolPolls:      *coolPolls,
		PollInterval:   *pollIvl,
		ProbeInterval:  *probeIvl,
		AttemptTimeout: *attemptTO,
		Journal:        journal,
	})
	if err != nil {
		fatal(err)
	}
	router.Start(ctx)

	if journal != nil {
		// Replay flights left pending by a previous run before taking new
		// traffic: content-hash ids make the replay idempotent.
		n, err := router.ResumePending(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mimdrouter: journal resume:", err)
		} else if n > 0 {
			fmt.Fprintf(os.Stderr, "mimdrouter: resumed %d pending flight(s) from %s\n", n, *journalP)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: router.Handler()}
	errs := make(chan error, 1)
	go func() { errs <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "mimdrouter: listening on http://%s (%d workers, %d shards)\n",
		ln.Addr(), len(fleet), router.NumShards())

	select {
	case err := <-errs:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	// Graceful drain: new submissions shed with 503 + Retry-After while
	// in-flight proxied requests — including live event streams — run to
	// their terminal frame, bounded by -drain-timeout.
	fmt.Fprintln(os.Stderr, "mimdrouter: draining")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTO)
	if err := router.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "mimdrouter: drain timed out; exiting with flights in the journal")
	}
	dcancel()
	fmt.Fprintln(os.Stderr, "mimdrouter: stopping")
	hs.Shutdown(context.Background())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mimdrouter:", err)
	os.Exit(1)
}

// parseFleet decodes the -workers flag: id=url pairs, comma separated.
func parseFleet(s string) ([]cluster.Worker, error) {
	if s == "" {
		return nil, fmt.Errorf("no fleet: pass -workers id=url[,id=url...] or -spawn N")
	}
	var fleet []cluster.Worker
	for _, part := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -workers entry %q (want id=url)", part)
		}
		fleet = append(fleet, cluster.Worker{ID: id, URL: strings.TrimSuffix(url, "/")})
	}
	return fleet, nil
}

// spawnWorkers boots n in-process mimdserved workers on loopback ports —
// the self-contained cluster used by `make cluster` and development.
func spawnWorkers(ctx context.Context, n, shards int, jobTO time.Duration, maxJobs int) ([]cluster.Worker, error) {
	fleet := make([]cluster.Worker, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i+1)
		srv := serve.New(serve.Options{
			Worker:     true,
			NumShards:  shards,
			WorkerID:   id,
			JobTimeout: jobTO,
			MaxJobs:    maxJobs,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		go func() {
			<-ctx.Done()
			hs.Shutdown(context.Background())
		}()
		url := "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "mimdrouter: spawned worker %s at %s\n", id, url)
		fleet = append(fleet, cluster.Worker{ID: id, URL: url})
	}
	return fleet, nil
}

// smokeWorker is one in-process worker under test.
type smokeWorker struct {
	id  string
	url string
	srv *serve.Server
	hs  *http.Server
	ln  net.Listener
}

func startSmokeWorker(id string, shards int) (*smokeWorker, error) {
	srv := serve.New(serve.Options{Worker: true, NumShards: shards, WorkerID: id})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return &smokeWorker{id: id, url: "http://" + ln.Addr().String(), srv: srv, hs: hs, ln: ln}, nil
}

// runSmoke walks the cluster contract end to end with an in-process
// router over two in-process workers:
//
//  1. a submission routes to its shard's rendezvous owner and executes;
//  2. an identical resubmission is a pure cache hit with byte-identical
//     tables (content-hash ids survive the router);
//  3. the rebalancer trips a replica for the hot shard (tiny thresholds)
//     and the replica fill lands the owner's raw objects on the peer;
//  4. a replica read answers with byte-identical tables;
//  5. with every worker down, a submission is refused 503 + Retry-After.
func runSmoke() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const shards = cluster.DefaultNumShards
	w1, err := startSmokeWorker("w1", shards)
	if err != nil {
		return err
	}
	w2, err := startSmokeWorker("w2", shards)
	if err != nil {
		return err
	}

	idOpts := serve.Options{}
	router, err := cluster.New(cluster.Options{
		Workers: []cluster.Worker{
			{ID: w1.id, URL: w1.url},
			{ID: w2.id, URL: w2.url},
		},
		NumShards: shards,
		RequestID: func(body []byte) (string, error) { return serve.ComputeRequestID(body, idOpts) },
		// Hair-trigger rebalancer so one submission's latency trips the
		// replica on the first poll.
		HotP99MS:   0.000001,
		MinSamples: 1,
		HotPolls:   1,
	})
	if err != nil {
		return err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rhs := &http.Server{Handler: router.Handler()}
	go rhs.Serve(rln)
	base := "http://" + rln.Addr().String()
	defer func() {
		rhs.Shutdown(context.Background())
		w1.hs.Shutdown(context.Background())
		w2.hs.Shutdown(context.Background())
	}()

	// 1. Cold run through the router executes on the shard owner.
	spec := `{"kind":"experiment","experiment":"fig7-1","seeds":[1,2]}`
	cold, err := postRun(base, spec)
	if err != nil {
		return err
	}
	if cold.Cache != "miss" || cold.Executed == 0 || len(cold.Tables) != 1 {
		return fmt.Errorf("cold run: want a full miss with one table, got cache=%s executed=%d tables=%d",
			cold.Cache, cold.Executed, len(cold.Tables))
	}

	// 2. Identical resubmission: pure cache hit, byte-identical table.
	warm, err := postRun(base, spec)
	if err != nil {
		return err
	}
	if warm.ID != cold.ID {
		return fmt.Errorf("request id changed across the router: %s vs %s", cold.ID, warm.ID)
	}
	if warm.Cache != "hit" || warm.Executed != 0 {
		return fmt.Errorf("warm run: want a pure cache hit, got cache=%s executed=%d", warm.Cache, warm.Executed)
	}
	if warm.Tables[0] != cold.Tables[0] {
		return fmt.Errorf("warm table differs from cold through the router")
	}

	// 3. One rebalancer poll trips a replica for the (now hot) shard and
	// fills it from the owner.
	router.RebalanceOnce(ctx)
	shard := cluster.ShardOf(cold.ID, shards)
	if rep := router.ReplicaFor(shard); rep == "" {
		return fmt.Errorf("rebalancer did not replicate hot shard %d", shard)
	}
	if router.Metrics().ReplicasAdded() == 0 {
		return fmt.Errorf("replica fill did not run")
	}

	// 4. Keep resubmitting: the alternating picks must produce at least
	// one replica read, still byte-identical and still a cache hit.
	sawReplica := false
	for i := 0; i < 4 && !sawReplica; i++ {
		again, err := postRun(base, spec)
		if err != nil {
			return err
		}
		if again.Tables[0] != cold.Tables[0] {
			return fmt.Errorf("replica-path table differs from owner's")
		}
		sawReplica = router.Metrics().ReplicaReads() > 0
	}
	if !sawReplica {
		return fmt.Errorf("no replica read after 4 resubmissions of a replicated shard")
	}

	// 5. All workers down: submissions shed with 503 + Retry-After.
	w1.hs.Shutdown(context.Background())
	w2.hs.Shutdown(context.Background())
	router.ProbeOnce(ctx)
	router.ProbeOnce(ctx) // FailThreshold consecutive failed rounds
	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(spec))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("fleet down: want 503, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		return fmt.Errorf("fleet-down 503 missing Retry-After")
	}
	return nil
}

// postRun submits a spec to the router's /v1/run and decodes the result.
func postRun(base, spec string) (serve.Response, error) {
	var out serve.Response
	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(spec))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("decoding /v1/run response (status %d): %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("/v1/run: status %d: %s", resp.StatusCode, out.Error)
	}
	return out, nil
}
