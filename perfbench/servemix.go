package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sweep"
)

const (
	serveClients = 2
	serveWorkers = 2
	serveSetups  = 5
	// serveOpsPerSecond is the nominal per-client rate of plan operations.
	serveOpsPerSecond = 50
	// serveColdSeeds and serveProfileSeeds size the submissions; a
	// profile request re-runs its jobs under the profiler, so it gets
	// fewer seeds to stay below a cold one.
	serveColdSeeds    = 6
	serveProfileSeeds = 1
	// serveSpecStride seeds are reserved for each distinct spec.
	serveSpecStride = 8
)

func serveSize(seconds int) int { return seconds * serveOpsPerSecond }

// The headers carrying a request's id and parent span across the router.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

type ctxKey struct{}

type spanRef struct {
	req    string
	parent int
}

// routerHandler wraps the router's handler: it records the cluster span
// of each benchmark request and hands its id to the outgoing proxy call.
func routerHandler(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(hdrReq)
		if req == "" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(hdrParent))
		id := tr.begin("cluster "+r.Method+" "+routeName(r.URL.Path), "cluster", parent, req)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, spanRef{req, id})))
		tr.end(id)
	})
}

// spanTransport is the router's client transport: http.DefaultTransport,
// plus the span headers of the incoming request on every proxy attempt.
type spanTransport struct{}

func (spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(ctxKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, ref.req)
		r.Header.Set(hdrParent, strconv.Itoa(ref.parent))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// workerHandler wraps a worker's handler with a serve span (an mrc span
// for profile reads) per benchmark request.
func workerHandler(tr *tracer, worker string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(hdrReq)
		if req == "" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(hdrParent))
		layer := "serve"
		if strings.HasPrefix(r.URL.Path, "/v1/profile/") {
			layer = "mrc"
		}
		start := now()
		h.ServeHTTP(w, r)
		end := now()
		tr.add(span{Parent: parent, Req: req, Name: layer + " " + r.Method + " " + routeName(r.URL.Path),
			Layer: layer, Worker: worker, Start: tr.ms(start), End: tr.ms(end)})
	})
}

// routeName drops the id from /v1/jobs/{id}/... and /v1/profile/{id}.
func routeName(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) >= 4 && (parts[2] == "jobs" || parts[2] == "profile") {
		parts[3] = "{id}"
	}
	return strings.Join(parts, "/")
}

// fleet is a router in front of two workers, each over its own DirStore,
// all on loopback ports.
type fleet struct {
	base    string
	workers []string // worker base URLs
	stores  []*timedStore
	servers []*serve.Server
	https   []*http.Server
	serving sync.WaitGroup
	stop    context.CancelFunc
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

func (f *fleet) close() {
	if f.stop != nil {
		f.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range f.https {
		hs.Shutdown(ctx)
	}
	for _, s := range f.servers {
		s.Shutdown(ctx)
	}
	f.serving.Wait()
}

func startFleet(b *bench, dir string) (*fleet, error) {
	f := &fleet{}
	var members []cluster.Worker
	for i := 0; i < serveWorkers; i++ {
		id := fmt.Sprintf("w%d", i+1)
		sdir := fmt.Sprintf("%s/%s", dir, id)
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			f.close()
			return nil, err
		}
		store, err := sweep.OpenDirStore(sdir)
		if err != nil {
			f.close()
			return nil, err
		}
		ts := newTimedStore(store, b.tr, id)
		srv := serve.New(serve.Options{Store: ts, Worker: true, WorkerID: id})
		f.stores = append(f.stores, ts)
		f.servers = append(f.servers, srv)
		url, err := f.listen(workerHandler(b.tr, id, srv.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, url)
		members = append(members, cluster.Worker{ID: id, URL: url})
	}
	// The router runs at cmd/mimdrouter's flag defaults.
	idOpts := serve.Options{MaxJobs: 10000}
	router, err := cluster.New(cluster.Options{
		Workers:        members,
		RequestID:      func(body []byte) (string, error) { return serve.ComputeRequestID(body, idOpts) },
		Client:         &http.Client{Transport: spanTransport{}},
		HotP99MS:       250,
		MinSamples:     16,
		CoolPolls:      3,
		PollInterval:   2 * time.Second,
		ProbeInterval:  time.Second,
		AttemptTimeout: 2 * time.Second,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	router.Start(ctx)
	if f.base, err = f.listen(routerHandler(b.tr, router.Handler())); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// serveShares are the request classes of a plan and their shares:
// enough repeats that p50 falls inside the hit class, and the
// engine-running cold class the slowest, so the tail falls inside it.
var serveShares = []struct {
	class string
	share float64
}{
	{"hit", 0.62},         // repeat of a completed cold spec: store reads only
	{"cold", 0.22},        // new multi-seed spec: engine run and store writes
	{"profile", 0.08},     // new spec with "profile": true, then its profile read
	{"profile_get", 0.08}, // re-read of a completed profile: mrc and raw store
}

// serveClasses returns the class sequence of a plan of n operations: at
// every prefix each class is as close to its share as possible. It is the
// same for every seed, so the seed moves run time only through the
// simulations themselves.
func serveClasses(n int) []string {
	counts := make([]float64, len(serveShares))
	out := make([]string, n)
	for i := range out {
		best, deficit := 0, math.Inf(-1)
		for k, s := range serveShares {
			if d := s.share*float64(i+1) - counts[k]; d > deficit {
				best, deficit = k, d
			}
		}
		counts[best]++
		out[i] = serveShares[best].class
	}
	return out
}

// serveRound operations of the class sequence make one round. A client
// plays a round's new submissions first and its repeats second, and both
// clients meet at a barrier after each half. Repeats then never queue for
// a CPU behind the other client's engine run, so the hit class measures
// the read path and the cold class the engine path, each beside the
// other client's traffic of the same kind.
const serveRound = 50

// planOp is one operation of a client's plan. A repeat names a spec of
// an earlier operation of the same client, which has returned by then
// because each client waits for every reply.
type planOp struct {
	class string
	spec  int // index into the client's spec list
}

// clientSpec is one distinct submission body.
type clientSpec struct {
	body    []byte
	id      string          // content-hash request id
	keys    map[string]bool // store keys the request touches
	profile bool
}

type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return splitmix64(r.state)
}

// servePlan builds client c's plan of n operations, as the phases between
// barriers, and its spec list. The seed picks the simulation seeds and
// which spec each repeat names.
func servePlan(seed uint64, c, n int) ([][]planOp, []clientSpec, error) {
	r := &rng{state: seedBase(seed, uint64(0xc11e47+c))}
	base := seedBase(seed, 0x5e7e) + uint64(c)<<18
	var specs []clientSpec
	var done = map[bool][]int{} // completed spec indices, by profile flag
	newSpec := func(profile bool) (int, error) {
		nseeds := serveColdSeeds
		if profile {
			nseeds = serveProfileSeeds
		}
		exp := sweepExperiments[len(done[profile])%len(sweepExperiments)]
		seeds := make([]uint64, nseeds)
		for i := range seeds {
			seeds[i] = base + uint64(len(specs)*serveSpecStride+i+1)
		}
		cs, err := makeSpec(exp, seeds, profile)
		if err != nil {
			return 0, err
		}
		specs = append(specs, cs)
		done[profile] = append(done[profile], len(specs)-1)
		return len(specs) - 1, nil
	}
	plan := func(class string) (planOp, error) {
		profile := class == "profile" || class == "profile_get"
		if repeat := class == "hit" || class == "profile_get"; repeat && len(done[profile]) > 0 {
			prior := done[profile]
			return planOp{class, prior[r.next()%uint64(len(prior))]}, nil
		}
		if class == "hit" {
			class = "cold"
		} else if class == "profile_get" {
			class = "profile"
		}
		spec, err := newSpec(profile)
		return planOp{class, spec}, err
	}
	classes := serveClasses(n)
	var phases [][]planOp
	for start := 0; start < n; start += serveRound {
		var writes, reads []planOp
		for _, class := range classes[start:min(start+serveRound, n)] {
			if class == "hit" || class == "profile_get" {
				continue
			}
			op, err := plan(class)
			if err != nil {
				return nil, nil, err
			}
			writes = append(writes, op)
		}
		for _, class := range classes[start:min(start+serveRound, n)] {
			if class != "hit" && class != "profile_get" {
				continue
			}
			op, err := plan(class)
			if err != nil {
				return nil, nil, err
			}
			reads = append(reads, op)
		}
		phases = append(phases, writes, reads)
	}
	return phases, specs, nil
}

func makeSpec(exp string, seeds []uint64, profile bool) (clientSpec, error) {
	body, err := json.Marshal(serve.Spec{Kind: "experiment", Experiment: exp, Seeds: seeds, Profile: profile})
	if err != nil {
		return clientSpec{}, err
	}
	id, err := serve.ComputeRequestID(body, serve.Options{})
	if err != nil {
		return clientSpec{}, err
	}
	sp, err := sweep.SpecFor(exp, seeds, 1)
	if err != nil {
		return clientSpec{}, err
	}
	keys := map[string]bool{"profile-" + id: true}
	for _, j := range sweep.Expand([]sweep.Spec{sp}) {
		keys[j.Key] = true
	}
	return clientSpec{body: body, id: id, keys: keys, profile: profile}, nil
}

// serveClient runs one client's plan, closed loop, on one goroutine.
type serveClient struct {
	name  string
	tr    *tracer
	base  string
	http  *http.Client
	plan  [][]planOp       // phases, each ended by a barrier
	meet  []sync.WaitGroup // one barrier per phase, shared by the clients
	specs []clientSpec

	samples   []float64                  // every timed request, ms
	lat       map[string][]float64       // per class, ms
	flightMS  []float64                  // worker-reported wall_ms of cold flights
	proxyMS   []float64                  // client latency minus wall_ms
	first     map[int][]string           // first answer's tables per spec
	profile   map[int][]byte             // first profile document per spec
	opKeys    map[string]map[string]bool // op id -> store keys it touches
	retries   int
	attempted int
	distinct  int
	failures  []error
}

func newServeClient(name string, tr *tracer, base string, hc *http.Client, plan [][]planOp, meet []sync.WaitGroup, specs []clientSpec) *serveClient {
	return &serveClient{name: name, tr: tr, base: base, http: hc, plan: plan, meet: meet, specs: specs,
		lat: map[string][]float64{}, first: map[int][]string{}, profile: map[int][]byte{},
		opKeys: map[string]map[string]bool{}}
}

// do sends one request and returns its status, body and latency,
// retrying a 429 or 503 after its Retry-After hint.
func (c *serveClient) do(method, path string, body []byte, opID string, parent int) (int, []byte, float64, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, 0, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.tr != nil {
			req.Header.Set(hdrReq, opID)
			req.Header.Set(hdrParent, strconv.Itoa(parent))
		}
		start := now()
		resp, err := c.http.Do(req)
		if err != nil {
			return 0, nil, 0, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ms := msSince(start)
		if err != nil {
			return 0, nil, 0, err
		}
		shed := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		if shed && attempt < 5 {
			c.retries++
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				wait = time.Duration(s) * time.Second
			}
			time.Sleep(wait)
			continue
		}
		return resp.StatusCode, data, ms, nil
	}
}

func (c *serveClient) record(class string, ms float64) {
	c.lat[class] = append(c.lat[class], ms)
	c.samples = append(c.samples, ms)
}

func (c *serveClient) run() {
	for k, phase := range c.plan {
		for _, op := range phase {
			opID := fmt.Sprintf("%s-%d", c.name, c.attempted)
			c.opKeys[opID] = c.specs[op.spec].keys
			sp := c.tr.begin("client "+op.class, "client", 0, opID)
			if err := c.runOp(op, opID, sp); err != nil {
				c.failures = append(c.failures, fmt.Errorf("%s %s: %w", opID, op.class, err))
			}
			c.tr.end(sp)
		}
		c.meet[k].Done()
		c.meet[k].Wait()
	}
}

// runOp sends one plan operation and checks its answers.
func (c *serveClient) runOp(op planOp, opID string, sp int) error {
	c.attempted++
	spec := c.specs[op.spec]
	if op.class == "profile_get" {
		return c.getProfile(op.spec, spec.id, opID, sp)
	}
	code, data, ms, err := c.do("POST", "/v1/run", spec.body, opID, sp)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("POST /v1/run: status %d: %s", code, data)
	}
	var doc serve.Response
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("POST /v1/run: %w", err)
	}
	c.record(op.class, ms)
	c.proxyMS = append(c.proxyMS, ms-doc.WallMS)
	if op.class == "cold" {
		c.flightMS = append(c.flightMS, doc.WallMS)
	}
	if op.class == "hit" {
		if doc.Cache != "hit" {
			return fmt.Errorf("repeat answered with cache %q, want hit", doc.Cache)
		}
		if !equalStrings(c.first[op.spec], doc.Tables) {
			return errors.New("repeat tables differ from the first answer")
		}
		return nil
	}
	if doc.Cache != "miss" || doc.Executed != doc.Jobs {
		return fmt.Errorf("first submission answered with cache %q, %d of %d executed", doc.Cache, doc.Executed, doc.Jobs)
	}
	c.first[op.spec] = doc.Tables
	c.distinct++
	if err := c.events(spec.id, opID, sp); err != nil {
		return err
	}
	if spec.profile {
		return c.getProfile(op.spec, spec.id, opID, sp)
	}
	return nil
}

// events reads a flight's JSONL event stream and checks its terminal frame.
func (c *serveClient) events(id, opID string, sp int) error {
	code, data, _, err := c.do("GET", "/v1/jobs/"+id+"/events", nil, opID, sp)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET events: status %d", code)
	}
	var last struct {
		Event    string `json:"event"`
		HTTPCode int    `json:"http_code"`
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("GET events: %w", err)
		}
	}
	if last.Event != "end" || last.HTTPCode != http.StatusOK {
		return fmt.Errorf("event stream ended with %q (http_code %d), want terminal end frame", last.Event, last.HTTPCode)
	}
	return nil
}

func (c *serveClient) getProfile(spec int, id, opID string, sp int) error {
	code, data, ms, err := c.do("GET", "/v1/profile/"+id, nil, opID, sp)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET profile: status %d", code)
	}
	c.record("profile_get", ms)
	first, ok := c.profile[spec]
	if !ok {
		if !json.Valid(data) {
			return errors.New("GET profile: invalid JSON")
		}
		c.profile[spec] = data
		return nil
	}
	if !bytes.Equal(first, data) {
		return errors.New("GET profile: document differs from the first answer")
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scrape reads the Prometheus counters of one /metrics page.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// fleetCounters sums the workers' counters and adds the router's.
func fleetCounters(f *fleet) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range append([]string{f.base}, f.workers...) {
		m, err := scrape(u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// warmFleet sends two operations of every class, at the plan's sizes, on
// specs outside the plan.
func warmFleet(b *bench, f *fleet, hc *http.Client) error {
	c := newServeClient("warm", b.tr, f.base, hc, nil, nil, nil)
	base := seedBase(b.seed, 0x3a3a)
	for i := 0; i < 4; i++ {
		profile := i >= 2
		seeds := make([]uint64, serveColdSeeds)
		if profile {
			seeds = seeds[:serveProfileSeeds]
		}
		for j := range seeds {
			seeds[j] = base + uint64(i*serveSpecStride+j+1)
		}
		spec, err := makeSpec(sweepExperiments[i%len(sweepExperiments)], seeds, profile)
		if err != nil {
			return err
		}
		c.specs = append(c.specs, spec)
		ops := []planOp{{"cold", i}, {"hit", i}}
		if profile {
			ops = []planOp{{"profile", i}, {"profile_get", i}}
		}
		for _, op := range ops {
			if err := c.runOp(op, fmt.Sprintf("warm-%d-%s", i, op.class), 0); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

func runServe(b *bench) error {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	defer hc.CloseIdleConnections()
	var f *fleet
	var stores []*timedStore // every fleet's, for span linking
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	for i := 0; i < serveSetups; i++ {
		if f != nil {
			f.close()
		}
		start := now()
		sp := b.tr.begin("fleet.start", "cluster", 0, "")
		var err error
		f, err = startFleet(b, fmt.Sprintf("%s/fleet%d", b.dir, i))
		b.tr.end(sp)
		if err != nil {
			f = nil
			return err
		}
		stores = append(stores, f.stores...)
		mid := now()
		if err := warmFleet(b, f, hc); err != nil {
			return err
		}
		b.setup(start, mid)
	}

	clients := make([]*serveClient, serveClients)
	var meet []sync.WaitGroup
	for i := range clients {
		plan, specs, err := servePlan(b.seed, i, b.size)
		if err != nil {
			return err
		}
		if meet == nil {
			meet = make([]sync.WaitGroup, len(plan))
			for k := range meet {
				meet[k].Add(serveClients)
			}
		}
		clients[i] = newServeClient(fmt.Sprintf("c%d", i), b.tr, f.base, hc, plan, meet, specs)
	}
	before, err := fleetCounters(f)
	if err != nil {
		return err
	}
	start := now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			c.run()
		}(c)
	}
	wg.Wait()
	b.windowS = now().Sub(start).Seconds()
	b.heapMB = liveHeapMB()
	after, err := fleetCounters(f)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	lat := map[string][]float64{}
	var flight, proxy []float64
	distinct, retries := 0, 0
	opKeys := map[string]map[string]bool{}
	h := sha256.New()
	for _, c := range clients {
		for k, v := range c.lat {
			lat[k] = append(lat[k], v...)
		}
		b.samples = append(b.samples, c.samples...)
		flight = append(flight, c.flightMS...)
		proxy = append(proxy, c.proxyMS...)
		distinct += c.distinct
		retries += c.retries
		b.attempted += c.attempted
		b.failed += len(c.failures)
		for _, err := range c.failures {
			if len(b.failures) < 20 {
				b.failures = append(b.failures, err.Error())
			}
		}
		for k, v := range c.opKeys {
			opKeys[k] = v
		}
		for i := range c.specs {
			fmt.Fprintf(h, "%s\x00%q\x00", c.specs[i].id, c.first[i])
			h.Write(c.profile[i])
		}
		b.work += float64(c.attempted)
	}
	engineRuns := delta("mimdserved_engine_runs_total")
	b.check(engineRuns == float64(distinct), "serve: %v engine runs for %d distinct specs", engineRuns, distinct)
	b.check(delta("mimdserved_coalesced_total") == 0, "serve: %v requests coalesced", delta("mimdserved_coalesced_total"))

	var storeLat = map[string][]float64{}
	for _, ts := range f.stores {
		ts.mu.Lock()
		for k, v := range ts.lat {
			storeLat[k] = append(storeLat[k], v...)
		}
		ts.mu.Unlock()
	}
	b.layer["machine.new_s"] = median(b.newS)
	b.layer["machine.warmup_s"] = median(b.warmS)
	b.layer["serve.cold_ms"] = median(lat["cold"])
	b.layer["serve.hit_ms"] = median(lat["hit"])
	b.layer["serve.profile_ms"] = median(lat["profile"])
	b.layer["mrc.profile_get_ms"] = median(lat["profile_get"])
	b.layer["serve.flight_ms"] = median(flight)
	b.layer["cluster.proxy_ms"] = median(proxy)
	b.layer["serve.store_get_ms"] = median(storeLat["get"])
	b.layer["serve.store_put_ms"] = median(storeLat["put"])
	b.layer["serve.store_getraw_ms"] = median(storeLat["getraw"])
	b.layer["serve.store_putraw_ms"] = median(storeLat["putraw"])
	b.layer["serve.journal_ms"] = median(storeLat["journal"])
	counters := map[string]string{
		"serve.engine_runs":      "mimdserved_engine_runs_total",
		"serve.coalesced":        "mimdserved_coalesced_total",
		"serve.store_served":     "mimdserved_store_served_total",
		"serve.profiles_built":   "mimdserved_profiles_built_total",
		"serve.profiles_served":  "mimdserved_profiles_served_total",
		"cluster.failovers":      "mimdrouter_failovers_total",
		"cluster.breaker_opens":  "mimdrouter_breaker_opens_total",
		"cluster.replicas_added": "mimdrouter_replicas_added_total",
	}
	for name, prom := range counters {
		b.layer[name] = delta(prom)
		b.counts[name] = delta(prom)
	}
	b.layer["serve.retries_429"] = float64(retries)
	b.counts["serve.retries_429"] = retries
	b.counts["serve.jobs_executed"] = delta("mimdserved_jobs_executed_total")
	b.counts["serve.distinct_specs"] = distinct
	for k, v := range lat {
		b.counts["serve.requests."+k] = len(v)
	}
	b.counts["serve.answers_sha"] = hex.EncodeToString(h.Sum(nil)[:12])

	if b.tr != nil {
		linkStoreSpans(b.tr, stores, opKeys)
	}
	return nil
}

// linkStoreSpans parents each store call on the serve or mrc span of the
// same worker whose interval contains it, preferring the request whose
// keys include the call's key.
func linkStoreSpans(tr *tracer, stores []*timedStore, opKeys map[string]map[string]bool) {
	spans := tr.snapshot()
	var handlers []span
	for _, s := range spans {
		if (s.Layer == "serve" || s.Layer == "mrc") && s.Worker != "" {
			handlers = append(handlers, s)
		}
	}
	sort.Slice(handlers, func(i, j int) bool { return handlers[i].Start < handlers[j].Start })
	byWorker := map[string][]span{} // each in start order
	for _, s := range handlers {
		byWorker[s.Worker] = append(byWorker[s.Worker], s)
	}
	for _, ts := range stores {
		for _, id := range ts.ids {
			s := spans[id-1]
			best := 0
			for _, p := range byWorker[s.Worker] {
				if p.Start > s.Start {
					break
				}
				if p.End < s.End {
					continue
				}
				if best == 0 || opKeys[p.Req][s.Key] {
					best = p.ID
				}
			}
			tr.setParent(id, best)
		}
	}
}
