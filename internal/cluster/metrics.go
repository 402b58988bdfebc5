package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Metrics aggregates the router's counters, rendered in Prometheus text
// exposition format on the router's /metrics. Everything is
// mutex-guarded; the routing hot path is proxy-bound, not counter-bound.
type Metrics struct {
	mu sync.Mutex

	requestsByCode  map[int]int64    // router HTTP responses, by status code
	proxiedByWorker map[string]int64 // submissions proxied, by worker id
	replicaReads    int64            // submissions routed to a shard's replica
	failovers       int64            // proxy attempts moved to the next candidate
	noWorker        int64            // submissions shed because no candidate was alive
	replicasAdded   int64            // rebalancer: replicas activated
	replicasRetired int64            // rebalancer: replicas retired
	fillObjects     int64            // store objects copied by replica fills
	rebalancePolls  int64            // completed rebalancer polls

	truncatedStreams int64 // relayed streams that ended without a terminal frame
	breakerOpens     int64 // circuit transitions into open
	breakerSkips     int64 // candidates skipped because their circuit was open
	attemptTimeouts  int64 // proxy attempts cancelled waiting for headers
	resumedFlights   int64 // journaled flights resumed after restart
}

func newMetrics() *Metrics {
	return &Metrics{
		requestsByCode:  map[int]int64{},
		proxiedByWorker: map[string]int64{},
	}
}

func (m *Metrics) countRequest(code int) {
	m.mu.Lock()
	m.requestsByCode[code]++
	m.mu.Unlock()
}

func (m *Metrics) countProxied(worker string, replicaRead bool) {
	m.mu.Lock()
	m.proxiedByWorker[worker]++
	if replicaRead {
		m.replicaReads++
	}
	m.mu.Unlock()
}

func (m *Metrics) countFailover() {
	m.mu.Lock()
	m.failovers++
	m.mu.Unlock()
}

func (m *Metrics) countNoWorker() {
	m.mu.Lock()
	m.noWorker++
	m.mu.Unlock()
}

func (m *Metrics) countReplicaAdded(filled int64) {
	m.mu.Lock()
	m.replicasAdded++
	m.fillObjects += filled
	m.mu.Unlock()
}

func (m *Metrics) countReplicaRetired() {
	m.mu.Lock()
	m.replicasRetired++
	m.mu.Unlock()
}

func (m *Metrics) countPoll() {
	m.mu.Lock()
	m.rebalancePolls++
	m.mu.Unlock()
}

func (m *Metrics) countTruncatedStream() {
	m.mu.Lock()
	m.truncatedStreams++
	m.mu.Unlock()
}

func (m *Metrics) countBreakerOpen() {
	m.mu.Lock()
	m.breakerOpens++
	m.mu.Unlock()
}

func (m *Metrics) countBreakerSkip() {
	m.mu.Lock()
	m.breakerSkips++
	m.mu.Unlock()
}

func (m *Metrics) countAttemptTimeout() {
	m.mu.Lock()
	m.attemptTimeouts++
	m.mu.Unlock()
}

func (m *Metrics) countResumedFlight() {
	m.mu.Lock()
	m.resumedFlights++
	m.mu.Unlock()
}

// ReplicasAdded returns how many replicas the rebalancer has activated
// (tests and the load generator read this through /metrics; this
// accessor serves in-process assertions).
func (m *Metrics) ReplicasAdded() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replicasAdded
}

// ReplicasRetired returns how many replicas the rebalancer has retired.
func (m *Metrics) ReplicasRetired() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replicasRetired
}

// ReplicaReads returns how many submissions were routed to a replica.
func (m *Metrics) ReplicaReads() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replicaReads
}

// TruncatedStreams returns how many relayed streams ended without a
// terminal frame.
func (m *Metrics) TruncatedStreams() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.truncatedStreams
}

// BreakerOpens returns how many times a worker circuit opened.
func (m *Metrics) BreakerOpens() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.breakerOpens
}

// Failovers returns how many proxy attempts moved to the next
// candidate.
func (m *Metrics) Failovers() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failovers
}

// NoWorker returns how many submissions were shed with no candidate.
func (m *Metrics) NoWorker() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.noWorker
}

// AttemptTimeouts returns how many proxy attempts were cancelled
// waiting for response headers.
func (m *Metrics) AttemptTimeouts() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.attemptTimeouts
}

// BreakerSkips returns how many proxy candidates were skipped on an
// open circuit.
func (m *Metrics) BreakerSkips() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.breakerSkips
}

// ResumedFlights returns how many journaled flights were resumed.
func (m *Metrics) ResumedFlights() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resumedFlights
}

// Render writes the Prometheus text exposition. aliveWorkers,
// membershipVersion and activeReplicas are live gauges sampled by the
// caller.
func (m *Metrics) Render(aliveWorkers int, membershipVersion uint64, activeReplicas int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	w("# HELP mimdrouter_requests_total Router HTTP responses by status code.\n")
	w("# TYPE mimdrouter_requests_total counter\n")
	codes := make([]int, 0, len(m.requestsByCode))
	for code := range m.requestsByCode {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		w("mimdrouter_requests_total{code=%q} %d\n", strconv.Itoa(code), m.requestsByCode[code])
	}

	w("# HELP mimdrouter_proxied_total Submissions proxied, by worker.\n")
	w("# TYPE mimdrouter_proxied_total counter\n")
	workers := make([]string, 0, len(m.proxiedByWorker))
	for id := range m.proxiedByWorker {
		workers = append(workers, id)
	}
	sort.Strings(workers)
	for _, id := range workers {
		w("mimdrouter_proxied_total{worker=%q} %d\n", id, m.proxiedByWorker[id])
	}

	w("# HELP mimdrouter_alive_workers Workers currently passing health checks.\n")
	w("# TYPE mimdrouter_alive_workers gauge\n")
	w("mimdrouter_alive_workers %d\n", aliveWorkers)
	w("# HELP mimdrouter_membership_version Version of the membership table.\n")
	w("# TYPE mimdrouter_membership_version gauge\n")
	w("mimdrouter_membership_version %d\n", membershipVersion)

	w("# HELP mimdrouter_replica_reads_total Submissions routed to a shard's replica.\n")
	w("# TYPE mimdrouter_replica_reads_total counter\n")
	w("mimdrouter_replica_reads_total %d\n", m.replicaReads)
	w("# HELP mimdrouter_failovers_total Proxy attempts moved to the next rendezvous candidate.\n")
	w("# TYPE mimdrouter_failovers_total counter\n")
	w("mimdrouter_failovers_total %d\n", m.failovers)
	w("# HELP mimdrouter_no_worker_total Submissions shed because no candidate worker was alive.\n")
	w("# TYPE mimdrouter_no_worker_total counter\n")
	w("mimdrouter_no_worker_total %d\n", m.noWorker)

	w("# HELP mimdrouter_shard_replicas Shards currently serving through a replica.\n")
	w("# TYPE mimdrouter_shard_replicas gauge\n")
	w("mimdrouter_shard_replicas %d\n", activeReplicas)
	w("# HELP mimdrouter_replicas_added_total Replicas activated by the p99 rebalancer.\n")
	w("# TYPE mimdrouter_replicas_added_total counter\n")
	w("mimdrouter_replicas_added_total %d\n", m.replicasAdded)
	w("# HELP mimdrouter_replicas_retired_total Replicas retired after sustained recovery.\n")
	w("# TYPE mimdrouter_replicas_retired_total counter\n")
	w("mimdrouter_replicas_retired_total %d\n", m.replicasRetired)
	w("# HELP mimdrouter_fill_objects_total Store objects copied by replica fills.\n")
	w("# TYPE mimdrouter_fill_objects_total counter\n")
	w("mimdrouter_fill_objects_total %d\n", m.fillObjects)
	w("# HELP mimdrouter_rebalance_polls_total Completed rebalancer polls over /shardstats.\n")
	w("# TYPE mimdrouter_rebalance_polls_total counter\n")
	w("mimdrouter_rebalance_polls_total %d\n", m.rebalancePolls)

	w("# HELP mimdrouter_truncated_streams_total Relayed streams that ended without a terminal frame.\n")
	w("# TYPE mimdrouter_truncated_streams_total counter\n")
	w("mimdrouter_truncated_streams_total %d\n", m.truncatedStreams)
	w("# HELP mimdrouter_breaker_opens_total Worker circuit-breaker transitions into open.\n")
	w("# TYPE mimdrouter_breaker_opens_total counter\n")
	w("mimdrouter_breaker_opens_total %d\n", m.breakerOpens)
	w("# HELP mimdrouter_breaker_skips_total Proxy candidates skipped on an open circuit.\n")
	w("# TYPE mimdrouter_breaker_skips_total counter\n")
	w("mimdrouter_breaker_skips_total %d\n", m.breakerSkips)
	w("# HELP mimdrouter_attempt_timeouts_total Proxy attempts cancelled waiting for response headers.\n")
	w("# TYPE mimdrouter_attempt_timeouts_total counter\n")
	w("mimdrouter_attempt_timeouts_total %d\n", m.attemptTimeouts)
	w("# HELP mimdrouter_resumed_flights_total Journaled flights resumed after a router restart.\n")
	w("# TYPE mimdrouter_resumed_flights_total counter\n")
	w("mimdrouter_resumed_flights_total %d\n", m.resumedFlights)
	return b.String()
}
