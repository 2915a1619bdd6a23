// Service metrics: the latency ring and log-bucketed histogram, the
// per-tenant / per-priority / per-engine breakdowns, and the Metrics
// snapshot GET /metrics renders. Latency accounting policy (what enters
// the ring at all) lives with the job lifecycle in service.go; this file
// only aggregates.
package serve

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyRing keeps the last N job latencies for percentile estimates.
type latencyRing struct {
	mu   sync.Mutex
	buf  []int64
	next int
	full bool
}

func newLatencyRing(n int) *latencyRing { return &latencyRing{buf: make([]int64, n)} }

func (l *latencyRing) add(d int64) {
	l.mu.Lock()
	l.buf[l.next] = d
	l.next++
	if l.next == len(l.buf) {
		l.next, l.full = 0, true
	}
	l.mu.Unlock()
}

// percentiles returns the p50 and p99 of the retained window (0, 0 when
// empty), using nearest-rank (ceil) indexing: the reported pXX is the
// smallest retained sample ≥ XX% of the window. The truncating
// int(p*(n-1)) form this replaces under-reports the tail — on a 50-sample
// window it hands back the ~p96 sample and calls it p99, exactly when the
// tail is what the number is for.
func (l *latencyRing) percentiles() (p50, p99 int64) {
	l.mu.Lock()
	n := l.next
	if l.full {
		n = len(l.buf)
	}
	s := make([]int64, n)
	copy(s, l.buf[:n])
	l.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[nearestRank(0.50, n)], s[nearestRank(0.99, n)]
}

// nearestRank returns the 0-based index of the nearest-rank percentile p
// in a sorted sample of size n: ceil(p·n) clamped to [0, n-1].
func nearestRank(p float64, n int) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// histBoundsMS are the histogram bucket upper bounds in milliseconds,
// roughly log-spaced from sub-millisecond pool round-trips to the job
// deadlines loadgen uses.
var histBoundsMS = []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// histogram counts latencies into the histBoundsMS buckets plus one
// overflow bucket. Counters are atomics: observe is on the job completion
// path and must not contend with /metrics scrapes.
type histogram struct {
	counts []atomic.Int64 // len(histBoundsMS)+1; last is the overflow
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(histBoundsMS)+1)}
}

func (h *histogram) observe(ns int64) {
	ms := float64(ns) / 1e6
	i := sort.SearchFloat64s(histBoundsMS, ms)
	h.counts[i].Add(1)
}

// LatencyHistogram is the JSON view: Counts[i] holds samples ≤
// BoundsMS[i] (and > the previous bound); Counts[len(BoundsMS)] holds the
// overflow. Counts are per-bucket, not cumulative.
type LatencyHistogram struct {
	BoundsMS []float64 `json:"bounds_ms"`
	Counts   []int64   `json:"counts"`
}

func (h *histogram) snapshot() LatencyHistogram {
	out := LatencyHistogram{BoundsMS: histBoundsMS, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	return out
}

// groupStat accumulates one breakdown key's counters (a tenant, a
// priority class, or an engine) plus a latency window of its own.
type groupStat struct {
	submitted     atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	cancelled     atomic.Int64
	rejected      atomic.Int64 // queue-full rejections attributed to the key
	rateLimited   atomic.Int64
	quotaRejected atomic.Int64
	queued        atomic.Int64 // gauge: admitted, not yet running
	running       atomic.Int64 // gauge: on pool workers now
	lat           *latencyRing
}

func newGroupStat() *groupStat { return &groupStat{lat: newLatencyRing(1024)} }

// GroupMetrics is the JSON view of one breakdown key.
type GroupMetrics struct {
	Submitted     int64   `json:"submitted"`
	Completed     int64   `json:"completed"`
	Failed        int64   `json:"failed,omitempty"`
	Cancelled     int64   `json:"cancelled,omitempty"`
	Rejected      int64   `json:"rejected,omitempty"`
	RateLimited   int64   `json:"rate_limited,omitempty"`
	QuotaRejected int64   `json:"quota_rejected,omitempty"`
	Queued        int64   `json:"queued"`
	Running       int64   `json:"running"`
	P50LatencyMS  float64 `json:"p50_latency_ms"`
	P99LatencyMS  float64 `json:"p99_latency_ms"`
}

func (g *groupStat) snapshot() GroupMetrics {
	p50, p99 := g.lat.percentiles()
	return GroupMetrics{
		Submitted:     g.submitted.Load(),
		Completed:     g.completed.Load(),
		Failed:        g.failed.Load(),
		Cancelled:     g.cancelled.Load(),
		Rejected:      g.rejected.Load(),
		RateLimited:   g.rateLimited.Load(),
		QuotaRejected: g.quotaRejected.Load(),
		Queued:        g.queued.Load(),
		Running:       g.running.Load(),
		P50LatencyMS:  float64(p50) / 1e6,
		P99LatencyMS:  float64(p99) / 1e6,
	}
}

// tenantState is one tenant's admission state: its limits, its token
// bucket, its in-flight count (for the quota), and its metrics.
type tenantState struct {
	groupStat
	limits   TenantLimits
	bucket   *tokenBucket
	inflight atomic.Int64 // queued + running, bounded by limits.MaxInFlight
}

func newTenantState(lim TenantLimits) *tenantState {
	ts := &tenantState{limits: lim, bucket: newTokenBucket(lim)}
	ts.lat = newLatencyRing(1024)
	return ts
}

// longPollStats counts the requests ?wait= held open (awaitJob). A request
// that found its job already terminal, or sent no wait, is not counted.
type longPollStats struct {
	waiting  atomic.Int64 // gauge: handlers blocked right now
	total    atomic.Int64
	timeouts atomic.Int64 // waits that ended at their bound, job still live
}

// Metrics is the service counter snapshot returned by GET /metrics.
type Metrics struct {
	Started             time.Time `json:"started"`
	UptimeSeconds       float64   `json:"uptime_seconds"`
	Draining            bool      `json:"draining"`
	Workers             int       `json:"workers"`
	MaxConcurrentJobs   int       `json:"max_concurrent_jobs"`
	RunningJobs         int64     `json:"running_jobs"`
	BusyWorkers         int64     `json:"busy_workers"`
	WorkerOccupancy     float64   `json:"worker_occupancy"`
	QueueCapacity       int       `json:"queue_capacity"`
	QueueDepth          int       `json:"queue_depth"`
	ExternalQueueDepth  int       `json:"external_queue_depth"`
	LoadScore           int       `json:"load_score"`
	InFlight            int64     `json:"in_flight"`
	ForwardedOut        int64     `json:"forwarded_out"`
	ForwardedIn         int64     `json:"forwarded_in"`
	ForwardRejected     int64     `json:"forward_rejected"`
	ForwardedNow        int64     `json:"forwarded_now"`
	Submitted           int64     `json:"submitted"`
	Completed           int64     `json:"completed"`
	Failed              int64     `json:"failed"`
	Cancelled           int64     `json:"cancelled"`
	Rejected            int64     `json:"rejected"`
	RateLimited         int64     `json:"rate_limited"`
	QuotaRejected       int64     `json:"quota_rejected"`
	AdmissionRetries    int64     `json:"admission_retries"`
	QuarantinedJobs     int64     `json:"quarantined_jobs"`
	IdleParks           int64     `json:"idle_parks"` // times a starved thief blocked, over finished jobs
	IdleWakes           int64     `json:"idle_wakes"` // wake-ups busy workers sent from Push
	ThroughputPerSecond float64   `json:"throughput_per_second"`
	P50LatencyMS        float64   `json:"p50_latency_ms"`
	P99LatencyMS        float64   `json:"p99_latency_ms"`
	InvariantChecked    int64     `json:"invariant_checked"`
	InvariantViolations int64     `json:"invariant_violations"`
	LongPollWaiting     int64     `json:"long_poll_waiting"`  // ?wait= requests blocked right now
	LongPolls           int64     `json:"long_polls"`         // requests that blocked at all
	LongPollTimeouts    int64     `json:"long_poll_timeouts"` // of those, answered at the bound with the job still live

	// Programs-as-data: DSL compile cache and persistent job store.
	ProgramsCached    int            `json:"programs_cached"`
	ProgramCacheBytes int64          `json:"program_cache_bytes"`
	CompileHits       int64          `json:"compile_hits"`
	CompileMisses     int64          `json:"compile_misses"`
	CompileErrHits    int64          `json:"compile_error_hits"`
	ProgramEvictions  int64          `json:"program_evictions"`
	StoreFsyncs       int64          `json:"store_fsyncs,omitempty"`
	StoreRecords      int64          `json:"store_records,omitempty"`
	Recovery          *RecoveryStats `json:"recovery,omitempty"`

	LatencyHistogram LatencyHistogram        `json:"latency_histogram"`
	Shards           []ShardMetrics          `json:"shards,omitempty"`
	Tenants          map[string]GroupMetrics `json:"tenants,omitempty"`
	Priorities       map[string]GroupMetrics `json:"priorities,omitempty"`
	Engines          map[string]GroupMetrics `json:"engines,omitempty"`
}

// ShardMetrics is the occupancy view of one live worker shard: which
// global workers a running job is bound to and what fraction of the pool
// that is. The aggregate worker_occupancy cannot distinguish one wide job
// from many narrow ones; the cluster load view (and capacity planning)
// wants the breakdown.
type ShardMetrics struct {
	Workers   []int   `json:"workers"`
	Width     int     `json:"width"`
	Occupancy float64 `json:"occupancy"`
}
