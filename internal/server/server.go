package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/shard"
)

// Server-level counter and gauge names, joining the catalogue in
// internal/obs. Exposed at /metrics in Prometheus text format.
const (
	CtrRequests      = "server_requests_total"
	CtrErrors        = "server_request_errors_total"
	CtrShed          = "server_requests_shed_total"
	CtrShedFull      = "server_requests_shed_queue_full_total"
	CtrShedExpired   = "server_requests_shed_expired_total"
	CtrShedPreempted = "server_requests_shed_preempted_total"
	CtrDegraded      = "server_requests_degraded_total"
	CtrCacheHit      = "server_cache_hits_total"
	CtrCacheMiss     = "server_cache_misses_total"
	CtrCacheEvict    = "server_cache_evictions_total"
	CtrCacheDisk     = "server_cache_disk_hits_total"
	CtrKDEBuilds     = "server_kde_builds_total"

	GaugeInFlight   = "server_in_flight"
	GaugeCacheBytes = "server_cache_bytes"
)

// Histogram names: request latency per route and build-stage latency
// per stage, both log2-bucketed (see internal/obs). They replace the
// fixed-size latency ring: cumulative process-life distributions that
// Prometheus can rate(), instead of a 512-sample window that a burst
// could rotate out of.
//
// HistShardSeconds is the coordinator's downstream fan-out wait, under
// stage "partials", the one round, observed by the coordinator
// (shard.HistSeconds). It is deliberately separate from
// HistStageSeconds: a sharded build spends its time waiting on workers,
// and folding that wait into the "build" stages would make coordinator-
// local latency indistinguishable from downstream shard latency.
const (
	HistRequestSeconds = "server_request_seconds" // label: route
	HistStageSeconds   = "server_stage_seconds"   // label: stage
	HistShardSeconds   = shard.HistSeconds        // label: stage (partials)

	// HistQueueSeconds is the admission queue wait, observed only for
	// requests that actually queued (a fast-path admit contributes
	// nothing). The unlabeled aggregate drives the derived Retry-After
	// hints; the tenant-labeled family is the per-tenant SLO view.
	HistQueueSeconds       = "server_queue_seconds"
	HistTenantQueueSeconds = "server_tenant_queue_seconds" // label: tenant
)

// TraceHeader is the response header carrying the request's trace ID.
// It is set on every compute response — success, pipeline failure, and
// shed (429/503/504) alike — so a client error report can always be
// joined against the access log and /debug/traces.
const TraceHeader = "X-DBS-Trace"

// TenantHeader names the request's tenant for admission accounting
// (API-key style). Absent or empty means DefaultTenant, so untagged
// clients share one default bucket and a single-tenant deployment is
// unchanged.
const TenantHeader = "X-DBS-Tenant"

// DegradedHeader marks a response served by the degrade ladder instead
// of the full pipeline: under overload, a shed /v1/sample request may
// be answered from the cached a=0 artifact (uniform sampling — the
// DBSCAN++ special case of the paper's scheme) rather than a 429. The
// value names the rung ("a0").
const DegradedHeader = "X-DBS-Degraded"

// Config sizes the serving layer. The zero value is usable: all-CPU
// parallelism, a 256 MiB artifact cache, in-flight admission matched to
// the core count, and a 30-second request deadline.
type Config struct {
	// Parallelism bounds the scan workers each admitted request may use
	// (0 = all CPUs). Results never depend on it.
	Parallelism int
	// CacheBytes is the artifact cache budget (default 256 MiB; negative
	// disables caching).
	CacheBytes int64
	// MaxInFlight bounds concurrently executing pipeline requests
	// (default: the effective parallelism degree, so one request's scan
	// workers fill the machine before a second is admitted).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot
	// (default 2 × MaxInFlight; negative means no queue — reject the
	// moment the in-flight limit is hit). Beyond it requests are shed
	// with 429.
	MaxQueue int
	// Deadline is the per-request time budget (default 30s). It bounds
	// both queue wait and pipeline execution via the request context.
	Deadline time.Duration
	// Retry is how many times a transiently failed build stage is
	// re-attempted (0 = fail on first error). Retries back off
	// exponentially from RetryBackoff with deterministic jitter and
	// never outlive the request deadline.
	Retry int
	// RetryBackoff is the base backoff before the first retry, doubling
	// per attempt (default 20ms when Retry > 0).
	RetryBackoff time.Duration
	// StageTimeout bounds each build-stage attempt; a stage that blows
	// it is retried under the Retry budget while the request deadline
	// holds (0 = stages bounded only by the request deadline).
	StageTimeout time.Duration
	// DriftTol is the relative drift budget for incremental builds after
	// appends. 0 (the default) means every generation is sampled exactly
	// — append-then-sample rebuilds from scratch and responses are
	// bit-for-bit those of a server that never saw the appends. A
	// positive tolerance lets a generation's sample be extended from the
	// prior generation's cached artifact with passes over the delta only,
	// until the accumulated drift Σ m_g/n_g exceeds the tolerance and an
	// exact rebuild resets the budget (core.RebuildSchedule).
	DriftTol float64
	// Faults injects scheduled faults into the build stages (chaos
	// tests and experiments; nil injects nothing).
	Faults *faults.Injector
	// Rec receives the server's counters and gauges, plus every
	// request's rolled-up pipeline counters. A fresh Recorder is created
	// when nil.
	Rec *obs.Recorder
	// TraceSample is the fraction of requests whose completed traces
	// are retained in the /debug/traces recent ring. The decision is a
	// pure function of the trace ID (SampleID) — no RNG state is
	// consumed, so sampling can never perturb responses. 0 disables the
	// recent ring; ≥ 1 retains every request.
	TraceSample float64
	// SlowThreshold is the slow-trace keeper: a request lasting at
	// least this long is always retained in the slow ring, whatever the
	// sample rate. 0 disables the keeper.
	SlowThreshold time.Duration
	// TraceRing is the capacity of each trace ring (default 64). Memory
	// is bounded by 2 × TraceRing × obs.MaxEvents however many
	// requests pass through.
	TraceRing int
	// TraceSeed seeds the trace-ID stream deterministically (tests and
	// chaos runs name a trace by request order); 0 seeds randomly.
	TraceSeed uint64
	// AccessLog, when non-nil, receives one JSON line per completed
	// compute request: trace ID, route, status, cache outcome, queue
	// wait, and the per-stage latency breakdown.
	AccessLog io.Writer

	// Tenants maps tenant names (the TenantHeader value) to admission
	// policies: WFQ weight, per-tenant in-flight/queue quotas, and shed
	// priority. The "*" entry covers tenants not named explicitly. Nil
	// means every tenant gets the default weight-1 normal-priority
	// policy — pure fair sharing bounded by the global limits.
	Tenants map[string]TenantPolicy
	// DegradeOK turns the shed-degrade ladder on: a /v1/sample request
	// rejected by admission (saturated or preempted) is answered from
	// the cached a=0 artifact for the same (dataset, size, seed) when
	// one exists — response 200 with DegradedHeader — instead of a 429.
	DegradeOK bool
	// Disk, when set, is the disk artifact tier under the memory cache
	// (open one with NewDiskTier): every built estimator and sample is
	// persisted there (content-keyed DBSA1 files) and a memory miss
	// loads it back before rebuilding, so artifacts survive eviction and
	// restarts and a shared directory prewarms replicas.
	Disk *DiskTier

	// ShardWorkers > 0 turns sharded sample builds on with that many
	// in-process shard workers (goroutine-backed, all sharing this
	// server's registry and cache). Sharded builds run the exact
	// algorithm only and are bit-identical to the single-node build at
	// every worker count. Mutually exclusive with ShardPeers.
	ShardWorkers int
	// ShardPeers turns HTTP shard mode on: shard name → base URL of a
	// dbsserve worker started with -shard-of <name>, holding the same
	// dataset content (the per-generation fingerprint is verified on
	// every RPC; divergence is a loud 503, never a wrong merge).
	ShardPeers map[string]string
	// ShardReplicas is how many workers may serve each block group: the
	// consistent-hash owner plus ShardReplicas-1 ring successors as
	// hedge/fallback targets (default 2, clamped to the worker count).
	ShardReplicas int
	// ShardHedge is the latency budget after which a pending shard RPC
	// is hedged to the next replica (0 = no hedging). Hedging changes
	// latency, never bytes: every replica computes the identical answer.
	ShardHedge time.Duration
	// ShardOf, when set, is this server's worker identity: shard RPCs
	// naming any other shard are rejected. Workers without it accept any
	// shard name (the in-process mode and single-purpose test workers).
	ShardOf string

	// WindowPoints restricts compute over stream datasets (those fed
	// through /v1/streams/{name}/append) to their most recent N points:
	// each request resolves a concrete [start, end) window over its
	// pinned generation and both scans and cache keys cover exactly
	// those rows. The window fingerprint is content-addressed, so a
	// windowed response is bit-identical to the same rows registered as
	// a fresh dataset. 0 leaves streams unwindowed by count.
	WindowPoints int
	// WindowDur restricts stream datasets to the generations appended
	// within the duration — generation-granular: a generation is either
	// fully in or fully out, and the newest generation is always kept.
	// Combined with WindowPoints, the tighter bound wins. 0 leaves
	// streams unwindowed by age.
	WindowDur time.Duration
}

// tracingEnabled reports whether requests collect traces: any consumer
// of per-request events (sampling ring, slow keeper, access log) turns
// collection on; with none, request Recorders keep no occurrence log and
// the whole layer costs a header write and a few nil checks.
func (c *Config) tracingEnabled() bool {
	return c.TraceSample > 0 || c.SlowThreshold > 0 || c.AccessLog != nil
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.CacheBytes < 0 {
		c.CacheBytes = 0
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = parallel.Degree(c.Parallelism)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.Deadline == 0 {
		c.Deadline = 30 * time.Second
	}
	if c.Retry < 0 {
		c.Retry = 0
	}
	if c.RetryBackoff == 0 && c.Retry > 0 {
		c.RetryBackoff = 20 * time.Millisecond
	}
	if c.Rec == nil {
		c.Rec = obs.New()
	}
	if c.TraceRing == 0 {
		c.TraceRing = 64
	}
	if c.ShardReplicas == 0 {
		c.ShardReplicas = 2
	}
	return c
}

// Server ties the registry, cache, and admission controller to the HTTP
// API. Create with New, expose with Handler.
type Server struct {
	cfg   Config
	reg   *Registry
	cache *Cache
	adm   *Admission
	disk  *DiskTier // Config.Disk; nil means memory only
	rec   *obs.Recorder
	mux   *http.ServeMux

	// Request tracing: the ID stream (every compute response gets an
	// ID), the sampled recent ring and the always-kept slow ring served
	// by /debug/traces, and the structured access log.
	ids       *IDSource
	traces    *Ring
	slowTrace *Ring
	accessLog *accessLogger
	traceOn   bool

	// Sharded serving: the scatter-gather coordinator (nil unless
	// ShardWorkers/ShardPeers configured this server as a coordinator)
	// and the worker-side executor behind /internal/shard (always
	// mounted, so any server can serve as a worker).
	coord   *shard.Coordinator
	shardEx *shardExecutor

	// nowFn is the clock stream appends are watermarked with and
	// duration windows read; tests pin it. The stream state itself lives
	// on the registry entry, so it goes with DELETE.
	nowFn func() time.Time
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		reg:       NewRegistry(cfg.Parallelism),
		cache:     NewCache(cfg.CacheBytes, cfg.Disk, cfg.Rec),
		adm:       NewTenantAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.Tenants, cfg.Rec),
		disk:      cfg.Disk,
		rec:       cfg.Rec,
		mux:       http.NewServeMux(),
		ids:       NewIDSource(cfg.TraceSeed),
		traces:    NewRing(cfg.TraceRing),
		slowTrace: NewRing(cfg.TraceRing),
		traceOn:   cfg.tracingEnabled(),
		nowFn:     time.Now,
	}
	if cfg.AccessLog != nil {
		s.accessLog = &accessLogger{w: cfg.AccessLog}
	}
	s.shardEx = &shardExecutor{s: s}
	if shards := s.buildShards(); len(shards) > 0 {
		s.coord = shard.NewCoordinator(shard.Config{
			Shards:   shards,
			Replicas: cfg.ShardReplicas,
			Hedge:    cfg.ShardHedge,
			Faults:   cfg.Faults,
			Rec:      s.rec,
		})
	}
	s.routes()
	return s
}

// buildShards assembles the coordinator's worker set: named HTTP clients
// for ShardPeers (sorted by name, so every coordinator over the same
// peer set derives the same ring), or ShardWorkers in-process workers
// sharing this server's executor. Empty when sharding is off.
func (s *Server) buildShards() []shard.Shard {
	if len(s.cfg.ShardPeers) > 0 {
		names := make([]string, 0, len(s.cfg.ShardPeers))
		for name := range s.cfg.ShardPeers {
			names = append(names, name)
		}
		sort.Strings(names)
		shards := make([]shard.Shard, len(names))
		for i, name := range names {
			shards[i] = shard.NewClient(name, s.cfg.ShardPeers[name], nil)
		}
		return shards
	}
	if s.cfg.ShardWorkers > 0 {
		shards := make([]shard.Shard, s.cfg.ShardWorkers)
		for i := range shards {
			shards[i] = shard.NewLocal(fmt.Sprintf("w%d", i), s.shardEx)
		}
		return shards
	}
	return nil
}

// Handler returns the full API: the /v1 endpoints, /healthz, and the
// observability surface (/metrics, /debug/pprof) on one mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the dataset registry, e.g. for pre-registering
// datasets from the command line before serving.
func (s *Server) Registry() *Registry { return s.reg }

// StartDraining begins a graceful drain: /healthz flips to "draining" and
// new compute requests are rejected with 503 while admitted ones finish.
// Pair it with http.Server.Shutdown, which waits for in-flight handlers.
func (s *Server) StartDraining() { s.adm.StartDraining() }

// LatencySummary is the /healthz per-route latency digest. The JSON
// keys predate the histogram backend (they were a ring digest) and are
// frozen: count, p50_ms, p99_ms. Quantiles are now log2-histogram
// interpolations — monotone in q, so p99 ≥ p50 — and the count is the
// exact process-life request count for the route, not a window.
type LatencySummary struct {
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
}

func (s *Server) latencySummaries() map[string]LatencySummary {
	return s.histSummaries(HistRequestSeconds, "route")
}

// shardLatencySummaries digests the coordinator's downstream fan-out
// wait per phase — the /healthz view that separates time spent waiting
// on shard workers from coordinator-local build time.
func (s *Server) shardLatencySummaries() map[string]LatencySummary {
	return s.histSummaries(HistShardSeconds, "stage")
}

// histSummaries digests every labeled series of one histogram family
// into the frozen count/p50/p99 shape, keyed by the label's value.
func (s *Server) histSummaries(name, labelKey string) map[string]LatencySummary {
	var out map[string]LatencySummary
	for _, h := range s.rec.Histograms() {
		if h.Name() != name || h.Count() == 0 {
			continue
		}
		key := ""
		for _, l := range h.Labels() {
			if l.Key == labelKey {
				key = l.Value
			}
		}
		if key == "" {
			continue
		}
		if out == nil {
			out = make(map[string]LatencySummary)
		}
		out[key] = LatencySummary{
			Count: int(h.Count()),
			P50ms: h.Quantile(0.50) * 1e3,
			P99ms: h.Quantile(0.99) * 1e3,
		}
	}
	return out
}

// observe records a finished request into the route's latency
// histogram. It runs for every outcome — success, pipeline failure, and
// shed — so 429/503/504 responses appear in the route's digest instead
// of vanishing from it.
func (s *Server) observe(route string, start time.Time) {
	s.rec.Histogram(HistRequestSeconds, obs.Label{Key: "route", Value: route}).
		Observe(time.Since(start).Seconds())
}

// retryAfterHint derives a client back-off from the observed queue-wait
// distribution: the q-quantile of HistQueueSeconds, rounded up to whole
// seconds and clamped to [1s, 30s]. Until the histogram has samples the
// fallback applies (same clamp). 429s use the median — the queue is
// moving and a typical wait from now should find a slot; 503s use p99 —
// this client's deadline already lost to the tail, so it should stand
// back accordingly.
func (s *Server) retryAfterHint(q float64, fallbackSecs int64) string {
	secs := fallbackSecs
	if h := s.rec.Histogram(HistQueueSeconds); h.Count() > 0 {
		// Guard the quantile before trusting it: a cold or degenerate
		// histogram must fall back, never emit Retry-After: 0 or NaN
		// (clients parse the header as an integer; a malformed value
		// disables their back-off entirely).
		if v := h.Quantile(q); !math.IsNaN(v) && !math.IsInf(v, 0) {
			secs = int64(math.Ceil(v))
		}
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.FormatInt(secs, 10)
}

// observeQueueWait records a queued request's slot wait into the
// aggregate (hint-driving) and per-tenant histogram families.
func (s *Server) observeQueueWait(tenant string, wait time.Duration) {
	secs := wait.Seconds()
	s.rec.Histogram(HistQueueSeconds).Observe(secs)
	s.rec.Histogram(HistTenantQueueSeconds, obs.Label{Key: "tenant", Value: tenant}).Observe(secs)
}
