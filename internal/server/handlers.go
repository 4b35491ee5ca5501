package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"mime"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cure"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/obs"
	"repro/internal/outlier"
	"repro/internal/shard"
	"repro/internal/stats"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /v1/datasets", s.handleRegisterDataset)
	s.mux.HandleFunc("POST /v1/datasets/{name}/append", s.compute("/v1/datasets/append", s.handleAppend(false)))
	s.mux.HandleFunc("POST /v1/streams/{name}/append", s.compute("/v1/streams/append", s.handleAppend(true)))
	s.mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleRemoveDataset)
	s.mux.HandleFunc("POST /v1/sample", s.compute("/v1/sample", s.handleSample))
	s.mux.HandleFunc("POST /v1/cluster", s.compute("/v1/cluster", s.handleCluster))
	s.mux.HandleFunc("POST /v1/outliers", s.compute("/v1/outliers", s.handleOutliers))
	s.mux.HandleFunc("POST "+shard.PathPartials, s.shardRPC(shard.PathPartials, s.handleShardPartials))
	obs.Mount(s.mux, s.rec)
}

// computeHandler is a pipeline endpoint: it runs under the admission
// controller with a per-request deadline context and a per-request
// Recorder, carried by the context too, whose counters are rolled into
// the server's afterwards.
type computeHandler func(ctx context.Context, rec *obs.Recorder, w http.ResponseWriter, r *http.Request)

// compute wraps a pipeline endpoint with admission control, the request
// deadline, request tracing, latency recording, and observability
// rollup. Cache state, timing, and the trace ID travel in headers only —
// response bodies stay a pure function of (dataset, params, seed), and
// tracing never consumes RNG state, so responses are bit-identical with
// tracing disabled, sampled, or always-on.
//
// Every outcome flows through observe and finishRequest: a shed request
// (429/503/504) gets a trace ID, lands in the route histogram, and is
// access-logged just like a success.
func (s *Server) compute(route string, fn computeHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.rec.Counter(CtrRequests).Inc()
		id := s.ids.Next()
		w.Header().Set(TraceHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		rec := s.requestRecorder(id)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Deadline)
		defer cancel()
		ctx = obs.NewContext(ctx, rec)
		tenant := r.Header.Get(TenantHeader)
		if tenant == "" {
			tenant = DefaultTenant
		}
		defer func() {
			s.observe(route, start)
			s.finishRequest(rec, route, tenant, sw, start)
		}()

		admStart := time.Now()
		release, queuedWait, err := s.adm.EnterTenant(ctx, tenant)
		if queuedWait {
			// Only real queue waits feed the histograms: a fast-path
			// admit says nothing about how long a shed client should
			// stand back.
			s.observeQueueWait(tenant, time.Since(admStart))
		}
		rec.Region("admission/wait", admStart, 0, "")
		if err != nil {
			switch {
			case errors.Is(err, ErrDraining):
				sw.Header().Set("Retry-After", s.retryAfterHint(0.99, 5))
				s.fail(sw, http.StatusServiceUnavailable, "draining")
			case errors.Is(err, ErrQueueExpired):
				// The deadline passed while queued: the server is too
				// slow for this client right now, not just momentarily
				// full — tell it (and load balancers) to back off by
				// the observed tail wait.
				sw.Header().Set("Retry-After", s.retryAfterHint(0.99, int64(s.cfg.Deadline/(2*time.Second))))
				s.fail(sw, http.StatusServiceUnavailable, "overloaded: deadline expired while queued")
			case errors.Is(err, ErrSaturated), errors.Is(err, ErrPreempted):
				// Shed by policy (queue full or preempted by a higher-
				// priority tenant): try the degrade ladder before
				// answering 429 with the observed median wait.
				if s.cfg.DegradeOK && route == "/v1/sample" && s.tryDegradeSample(rec, sw, r) {
					return
				}
				sw.Header().Set("Retry-After", s.retryAfterHint(0.50, 1))
				s.fail(sw, http.StatusTooManyRequests, "%v", err)
			default:
				s.fail(sw, http.StatusInternalServerError, "%v", err)
			}
			return
		}
		defer release()
		fn(ctx, rec, sw, r)
	}
}

// fail writes the JSON error envelope and counts it.
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.rec.Counter(CtrErrors).Inc()
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// pipelineFail maps a pipeline error onto a status: cancellation from
// the request deadline becomes 504, a transient failure that survived
// the retry budget becomes 503 + Retry-After (the server is healthy,
// the attempt was unlucky), everything else 422 (the request was
// well-formed but the pipeline rejected or could not finish it).
func (s *Server) pipelineFail(w http.ResponseWriter, err error) {
	if errors.Is(err, dataset.ErrCanceled) {
		s.fail(w, http.StatusGatewayTimeout, "deadline exceeded: %v", err)
		return
	}
	if isTransient(err) {
		w.Header().Set("Retry-After", s.retryAfterHint(0.50, 1))
		s.fail(w, http.StatusServiceUnavailable, "transient failure: %v", err)
		return
	}
	s.fail(w, http.StatusUnprocessableEntity, "%v", err)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<30))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// markCache reports hit/miss/disk in a header, never in the body:
// response bytes stay a pure function of (dataset, params, seed), and an
// artifact loaded from disk has exactly the bytes a fresh build has.
func markCache(w http.ResponseWriter, out Outcome) {
	w.Header().Set("X-DBS-Cache", out.String())
}

// hexFloat canonicalizes a float for cache keys: the exact bit pattern,
// so keys never depend on decimal formatting (0.1+0.2 and 0.3 differ).
func hexFloat(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}

// ---- health & registry endpoints ----

type healthResponse struct {
	Status        string                    `json:"status"`
	Datasets      int                       `json:"datasets"`
	InFlight      int64                     `json:"in_flight"`
	Queued        int64                     `json:"queued"`
	Shed          int64                     `json:"shed"`
	ShedQueueFull int64                     `json:"shed_queue_full"`
	ShedExpired   int64                     `json:"shed_expired"`
	ShedPreempted int64                     `json:"shed_preempted,omitempty"`
	Degraded      int64                     `json:"degraded,omitempty"`
	Cache         CacheStats                `json:"cache"`
	Disk          *DiskTierStats            `json:"disk,omitempty"`
	Tenants       []TenantStats             `json:"tenants,omitempty"`
	QueueWait     *LatencySummary           `json:"queue_wait,omitempty"`
	Latency       map[string]LatencySummary `json:"latency,omitempty"`
	// ShardLatency is the coordinator's downstream fan-out wait, keyed
	// by its one phase, "partials" — separate from Latency, whose route
	// digests fold everything a request did into one number, and from
	// the build-stage histogram, which sharded builds deliberately skip.
	ShardLatency map[string]LatencySummary `json:"shard_latency,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.rec.Counter(CtrRequests).Inc()
	resp := healthResponse{
		Status:        "ok",
		Datasets:      s.reg.Len(),
		InFlight:      s.adm.InFlight(),
		Queued:        s.adm.Queued(),
		Shed:          s.adm.Shed(),
		ShedQueueFull: s.adm.ShedQueueFull(),
		ShedExpired:   s.adm.ShedExpired(),
		ShedPreempted: s.adm.ShedPreempted(),
		Degraded:      s.rec.Counter(CtrDegraded).Value(),
		Cache:         s.cache.Stats(),
		Tenants:       s.adm.TenantStats(),
		Latency:       s.latencySummaries(),
		ShardLatency:  s.shardLatencySummaries(),
	}
	if s.disk != nil {
		st := s.disk.Stats()
		resp.Disk = &st
	}
	if h := s.rec.Histogram(HistQueueSeconds); h.Count() > 0 {
		resp.QueueWait = &LatencySummary{
			Count: int(h.Count()),
			P50ms: h.Quantile(0.50) * 1e3,
			P99ms: h.Quantile(0.99) * 1e3,
		}
	}
	code := http.StatusOK
	if s.adm.Draining() {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	s.rec.Counter(CtrRequests).Inc()
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.reg.List()})
}

type registerRequest struct {
	Name string `json:"name"`
	Path string `json:"path"`
}

func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	s.rec.Counter(CtrRequests).Inc()
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	switch ct {
	case "", "application/json":
		var req registerRequest
		if err := decodeJSON(r, &req); err != nil {
			s.fail(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
		if req.Path == "" {
			s.fail(w, http.StatusBadRequest, "missing path (or upload with Content-Type application/octet-stream or text/csv)")
			return
		}
		if err := s.reg.RegisterPath(req.Name, req.Path); err != nil {
			s.registerFail(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"name": req.Name, "source": "file"})
	case "application/octet-stream", "text/csv":
		name := r.URL.Query().Get("name")
		if name == "" {
			s.fail(w, http.StatusBadRequest, "uploads need a ?name= query parameter")
			return
		}
		ds, err := readUpload(w, r, ct)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "parsing upload: %v", err)
			return
		}
		if err := s.reg.RegisterDataset(name, ds); err != nil {
			s.registerFail(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{
			"name": name, "source": "upload", "dims": ds.Dims(), "points": ds.Len(),
		})
	default:
		s.fail(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q", ct)
	}
}

func (s *Server) registerFail(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ErrExists) {
		code = http.StatusConflict
	}
	s.fail(w, code, "%v", err)
}

// readUpload parses a DBS1 (application/octet-stream) or text/csv body,
// the upload formats registration and both append routes accept.
func readUpload(w http.ResponseWriter, r *http.Request, ct string) (*dataset.InMemory, error) {
	body := http.MaxBytesReader(w, r.Body, 1<<30)
	if ct == "text/csv" {
		return dataset.ReadCSV(body)
	}
	return dataset.ReadBinary(body)
}

// appendRequest is the JSON body of both append routes, which also accept
// the upload formats (readUpload).
type appendRequest struct {
	Points [][]float64 `json:"points"`
}

type appendResponse struct {
	Name        string `json:"name"`
	Generation  uint64 `json:"generation"`
	Points      int    `json:"points"`
	Added       int    `json:"added"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// decodeAppendBody parses a non-empty append payload in any of the
// formats.
func decodeAppendBody(w http.ResponseWriter, r *http.Request) ([]geom.Point, error) {
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	switch ct {
	case "", "application/json":
		var req appendRequest
		if err := decodeJSON(r, &req); err != nil {
			return nil, err
		}
		if len(req.Points) == 0 {
			return nil, errors.New("empty points")
		}
		pts := make([]geom.Point, len(req.Points))
		for i, row := range req.Points {
			pts[i] = geom.Point(row)
		}
		return pts, nil
	case "application/octet-stream", "text/csv":
		ds, err := readUpload(w, r, ct)
		if err != nil {
			return nil, err
		}
		return ds.Points(), nil
	default:
		return nil, fmt.Errorf("unsupported Content-Type %q", ct)
	}
}

// handleAppend grows a dataset by one generation, behind both append
// routes. On /v1/datasets/{name}/append the dataset must exist: its
// lookup (404) and appendability (409) come before the body (400), and
// the response carries the new generation's fingerprint. On
// /v1/streams/{name}/append (stream) the body comes first, a first batch
// creates the stream as its generation 0, and the response carries the
// window the server will compute over next. Either way the append is
// atomic with respect to concurrent requests: in-flight ones keep the
// generation they pinned at admission, later ones see (and cache-key by)
// the new generation.
func (s *Server) handleAppend(stream bool) computeHandler {
	spanName := "server/append"
	if stream {
		spanName = "server/stream_append"
	}
	return func(ctx context.Context, rec *obs.Recorder, w http.ResponseWriter, r *http.Request) {
		span := rec.StartSpan(spanName)
		defer span.End()
		name := r.PathValue("name")
		var pts []geom.Point
		var err error
		if stream {
			if pts, err = decodeAppendBody(w, r); err != nil {
				s.fail(w, http.StatusBadRequest, "parsing append body: %v", err)
				return
			}
		}
		h, err := s.acquireTraced(rec, name)
		created := false
		if stream && errors.Is(err, ErrNotFound) {
			// First batch: register it as generation 0 of a fresh stream.
			ds, derr := dataset.NewInMemory(pts)
			if derr != nil {
				s.fail(w, http.StatusBadRequest, "invalid points: %v", derr)
				return
			}
			rerr := s.reg.RegisterStream(name, ds, s.nowFn())
			if rerr != nil && !errors.Is(rerr, ErrExists) {
				s.registerFail(w, rerr)
				return
			}
			// Losing a concurrent create race leaves a plain append.
			created = rerr == nil
			h, err = s.acquireTraced(rec, name)
		}
		if err != nil {
			s.acquireFail(w, err)
			return
		}
		defer h.Release()
		app := h.Appendable()
		if app == nil {
			s.fail(w, http.StatusConflict, "dataset %q is not appendable", name)
			return
		}
		if !stream {
			if pts, err = decodeAppendBody(w, r); err != nil {
				s.fail(w, http.StatusBadRequest, "parsing append body: %v", err)
				return
			}
		}
		gen := uint64(0)
		if !created {
			err = s.runStage(ctx, rec, "server/append", stats.FNV1a(name), func(context.Context) error {
				// Append either fully applies or fully rolls back (both
				// backing types guarantee it), so a retry after an injected
				// fault never double-appends: the fault fires before the
				// append runs.
				return app.Append(pts...)
			})
			if err != nil {
				s.pipelineFail(w, err)
				return
			}
			gen = app.Generation()
			h.MarkAppend(gen, s.nowFn(), stream)
		}
		resp := appendResponse{Name: name, Generation: gen, Points: app.GenLen(gen), Added: len(pts)}
		if !stream {
			// One pass over the delta: the fingerprint memo extends its
			// digest state instead of rehashing the prefix.
			fp, ferr := h.FingerprintAt(gen)
			if ferr != nil {
				s.pipelineFail(w, ferr)
				return
			}
			resp.Fingerprint = fmt.Sprintf("%016x", fp)
		}
		span.AddPoints(int64(len(pts)))
		rec.Counter(obs.CtrAppends).Inc()
		rec.Counter(obs.CtrAppendPoints).Add(int64(len(pts)))
		if stream {
			start := s.windowStart(h, gen)
			writeJSON(w, http.StatusOK, streamAppendResponse{resp, start, resp.Points - start})
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleRemoveDataset(w http.ResponseWriter, r *http.Request) {
	s.rec.Counter(CtrRequests).Inc()
	if err := s.reg.Remove(r.PathValue("name")); err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- pipeline endpoints ----

// estParams is the canonical estimator identity inside cache keys.
type estParams struct {
	Kernels int    `json:"kernels"`
	Kernel  string `json:"kernel"`
	Seed    uint64 `json:"seed"`
}

func (p *estParams) normalize() error {
	if p.Kernels == 0 {
		p.Kernels = kde.DefaultNumKernels
	}
	if p.Kernels < 1 {
		return errors.New("kernels must be positive")
	}
	if p.Kernel == "" {
		p.Kernel = "epanechnikov"
	}
	if kde.KernelByName(p.Kernel) == nil {
		return fmt.Errorf("unknown kernel %q", p.Kernel)
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return nil
}

func (p estParams) key(fp uint64) string {
	return fmt.Sprintf("est|fp=%016x|ks=%d|kern=%s|seed=%d", fp, p.Kernels, p.Kernel, p.Seed)
}

// seedStreams derives the per-stage RNGs from the request seed. Each stage
// owns an independent stream, so a cache hit at the estimator layer leaves
// the draw's randomness — and therefore the response bytes — unchanged.
func seedStreams(seed uint64) (estRNG, drawRNG *stats.RNG) {
	st := stats.NewRNG(seed).Splits(2)
	return st[0], st[1]
}

// lineage is the cache-key suffix of generation g's artifacts. It is
// empty when g builds exactly — a full build over the generation's view,
// which depends on the rows alone — and otherwise names the append
// history an extension of generation g-1 also depends on: the last exact
// generation and a hash of every generation length from it to g. So an
// extended artifact never answers a lookup for an exact build of the
// same rows, on this replica or on one sharing its disk tier. The
// decision is core.RebuildSchedule over the generation lengths — a pure
// function of (lengths, DriftTol), so every replica, and a replica
// restarted mid-lineage, schedules the same way. With DriftTol ≤ 0 (the
// default) everything is exact and incremental builds never run.
func (s *Server) lineage(h *Handle, g uint64) string {
	if h.Windowed() {
		// A windowed generation's rows are not a superset of the prior
		// generation's (eviction dropped the front), so the extend path
		// does not apply; windows always build exactly — which is what
		// makes a windowed response byte-identical to the same rows
		// registered fresh.
		return ""
	}
	if g == 0 || h.Appendable() == nil || s.cfg.DriftTol <= 0 {
		return ""
	}
	counts := make([]int, g+1)
	for j := range counts {
		counts[j] = h.GenLen(uint64(j))
	}
	exact := core.RebuildSchedule(counts, s.cfg.DriftTol)
	if exact[g] {
		return ""
	}
	e := g
	for !exact[e] {
		e--
	}
	sum := fnv.New64a()
	for _, c := range counts[e:] {
		fmt.Fprintf(sum, "%d,", c)
	}
	return fmt.Sprintf("|lineage=%d:%016x", e, sum.Sum64())
}

// genSeed decorrelates an incremental stage's randomness from the base
// builds and from other generations; stages re-derive it per retry
// attempt, so a retried stage reproduces its result exactly.
func genSeed(seed, g uint64, stage string) uint64 {
	return seed ^ stats.FNV1a(fmt.Sprintf("gen/%d/%s", g, stage))
}

// artifact runs one artifact lookup through the cache tiers — memory,
// then disk, then build — or, with a nil build, the degrade ladder's peek
// (memory or disk, never a build; nothing found returns a nil value). It
// logs the lookup as one region of the request's trace, spanning any
// singleflight wait or the build itself and noting the outcome — a hit's
// trace shows this region and no scan spans at all. The cache counts the
// lookup into the server's Recorder itself.
func (s *Server) artifact(rec *obs.Recorder, event, key string, g uint64, build func() (any, int64, error)) (any, Outcome, error) {
	t0 := time.Now()
	var v any
	var out Outcome
	var err error
	if build == nil {
		v, out, _ = s.cache.Peek(key)
	} else {
		v, out, err = s.cache.GetOrBuild(key, build)
	}
	rec.Region(event, t0, 0, "%s gen=%d", out, g)
	return v, out, err
}

// estimatorAt returns the KDE estimator for (generation g of the dataset,
// params, seed), keyed by the generation's content fingerprint and lin,
// the generation's lineage suffix, so superseded generations age out of
// the LRU while requests that pinned them still hit. A miss runs one
// build step. With an empty lin it is an exact kde.Build over g's view,
// whose RNG derivation matches a non-generational build, so the artifact
// (and its key) is bit-identical to what a server that saw the same
// points registered whole would build; the shard worker always passes an
// empty lin, because it must derive the estimator from the generation's
// content alone, not from the coordinator's append lineage. Otherwise it
// extends generation g-1's estimator (obtained recursively) over the
// delta alone: kde.Estimator.ExtendDelta, one pass over the delta and
// none over the prior prefix. The estimator holds no Recorder: a build
// counts into rec, the building request's, and every later density
// evaluation into the Recorder of the call that makes it.
func (s *Server) estimatorAt(ctx context.Context, rec *obs.Recorder, h *Handle, p estParams, g uint64, lin string) (*kde.Estimator, Outcome, error) {
	fp, err := h.FingerprintAt(g)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	v, out, err := s.artifact(rec, "cache/est", p.key(fp)+lin, g, func() (any, int64, error) {
		stage := "server/build/est"
		var prior *kde.Estimator
		var rows dataset.Dataset
		var err error
		if lin == "" {
			rows, err = h.ViewAt(g)
		} else if prior, _, err = s.estimatorAt(ctx, rec, h, p, g-1, s.lineage(h, g-1)); err == nil {
			stage = "server/build/est_delta"
			rows, err = h.DeltaAt(g)
		}
		if err != nil {
			return nil, 0, err
		}
		var est *kde.Estimator
		err = s.runStage(ctx, rec, stage, p.Seed, func(sctx context.Context) error {
			rec.Counter(CtrKDEBuilds).Inc()
			// The RNG stream is re-derived per attempt, so a retried
			// build produces the identical estimator.
			var err error
			if prior != nil {
				if est, err = prior.ExtendDelta(rows, stats.NewRNG(genSeed(p.Seed, g, "est"))); err == nil {
					rec.Counter(obs.CtrKDEExtends).Inc()
				}
				return err
			}
			estRNG, _ := seedStreams(p.Seed)
			est, err = kde.Build(rows, kde.Options{
				NumKernels: p.Kernels,
				Kernel:     kde.KernelByName(p.Kernel),
				Ctx:        sctx,
				Obs:        rec,
			}, estRNG)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		return est, estimatorBytes(est), nil
	})
	if err != nil {
		return nil, out, err
	}
	return v.(*kde.Estimator), out, nil
}

// estimatorBytes approximates an estimator's resident size for the cache
// accounting: centers, bandwidth vectors, kd-tree nodes, and scales.
func estimatorBytes(est *kde.Estimator) int64 {
	ks, d := int64(est.NumKernels()), int64(est.Dims())
	return ks*d*8 + ks*48 + d*16 + 512
}

// densPrefix opens the cache key of an estimator's stored densities; the
// estimator's own key, lineage suffix included, follows it.
const densPrefix = "dens|"

// densitiesAt returns f at every row of view, generation g's rows, as est
// evaluates it: the artifact cached under densPrefix plus estKey and
// charged 8 bytes a row. A miss fills it with one block-ordered
// DensityBatch pass under its own stage. It returns nil, and builds
// nothing, when the rows are not memory-resident or 8 bytes a row exceed
// the cache budget; the draw then evaluates f itself. The artifact stays
// in memory: the disk tier holds only estimators and samples.
func (s *Server) densitiesAt(ctx context.Context, rec *obs.Recorder, view dataset.Dataset, est *kde.Estimator, estKey string, g, seed uint64) ([]float64, error) {
	n := view.Len()
	size := int64(n) * 8
	if !dataset.Resident(view) || size > s.cfg.CacheBytes {
		return nil, nil
	}
	v, _, err := s.artifact(rec, "cache/dens", densPrefix+estKey, g, func() (any, int64, error) {
		dens := make([]float64, n)
		err := s.runStage(ctx, rec, "server/build/dens", seed, func(sctx context.Context) error {
			return dataset.ScanBlocks(view, dataset.ScanConfig{Parallelism: s.cfg.Parallelism, Ctx: sctx, Rec: rec}, func(_, start int, pts []geom.Point) error {
				est.DensityBatch(pts, dens[start:start+len(pts)], rec)
				return nil
			})
		})
		if err != nil {
			return nil, 0, err
		}
		return dens, size, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]float64), nil
}

// sampleBytes is a sample artifact's accounted size: its points (the
// coordinates and a WeightedPoint header each) and the bound on the body
// tail it stores (sampleTailBound), charged whether or not the tail has
// been encoded yet.
func sampleBytes(sm *core.Sample) int64 {
	coords := 0
	for _, wp := range sm.Points {
		coords += len(wp.P)
	}
	return int64(coords*8+len(sm.Points)*56+256) + sampleTailBound(len(sm.Points), coords)
}

type sampleRequest struct {
	Dataset string  `json:"dataset"`
	Alpha   float64 `json:"alpha"`
	Size    int     `json:"size"`
	OnePass bool    `json:"one_pass,omitempty"`
	Kernels int     `json:"kernels,omitempty"`
	Kernel  string  `json:"kernel,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
}

func (q *sampleRequest) normalize() (estParams, error) {
	if q.Dataset == "" {
		return estParams{}, errors.New("missing dataset")
	}
	if q.Size <= 0 {
		return estParams{}, errors.New("size must be positive")
	}
	p := estParams{Kernels: q.Kernels, Kernel: q.Kernel, Seed: q.Seed}
	if err := p.normalize(); err != nil {
		return estParams{}, err
	}
	q.Kernels, q.Kernel, q.Seed = p.Kernels, p.Kernel, p.Seed
	return p, nil
}

// sampleKeyVersion names the coin rule a sample's bytes were drawn by.
// Under "v2" every point consumes one variate even where its probability
// clips at 1 or underflows to 0; a sample drawn by the earlier rule,
// such as a DBSS1 file an older server left in a disk tier, has another
// key and loads as a miss instead of disagreeing with a fresh draw.
const sampleKeyVersion = "v2"

func (q sampleRequest) key(fp uint64, p estParams) string {
	return fmt.Sprintf("smp|%s|%s|alpha=%s|b=%d|onepass=%t",
		sampleKeyVersion, p.key(fp), hexFloat(q.Alpha), q.Size, q.OnePass)
}

// sampleArtifact is what the sample cache stores: the sample plus the
// normalizer bookkeeping (core.NormState) a later generation needs to
// extend it incrementally, and the success body after the dataset name,
// encoded once on first use (tail).
type sampleArtifact struct {
	s  *core.Sample
	ns core.NormState

	once    sync.Once
	body    []byte
	bodyErr error
}

// tail returns the artifact's /v1/sample body after `{"dataset":<name>`,
// encoding it on the first call. The cache key fixes alpha and the
// fingerprint, so every caller passes the same pair and one encoding
// serves every miss, hit, disk load and degraded answer.
func (a *sampleArtifact) tail(alpha float64, fp uint64) ([]byte, error) {
	a.once.Do(func() { a.body, a.bodyErr = sampleTail(alpha, fp, a.s) })
	return a.body, a.bodyErr
}

// sampleLineage is the lineage suffix of generation g's sample key for q,
// and whether the shard coordinator builds the sample. Sharded builds
// are always exact, so they keep the bare key; every other build, a
// OnePass draw over an extended estimator included, carries g's lineage.
// OnePass stays local, having no exact normalizer to merge, and so do
// windowed handles, whose rows the shard executor would not see. Both
// the build and the degrade peek derive the sample key here.
func (s *Server) sampleLineage(h *Handle, q sampleRequest, g uint64) (lin string, sharded bool) {
	if s.coord != nil && !q.OnePass && !h.Windowed() {
		return "", true
	}
	return s.lineage(h, g), false
}

// sampleAt returns the sample artifact for generation g, keyed by the
// generation's content fingerprint and its lineage (sampleLineage); a
// hit runs no dataset pass at all. A miss runs one build step. A sharded
// build hands the fingerprint to the scatter-gather, which is
// bit-identical to the exact local build and so shares its key. Every
// other build draws over g's estimator under one stage: the full
// two-pass core.Draw, with the same RNG derivation as a non-generational
// build, or — where g's lineage says extend and the request is not
// OnePass, which has no exact normalizer to carry — core.ExtendDraw,
// which thins generation g-1's artifact (obtained recursively) and
// coin-flips the delta against the updated normalizer: passes over the
// delta only, O(|delta|) regardless of the dataset size.
//
// The paper sweeps the exponent over one estimator, and f does not
// depend on it. So a core.Draw whose estimator was already cached reads
// f from the estimator's stored densities (densitiesAt), built by the
// first such draw. A draw whose estimator was just built keeps none:
// every cold request would pay 8 bytes a row for densities no later
// request reads. An exact draw at a = 0 needs neither: every weight is
// 1 and k_0 = n, so it looks up no estimator and records the kernel
// count one would hold, kde.Build's min(kernels, n), as the sharded
// build does.
func (s *Server) sampleAt(ctx context.Context, rec *obs.Recorder, h *Handle, q sampleRequest, p estParams, g uint64) (*sampleArtifact, Outcome, error) {
	fp, err := h.FingerprintAt(g)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	lin, sharded := s.sampleLineage(h, q, g)
	v, out, err := s.artifact(rec, "cache/sample", q.key(fp, p)+lin, g, func() (any, int64, error) {
		if sharded {
			return s.buildSampleSharded(ctx, rec, h, q, p, g, fp)
		}
		stage := "server/build/sample"
		var prior *sampleArtifact
		var err error
		if lin != "" && !q.OnePass {
			stage = "server/build/sample_delta"
			if prior, _, err = s.sampleAt(ctx, rec, h, q, p, g-1); err != nil {
				return nil, 0, err
			}
		}
		view, err := h.ViewAt(g)
		if err != nil {
			return nil, 0, err
		}
		var est core.DensityEstimator
		var dens []float64
		kernels := min(p.Kernels, view.Len())
		if q.Alpha != 0 || q.OnePass || prior != nil {
			kest, estOut, err := s.estimatorAt(ctx, rec, h, p, g, lin)
			if err != nil {
				return nil, 0, err
			}
			est, kernels = kest, kest.NumKernels()
			if q.Alpha != 0 && prior == nil && estOut != OutcomeMiss {
				if dens, err = s.densitiesAt(ctx, rec, view, kest, p.key(fp)+lin, g, p.Seed); err != nil {
					return nil, 0, err
				}
			}
		}
		// The estimator and density stages retry internally, so only the
		// draw runs under this stage's retry budget — no multiplicative
		// retries.
		var sm *core.Sample
		var ns core.NormState
		err = s.runStage(ctx, rec, stage, p.Seed, func(sctx context.Context) error {
			opts := core.Options{
				Alpha:       q.Alpha,
				TargetSize:  q.Size,
				Densities:   dens,
				OnePass:     q.OnePass,
				Parallelism: s.cfg.Parallelism,
				Ctx:         sctx,
				Obs:         rec,
			}
			var err error
			if prior != nil {
				sm, ns, err = core.ExtendDraw(view, est, core.ExtendOptions{
					Options:    opts,
					DeltaStart: h.GenLen(g - 1),
					Prior:      prior.s,
					PriorNorm:  prior.ns,
				}, stats.NewRNG(genSeed(p.Seed, g, "draw")))
				return err
			}
			_, drawRNG := seedStreams(p.Seed)
			if sm, err = core.Draw(view, est, opts, drawRNG); err == nil {
				ns = core.NormState{K: sm.Norm, N: view.Len(), Kernels: kernels}
			}
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		return &sampleArtifact{s: sm, ns: ns}, sampleBytes(sm), nil
	})
	if err != nil {
		return nil, out, err
	}
	return v.(*sampleArtifact), out, nil
}

func (s *Server) handleSample(ctx context.Context, rec *obs.Recorder, w http.ResponseWriter, r *http.Request) {
	var req sampleRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	p, err := req.normalize()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	h, err := s.acquireTraced(rec, req.Dataset)
	if err != nil {
		s.acquireFail(w, err)
		return
	}
	defer h.Release()

	art, out, err := s.sampleAt(ctx, rec, h, req, p, h.Generation())
	if err != nil {
		// Second rung of the degrade ladder: a transient pipeline
		// failure (injected fault, flaky scan) on a request whose a=0
		// artifact is resident answers degraded instead of 503 — the
		// cached rung needs no dataset pass, so serving it cannot
		// retrigger the fault that broke the build.
		if s.cfg.DegradeOK && isTransient(err) && s.degradeSample(rec, w, req, p, h) {
			return
		}
		s.pipelineFail(w, err)
		return
	}
	fp, _ := h.Fingerprint()
	markCache(w, out)
	writeSampleResponse(w, req.Dataset, art, req.Alpha, fp)
}

var sampleBodyHead = []byte(`{"dataset":`)

// writeSampleResponse writes the /v1/sample success body, a pure function
// of (dataset name, alpha, fingerprint, sample): `{"dataset":`, the
// JSON-quoted name, then the artifact's stored tail. It is the one write
// path of every miss, memory hit, disk load and degrade-ladder answer, so
// a degraded response is byte-identical to an ordinary a=0 response and a
// hit formats no float.
func writeSampleResponse(w http.ResponseWriter, name string, art *sampleArtifact, alpha float64, fp uint64) {
	tail, err := art.tail(alpha, fp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	quoted, _ := json.Marshal(name) // a string always marshals
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sampleBodyHead)
	w.Write(quoted)
	w.Write(tail)
}

// The most bytes encoding/json writes for one float64 and one int:
// "-0.0000012345678901234567" (17 digits in fixed notation, just above
// 1e-6) and "-9223372036854775808".
const (
	maxJSONFloat = 25
	maxJSONInt   = 20
)

// sampleTailBound is the most bytes sampleTail writes for n points with
// coords coordinates in all: the fixed keys, two floats and three ints,
// then per point its keys, weight and coordinates, each with its
// separator (a nil point's "null" fits within its brackets' bound).
func sampleTailBound(n, coords int) int64 {
	head := len(`,"fingerprint":"0123456789abcdef","alpha":,"norm":,"data_passes":,"saturated":,"count":,"points":[]}`+"\n") +
		2*maxJSONFloat + 3*maxJSONInt
	point := len(`{"p":null,"w":},`) + maxJSONFloat
	return int64(head + n*point + coords*(maxJSONFloat+1))
}

// tailScratch recycles sampleTail's encoding buffers, so each tail is
// allocated once, at its own length rather than at its bound.
var tailScratch = sync.Pool{New: func() any { return new([]byte) }}

// sampleTail encodes the /v1/sample success body after its dataset name:
// exactly the bytes json.Marshal writes for the rest of the response
// object, then the newline writeJSON appends. A non-finite value fails
// with the error json.Marshal reports for the first one in field order.
func sampleTail(alpha float64, fp uint64, sm *core.Sample) ([]byte, error) {
	coords := 0
	for _, wp := range sm.Points {
		coords += len(wp.P)
	}
	sc := tailScratch.Get().(*[]byte)
	defer tailScratch.Put(sc)
	b := slices.Grow((*sc)[:0], int(sampleTailBound(len(sm.Points), coords)))
	var err error
	float := func(f float64) {
		if err == nil {
			b, err = appendJSONFloat(b, f)
		}
	}
	b = append(b, `,"fingerprint":"`...)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[fp>>shift&0xf])
	}
	b = append(b, `","alpha":`...)
	float(alpha)
	b = append(b, `,"norm":`...)
	float(sm.Norm)
	b = append(b, `,"data_passes":`...)
	b = strconv.AppendInt(b, int64(sm.DataPasses), 10)
	b = append(b, `,"saturated":`...)
	b = strconv.AppendInt(b, int64(sm.Saturated), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(len(sm.Points)), 10)
	b = append(b, `,"points":[`...)
	for i, wp := range sm.Points {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"p":`...)
		if wp.P == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for j, v := range wp.P {
				if j > 0 {
					b = append(b, ',')
				}
				float(v)
			}
			b = append(b, ']')
		}
		b = append(b, `,"w":`...)
		float(wp.W)
		b = append(b, '}')
	}
	b = append(b, "]}\n"...)
	*sc = b
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest decimal that round-trips, in fixed notation from 1e-6 up to
// 1e21 and in exponent notation outside it, with the exponent's leading
// zero dropped ("1e-7", "1e+21").
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// tryDegradeSample is the overload degrade ladder: a /v1/sample shed by
// admission is answered from the cached a=0 artifact for the same
// (dataset, size, kernels, kernel, seed, one_pass) when one is resident
// in memory or on disk. Jang & Jiang's DBSCAN++ subsampling is exactly
// the a=0 special case of the paper's scheme, so the degraded answer is
// a coarser-but-sound sample, not a different kind of result. The
// response carries DegradedHeader (when the request wanted a ≠ 0) and
// is byte-identical to what an ordinary a=0 request returns — the
// degrade ladder changes availability, never bytes.
//
// It reports whether a degraded response was served; on false the
// caller falls through to the 429. Only cached artifacts qualify: the
// peek path runs no build, no dataset pass, and needs no admission
// slot, so serving it cannot deepen the overload being shed.
func (s *Server) tryDegradeSample(rec *obs.Recorder, w http.ResponseWriter, r *http.Request) bool {
	var req sampleRequest
	if err := decodeJSON(r, &req); err != nil {
		return false
	}
	p, err := req.normalize()
	if err != nil {
		return false
	}
	h, err := s.acquireTraced(rec, req.Dataset)
	if err != nil {
		return false
	}
	defer h.Release()
	return s.degradeSample(rec, w, req, p, h)
}

// degradeSample serves the cached a=0 rung for req's identity through an
// already-held dataset handle; it reports false (nothing written) when
// no rung is resident in memory or on disk.
func (s *Server) degradeSample(rec *obs.Recorder, w http.ResponseWriter, req sampleRequest, p estParams, h *Handle) bool {
	g := h.Generation()
	fp, err := h.FingerprintAt(g)
	if err != nil {
		return false
	}
	a0 := req
	a0.Alpha = 0
	lin, _ := s.sampleLineage(h, a0, g)
	v, out, _ := s.artifact(rec, "cache/sample", a0.key(fp, p)+lin, g, nil)
	if v == nil {
		return false
	}
	s.rec.Counter(CtrDegraded).Inc()
	if req.Alpha != 0 {
		w.Header().Set(DegradedHeader, "a0")
	}
	markCache(w, out)
	writeSampleResponse(w, req.Dataset, v.(*sampleArtifact), 0, fp)
	return true
}

// acquireTraced is reg.Acquire with the lookup logged as a region of the
// request's trace (the registry acquire leg of its span tree).
func (s *Server) acquireTraced(rec *obs.Recorder, name string) (*Handle, error) {
	t0 := time.Now()
	h, err := s.reg.Acquire(name)
	failed := ""
	if err != nil {
		failed = " error"
	}
	rec.Region("registry/acquire", t0, 0, "dataset=%s%s", name, failed)
	if err == nil {
		// Stream datasets compute over their sliding window: the handle
		// resolves it once here and every downstream view, fingerprint,
		// and cache key covers exactly the window's rows. Append paths
		// are unaffected — the window binds to the pinned generation
		// only, and appends create a later one.
		if werr := s.applyWindow(h); werr != nil {
			h.Release()
			return nil, werr
		}
		traceWindow(rec, h)
	}
	return h, err
}

func (s *Server) acquireFail(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrNotFound) {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	s.fail(w, http.StatusUnprocessableEntity, "%v", err)
}

type clusterRequest struct {
	Dataset   string  `json:"dataset"`
	K         int     `json:"k"`
	Alpha     float64 `json:"alpha"`
	Size      int     `json:"size"`
	OnePass   bool    `json:"one_pass,omitempty"`
	Kernels   int     `json:"kernels,omitempty"`
	Kernel    string  `json:"kernel,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	NumReps   int     `json:"num_reps,omitempty"`
	Shrink    float64 `json:"shrink,omitempty"`
	NoiseTrim bool    `json:"noise_trim,omitempty"`
}

type clusterInfo struct {
	Size int          `json:"size"`
	Mean geom.Point   `json:"mean"`
	Reps []geom.Point `json:"reps"`
}

type clusterResponse struct {
	Dataset     string        `json:"dataset"`
	Fingerprint string        `json:"fingerprint"`
	K           int           `json:"k"`
	SampleSize  int           `json:"sample_size"`
	Clusters    []clusterInfo `json:"clusters"`
}

func (s *Server) handleCluster(ctx context.Context, rec *obs.Recorder, w http.ResponseWriter, r *http.Request) {
	var req clusterRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.K <= 0 {
		s.fail(w, http.StatusBadRequest, "k must be positive")
		return
	}
	sq := sampleRequest{Dataset: req.Dataset, Alpha: req.Alpha, Size: req.Size,
		OnePass: req.OnePass, Kernels: req.Kernels, Kernel: req.Kernel, Seed: req.Seed}
	p, err := sq.normalize()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	h, err := s.acquireTraced(rec, req.Dataset)
	if err != nil {
		s.acquireFail(w, err)
		return
	}
	defer h.Release()

	// The sample artifact is shared with /v1/sample: a prior sample
	// request (same params, seed) warms this endpoint and vice versa.
	art, out, err := s.sampleAt(ctx, rec, h, sq, p, h.Generation())
	if err != nil {
		s.pipelineFail(w, err)
		return
	}
	pts := art.s.PlainPoints()
	opts := cure.Options{
		K: req.K, NumReps: req.NumReps, Shrink: req.Shrink,
		Parallelism: s.cfg.Parallelism, Ctx: ctx, Obs: rec,
	}
	if req.NoiseTrim {
		opts.TrimAt, opts.TrimMinSize, opts.FinalTrimAt, opts.FinalTrimMinSize =
			cure.NoiseTrimSizing(len(pts), req.K, 500)
	}
	clusters, err := cure.Run(pts, opts)
	if err != nil {
		s.pipelineFail(w, err)
		return
	}
	fp, _ := h.Fingerprint()
	infos := make([]clusterInfo, len(clusters))
	for i, c := range clusters {
		infos[i] = clusterInfo{Size: c.Size(), Mean: c.Mean, Reps: c.Reps}
	}
	markCache(w, out)
	writeJSON(w, http.StatusOK, clusterResponse{
		Dataset:     req.Dataset,
		Fingerprint: fmt.Sprintf("%016x", fp),
		K:           req.K,
		SampleSize:  len(pts),
		Clusters:    infos,
	})
}

type outlierRequest struct {
	Dataset string  `json:"dataset"`
	Radius  float64 `json:"radius"`
	P       int     `json:"p"`
	Frac    float64 `json:"frac,omitempty"`
	Method  string  `json:"method,omitempty"` // approx (default) | estimate
	Factor  float64 `json:"factor,omitempty"`
	Kernels int     `json:"kernels,omitempty"`
	Kernel  string  `json:"kernel,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
}

type outlierResponse struct {
	Dataset     string       `json:"dataset"`
	Fingerprint string       `json:"fingerprint"`
	Method      string       `json:"method"`
	Radius      float64      `json:"radius"`
	P           int          `json:"p"`
	Count       int          `json:"count"`
	Candidates  int          `json:"candidates,omitempty"`
	DataPasses  int          `json:"data_passes,omitempty"`
	Outliers    []geom.Point `json:"outliers,omitempty"`
}

func (s *Server) handleOutliers(ctx context.Context, rec *obs.Recorder, w http.ResponseWriter, r *http.Request) {
	var req outlierRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Method == "" {
		req.Method = "approx"
	}
	if req.Method != "approx" && req.Method != "estimate" {
		s.fail(w, http.StatusBadRequest, "unknown method %q (approx|estimate)", req.Method)
		return
	}
	if req.Dataset == "" {
		s.fail(w, http.StatusBadRequest, "missing dataset")
		return
	}
	p := estParams{Kernels: req.Kernels, Kernel: req.Kernel, Seed: req.Seed}
	if err := p.normalize(); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	h, err := s.acquireTraced(rec, req.Dataset)
	if err != nil {
		s.acquireFail(w, err)
		return
	}
	defer h.Release()

	prm := outlier.Params{K: req.Radius, P: req.P}
	if req.Frac > 0 {
		prm = outlier.FromFraction(req.Radius, req.Frac, h.Dataset().Len())
	}
	prm.Parallelism = s.cfg.Parallelism
	prm.Ctx = ctx
	prm.Obs = rec

	g := h.Generation()
	est, out, err := s.estimatorAt(ctx, rec, h, p, g, s.lineage(h, g))
	if err != nil {
		s.pipelineFail(w, err)
		return
	}
	fp, _ := h.Fingerprint()
	resp := outlierResponse{
		Dataset:     req.Dataset,
		Fingerprint: fmt.Sprintf("%016x", fp),
		Method:      req.Method,
		Radius:      prm.K,
		P:           prm.P,
	}
	switch req.Method {
	case "approx":
		res, aerr := outlier.Approximate(h.Dataset(), est, prm, outlier.ApproxOptions{CandidateFactor: req.Factor})
		if aerr != nil {
			s.pipelineFail(w, aerr)
			return
		}
		resp.Count = len(res.Outliers)
		resp.Candidates = res.NumCandidates
		resp.DataPasses = res.DataPasses
		resp.Outliers = res.Outliers
	case "estimate":
		n, eerr := outlier.EstimateCount(h.Dataset(), est, prm)
		if eerr != nil {
			s.pipelineFail(w, eerr)
			return
		}
		resp.Count = n
	}
	markCache(w, out)
	writeJSON(w, http.StatusOK, resp)
}
