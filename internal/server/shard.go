package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/shard"
)

// This file is the serving layer's two halves of the sharded protocol:
// the worker side (shardExecutor + the /internal/shard RPC handler,
// mounted on every server so any dbsserve can serve as a shard worker)
// and the coordinator side (buildSampleSharded, sampleAt's build step for
// exact draws when ShardWorkers/ShardPeers are configured).
//
// The parity contract: a sharded /v1/sample response is byte-identical
// to the single-node response for the same request, at every shard
// count, worker count, replica count, and with hedging on or off. It
// rests on four locally-checkable facts: (1) workers build the estimator
// from (fingerprint-verified view, params, seed) exactly as estimatorAt's
// exact build does, so every worker holds the identical estimator and
// derives the identical density floor (at a = 0, where no weight reads
// f, none builds one, as the local build does not); (2) the per-block
// partial k_a sums come from core's block engine (core.ProposeBlocks
// weighs with its weigh step) and are folded in global block order by
// core.FoldNorm, the fold the single-node draw uses; (3) each block's
// coins come from the stream derived from (base, block index), one
// variate per point, and core.ResolveBlocks decides every block from the
// worker's candidates by flipCoins's rule; (4) selections are
// concatenated in global block order. Sharded builds are always exact —
// DriftTol's incremental extends never run here, because an extended
// artifact depends on append lineage a stateless worker does not share.

// shardExecutor implements shard.Executor over the server's registry and
// artifact cache — the compute surface behind both the in-process worker
// mode and the /internal/shard HTTP endpoints.
type shardExecutor struct {
	s *Server
}

// resolve maps request params onto this server's local state: a
// generation-pinned view whose content fingerprint matches the request
// (the guard that turns dataset divergence between replicas into a loud
// error instead of a silently wrong merge), the exactly-built estimator
// for the params, and the draw options mirroring the local build's. At
// a = 0 no weight reads f, so, as in the local build, no estimator is
// looked up and the returned one is nil. The work records into the
// Recorder ctx carries: the coordinator request's for an in-process
// worker, the RPC's own behind /internal/shard.
func (e *shardExecutor) resolve(ctx context.Context, p shard.Params) (dataset.Dataset, core.DensityEstimator, core.Options, func(), error) {
	s := e.s
	rec := obs.FromContext(ctx)
	fail := func(err error) (dataset.Dataset, core.DensityEstimator, core.Options, func(), error) {
		return nil, nil, core.Options{}, nil, err
	}
	h, err := s.reg.Acquire(p.Dataset)
	if err != nil {
		return fail(err)
	}
	fp, err := h.FingerprintAt(p.Generation)
	if err != nil {
		h.Release()
		return fail(fmt.Errorf("shard worker: generation %d of %q: %w", p.Generation, p.Dataset, err))
	}
	if have := fmt.Sprintf("%016x", fp); have != p.Fingerprint {
		h.Release()
		return fail(fmt.Errorf("shard worker: fingerprint mismatch for %q gen %d: have %s, coordinator wants %s",
			p.Dataset, p.Generation, have, p.Fingerprint))
	}
	ep := estParams{Kernels: p.Kernels, Kernel: p.Kernel, Seed: p.Seed}
	if err := ep.normalize(); err != nil {
		h.Release()
		return fail(err)
	}
	view, err := h.ViewAt(p.Generation)
	if err != nil {
		h.Release()
		return fail(err)
	}
	var est core.DensityEstimator
	if p.Alpha != 0 {
		kest, _, err := s.estimatorAt(ctx, rec, h, ep, p.Generation, "")
		if err != nil {
			h.Release()
			return fail(err)
		}
		est = kest
	}
	opts := core.Options{
		Alpha:       p.Alpha,
		TargetSize:  p.Size,
		Parallelism: s.cfg.Parallelism,
		Obs:         rec,
		Ctx:         ctx,
	}
	return view, est, opts, h.Release, nil
}

// Partials implements shard.Executor: the one round of the exact draw,
// each block's partial k_a and coin candidates (core.ProposeBlocks).
func (e *shardExecutor) Partials(ctx context.Context, req *shard.PartialsRequest) (*shard.PartialsResponse, error) {
	if err := e.checkIdentity(req.Shard); err != nil {
		return nil, err
	}
	view, est, opts, release, err := e.resolve(ctx, req.Params)
	if err != nil {
		return nil, err
	}
	defer release()
	cands, err := core.ProposeBlocks(view, est, opts, req.Base, req.Blocks)
	if err != nil {
		return nil, err
	}
	return shard.PartialsReply(cands), nil
}

// checkIdentity rejects RPCs addressed to a different worker when this
// server runs with an explicit -shard-of identity — a misrouted request
// means the coordinator's view of the fleet is wrong, which must surface,
// not be served.
func (e *shardExecutor) checkIdentity(want string) error {
	if of := e.s.cfg.ShardOf; of != "" && want != of {
		return fmt.Errorf("shard worker: request addressed to %q, serving as %q", want, of)
	}
	return nil
}

// shardRPC wraps a worker-side shard endpoint: request counting, its own
// deadline, trace stitching (a fresh trace whose parent is the
// coordinator's X-DBS-Trace ID), route histogram, and ring/access-log
// filing — compute() minus admission control. Shard RPCs run inside a
// user request the coordinator already admitted; admitting them again
// would let the internal fan-out of admitted work deadlock behind new
// external work.
func (s *Server) shardRPC(route string, fn func(ctx context.Context, r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.rec.Counter(CtrRequests).Inc()
		id := s.ids.Next()
		w.Header().Set(TraceHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		rec := s.requestRecorder(id)
		if parent := r.Header.Get(TraceHeader); parent != "" {
			rec.Eventf("rpc", "parent=%s", parent)
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Deadline)
		defer cancel()
		ctx = obs.NewContext(ctx, rec)
		defer func() {
			s.observe(route, start)
			s.finishRequest(rec, route, r.Header.Get(TenantHeader), sw, start)
		}()
		resp, err := fn(ctx, r)
		if err != nil {
			s.pipelineFail(sw, err)
			return
		}
		writeJSON(sw, http.StatusOK, resp)
	}
}

func (s *Server) handleShardPartials(ctx context.Context, r *http.Request) (any, error) {
	var req shard.PartialsRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, fmt.Errorf("decoding shard partials request: %v", err)
	}
	return s.shardEx.Partials(ctx, &req)
}

// buildSampleSharded is the scatter-gather build of the exact sample for
// generation g, whose fingerprint fp the caller already holds: the
// coordinator's Sample takes the stream base, gathers every block's
// partial and coin candidates in one round, merges the exact global k_a
// and decides every block's selections itself from its own view. The RNG
// derivation matches the local core.Draw exactly (same seed streams, same
// one draw for the stream base), so the artifact — and therefore the
// response bytes — is identical to the single-node build. The coordinator observes the
// round's fan-out wait into HistShardSeconds, not into the build-stage
// histogram: /healthz separates time spent waiting on workers from
// coordinator-local work. Replica fallback and hedging live in the
// coordinator; a fan-out that exhausts every replica surfaces as a
// transient error (503 upstream), and a degenerate or short response can
// never merge silently.
func (s *Server) buildSampleSharded(ctx context.Context, rec *obs.Recorder, h *Handle, q sampleRequest, p estParams, g, fp uint64) (any, int64, error) {
	view, err := h.ViewAt(g)
	if err != nil {
		return nil, 0, err
	}
	prm := shard.Params{
		Dataset:     q.Dataset,
		Generation:  g,
		Fingerprint: fmt.Sprintf("%016x", fp),
		Alpha:       q.Alpha,
		Size:        q.Size,
		Kernels:     p.Kernels,
		Kernel:      p.Kernel,
		Seed:        p.Seed,
	}
	n := view.Len()
	span := rec.StartSpan("server/build/sample_sharded")
	defer span.End()

	// One draw of the request's draw stream, exactly where core.Draw
	// would consume it — the base every block's coin stream derives from.
	_, drawRNG := seedStreams(p.Seed)
	sm, err := s.coord.Sample(ctx, prm, view, core.DrawStreamBase(drawRNG))
	if err != nil {
		return nil, 0, err
	}
	span.AddPoints(int64(n))
	// The workers' estimator holds min(kernels, n) centres, kde.Build's
	// reservoir rule; the local draw records that count (est.NumKernels()),
	// and an artifact stored under the same key must too.
	ns := core.NormState{K: sm.Norm, N: n, Kernels: min(p.Kernels, n)}
	return &sampleArtifact{s: sm, ns: ns}, sampleBytes(sm), nil
}
