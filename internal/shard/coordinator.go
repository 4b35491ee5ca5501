package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Coordinator counters, joining the /metrics catalogue.
const (
	CtrRPCs      = "shard_rpcs_total"
	CtrHedges    = "shard_hedges_total"
	CtrFallbacks = "shard_fallbacks_total"
	CtrRPCErrors = "shard_rpc_errors_total"
)

// Config assembles a Coordinator.
type Config struct {
	// Shards are the workers, in any order; the ring sorts by name.
	Shards []Shard
	// Replicas is how many shards may serve each block group: the
	// consistent-hash owner plus Replicas-1 ring successors as fallbacks
	// and hedge targets. Default 2, clamped to the shard count. Every
	// worker holds the full dataset, so replication costs no placement —
	// it only widens the candidate list.
	Replicas int
	// Hedge is the latency budget after which a pending RPC is hedged to
	// the next replica (first success wins, bytes unaffected — every
	// replica computes the identical answer). 0 disables hedging;
	// fallback on failure happens regardless.
	Hedge time.Duration
	// Faults injects scheduled faults into the RPC attempts at the
	// "shard/rpc/partials" and "shard/rpc/draw" sites: errors, delays,
	// and partial (truncated) responses. Nil injects nothing.
	Faults *faults.Injector
	// Rec receives the coordinator counters. Nil-safe.
	Rec *obs.Recorder
	// Vnodes overrides the ring's virtual-node count (tests; 0 = default).
	Vnodes int
}

// Coordinator scatters a sampling run's scan blocks across shard workers
// and gathers a result bit-identical to the single-node build: phase one
// collects per-block partial normalizers and merges them in global block
// order into the exact k_a; phase two ships (k_a, stream base) out and
// concatenates the per-block selections in global block order.
type Coordinator struct {
	shards   []Shard
	byName   map[string]Shard
	ring     *Ring
	replicas int
	hedge    time.Duration
	rec      *obs.Recorder

	pPartials *faults.Point
	pDraw     *faults.Point
}

// NewCoordinator builds a Coordinator from cfg. It panics on an empty
// shard set or duplicate shard names — construction-time wiring bugs,
// not runtime conditions.
func NewCoordinator(cfg Config) *Coordinator {
	if len(cfg.Shards) == 0 {
		panic("shard: coordinator needs at least one shard")
	}
	names := make([]string, len(cfg.Shards))
	byName := make(map[string]Shard, len(cfg.Shards))
	for i, sh := range cfg.Shards {
		names[i] = sh.Name()
		if _, dup := byName[sh.Name()]; dup {
			panic(fmt.Sprintf("shard: duplicate shard name %q", sh.Name()))
		}
		byName[sh.Name()] = sh
	}
	replicas := cfg.Replicas
	if replicas == 0 {
		replicas = 2
	}
	if replicas > len(cfg.Shards) {
		replicas = len(cfg.Shards)
	}
	if replicas < 1 {
		replicas = 1
	}
	return &Coordinator{
		shards:    cfg.Shards,
		byName:    byName,
		ring:      NewRing(names, cfg.Vnodes),
		replicas:  replicas,
		hedge:     cfg.Hedge,
		rec:       cfg.Rec,
		pPartials: cfg.Faults.Point("shard/rpc/partials"),
		pDraw:     cfg.Faults.Point("shard/rpc/draw"),
	}
}

// NumShards returns the worker count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// group is one scatter unit: the blocks owned by one shard, plus the
// ordered candidate list (owner first, ring successors after) that
// fallback and hedging walk.
type group struct {
	blocks []int
	cands  []Shard
}

// groups partitions the dataset's global blocks by consistent-hash owner.
// Placement is a pure function of (shard names, dataset name, block
// index): every coordinator over the same shard set scatters identically.
func (c *Coordinator) groups(ds string, numBlocks int) []group {
	perOwner := make([][]int, c.ring.Size())
	for b := 0; b < numBlocks; b++ {
		owner := c.ring.Owner(BlockKey(ds, b))
		perOwner[owner] = append(perOwner[owner], b)
	}
	var out []group
	for owner, blocks := range perOwner {
		if len(blocks) == 0 {
			continue
		}
		// Candidates: the owner, then its ring successors. Keyed off the
		// owner's name so every block in the group shares one fallback
		// order.
		succ := c.ring.Successors(stats.Mix64(stats.FNV1a(c.ring.Names()[owner])), c.replicas)
		cands := make([]Shard, 0, c.replicas)
		seen := map[int]bool{owner: true}
		cands = append(cands, c.byName[c.ring.Names()[owner]])
		for _, s := range succ {
			if !seen[s] && len(cands) < c.replicas {
				seen[s] = true
				cands = append(cands, c.byName[c.ring.Names()[s]])
			}
		}
		out = append(out, group{blocks: blocks, cands: cands})
	}
	return out
}

// canceledErr wraps a coordinator-side cancellation so the serving layer
// maps it to 504 (it matches parallel.ErrCanceled, like a canceled scan).
func canceledErr(cause error) error {
	return fmt.Errorf("shard: scatter-gather canceled (%v): %w", cause, parallel.ErrCanceled)
}

// hedged runs one group's RPC against its candidate list: the primary
// immediately, the next candidate when the hedge budget expires with no
// answer (a hedge) or when an attempt fails (a fallback), first success
// wins. Losing attempts are canceled through the shared context. The
// result is candidate-order independent by construction — every
// candidate computes the identical bytes — so hedging changes latency,
// never content.
func hedged[T any](ctx context.Context, cands []Shard, budget time.Duration, onLaunch func(i int, hedge bool), do func(ctx context.Context, sh Shard) (T, error)) (T, error) {
	var zero T
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type attempt struct {
		v   T
		err error
	}
	results := make(chan attempt, len(cands))
	launched := 0
	launch := func(hedge bool) {
		onLaunch(launched, hedge)
		sh := cands[launched]
		launched++
		go func() {
			v, err := do(ctx, sh)
			results <- attempt{v, err}
		}()
	}
	launch(false)
	var timerC <-chan time.Time
	if budget > 0 && len(cands) > 1 {
		timer := time.NewTimer(budget)
		defer timer.Stop()
		timerC = timer.C
	}
	var errs []error
	for done := 0; ; {
		select {
		case <-ctx.Done():
			return zero, canceledErr(ctx.Err())
		case <-timerC:
			timerC = nil
			if launched < len(cands) {
				launch(true)
			}
		case r := <-results:
			if r.err == nil {
				return r.v, nil
			}
			done++
			errs = append(errs, r.err)
			if launched < len(cands) {
				launch(false)
			} else if done == launched {
				if ctx.Err() != nil {
					return zero, canceledErr(ctx.Err())
				}
				return zero, fmt.Errorf("shard: all %d replicas failed: %w", launched, errors.Join(errs...))
			}
		}
	}
}

// scatter fans one phase out across the groups concurrently and waits for
// all of them; the per-group work runs under hedged replica selection.
// The first error wins (others are drained), and a nil error means every
// group delivered a validated response.
func scatter(ctx context.Context, groups []group, fn func(g group) error) error {
	errc := make(chan error, len(groups))
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g group) {
			defer wg.Done()
			errc <- fn(g)
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return err
		}
	}
	return nil
}

// rpc wraps one attempt: fault injection (error/delay/truncation), the
// transport call, response validation, counters, and the per-attempt
// region shard/<op>/rpc/<shard> of the request's trace, which nests under
// the phase span shard/<op> and makes the scatter-gather tree visible in
// /debug/traces.
// validate must reject any structurally short or inconsistent response —
// a truncated reply becomes a failed attempt (then a fallback), never a
// short merge.
func rpc[T any](c *Coordinator, op string, pt *faults.Point, blocks []int, truncAt func(resp T, frac float64) T, validate func(resp T) error) func(ctx context.Context, sh Shard, do func(context.Context) (T, error)) (T, error) {
	return func(ctx context.Context, sh Shard, do func(context.Context) (T, error)) (T, error) {
		var zero T
		rec := obs.FromContext(ctx)
		t0 := time.Now()
		c.rec.Counter(CtrRPCs).Inc()
		finish := func(err error) {
			note := "ok"
			if err != nil {
				c.rec.Counter(CtrRPCErrors).Inc()
				note = "error: " + err.Error()
			}
			rec.Region("shard/"+op+"/rpc/"+sh.Name(), t0, int64(len(blocks)), "%s", note)
		}
		frac, truncate, ferr := pt.CheckPartial(ctx)
		if ferr != nil {
			finish(ferr)
			return zero, ferr
		}
		resp, err := do(ctx)
		if err != nil {
			err = &RPCError{Shard: sh.Name(), Op: op, Err: err}
			finish(err)
			return zero, err
		}
		if truncate {
			resp = truncAt(resp, frac)
		}
		if verr := validate(resp); verr != nil {
			err = &RPCError{Shard: sh.Name(), Op: op, Err: verr}
			finish(err)
			return zero, err
		}
		finish(nil)
		return resp, nil
	}
}

// onLaunch returns the hedged-launch observer for one group: count every
// attempt beyond the first as a hedge (budget expired) or a fallback
// (previous attempt failed).
func (c *Coordinator) onLaunch() func(i int, hedge bool) {
	return func(i int, hedge bool) {
		if i == 0 {
			return
		}
		if hedge {
			c.rec.Counter(CtrHedges).Inc()
		} else {
			c.rec.Counter(CtrFallbacks).Inc()
		}
	}
}

// Norm runs phase one: scatter the block groups, gather per-block partial
// normalizers, and fold them in global block order into the exact k_a
// with core.FoldNorm, the fold the single-node draw uses. n is the dataset
// length at p's generation; the block layout is the one core.Draw derives
// from (n, p.BlockSize).
func (c *Coordinator) Norm(ctx context.Context, p Params, n int) (float64, error) {
	numBlocks := parallel.NumBlocks(n, parallel.BlockSize(p.BlockSize))
	groups := c.groups(p.Dataset, numBlocks)
	span := obs.FromContext(ctx).StartSpan("shard/partials")
	span.AddPoints(int64(n))
	defer span.End()
	partials := make([]float64, numBlocks)
	err := scatter(ctx, groups, func(g group) error {
		attempt := rpc(c, "partials", c.pPartials, g.blocks,
			func(resp *PartialsResponse, frac float64) *PartialsResponse {
				return &PartialsResponse{Partials: truncated(resp.Partials, frac)}
			},
			func(resp *PartialsResponse) error {
				if len(resp.Partials) != len(g.blocks) {
					return fmt.Errorf("got %d partials for %d blocks", len(resp.Partials), len(g.blocks))
				}
				return nil
			})
		resp, err := hedged(ctx, g.cands, c.hedge, c.onLaunch(), func(ctx context.Context, sh Shard) (*PartialsResponse, error) {
			return attempt(ctx, sh, func(ctx context.Context) (*PartialsResponse, error) {
				return sh.Partials(ctx, &PartialsRequest{Shard: sh.Name(), Params: p, Blocks: g.blocks})
			})
		})
		if err != nil {
			return err
		}
		for i, b := range g.blocks {
			v, derr := DecodeF64(resp.Partials[i])
			if derr != nil {
				return &RPCError{Op: "partials", Err: derr}
			}
			partials[b] = v
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	norm := core.FoldNorm(partials)
	if norm <= 0 || math.IsInf(norm, 0) || math.IsNaN(norm) {
		return 0, fmt.Errorf("shard: degenerate merged normalizer k_a = %v", norm)
	}
	return norm, nil
}

// Draw runs phase two: scatter (norm, stream base) with each group's
// blocks, gather the per-block selections, and concatenate them in global
// block order. The returned sample matches the single-node core.Draw for
// the same (dataset, estimator parameters, seed) byte for byte: Norm is
// the exact merged k_a, DataPasses is the exact algorithm's 2, and
// Saturated sums the per-block clip counts.
func (c *Coordinator) Draw(ctx context.Context, p Params, n, dims int, norm float64, base uint64) (*core.Sample, error) {
	numBlocks := parallel.NumBlocks(n, parallel.BlockSize(p.BlockSize))
	groups := c.groups(p.Dataset, numBlocks)
	span := obs.FromContext(ctx).StartSpan("shard/draw")
	span.AddPoints(int64(n))
	defer span.End()
	perBlock := make([]BlockDraw, numBlocks)
	err := scatter(ctx, groups, func(g group) error {
		attempt := rpc(c, "draw", c.pDraw, g.blocks,
			func(resp *DrawResponse, frac float64) *DrawResponse {
				return &DrawResponse{Blocks: truncated(resp.Blocks, frac)}
			},
			func(resp *DrawResponse) error { return validateDraw(resp, g.blocks, dims) })
		resp, err := hedged(ctx, g.cands, c.hedge, c.onLaunch(), func(ctx context.Context, sh Shard) (*DrawResponse, error) {
			return attempt(ctx, sh, func(ctx context.Context) (*DrawResponse, error) {
				return sh.Draw(ctx, &DrawRequest{
					Shard: sh.Name(), Params: p, Blocks: g.blocks,
					NormBits: EncodeF64(norm), Base: base,
				})
			})
		})
		if err != nil {
			return err
		}
		for i, b := range g.blocks {
			perBlock[b] = resp.Blocks[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &core.Sample{Norm: norm, DataPasses: 2}
	total := 0
	for i := range perBlock {
		total += len(perBlock[i].Points)
	}
	out.Points = make([]dataset.WeightedPoint, 0, total)
	for i := range perBlock {
		bd := &perBlock[i]
		for j, row := range bd.Points {
			out.Points = append(out.Points, dataset.WeightedPoint{P: geom.Point(row), W: bd.Weights[j]})
		}
		out.Saturated += bd.Saturated
	}
	return out, nil
}

// validateDraw structurally checks one draw response against the blocks
// that were requested: exact block list, parallel weights, full-width
// points. Anything short or inconsistent fails the attempt.
func validateDraw(resp *DrawResponse, blocks []int, dims int) error {
	if len(resp.Blocks) != len(blocks) {
		return fmt.Errorf("got %d block draws for %d blocks", len(resp.Blocks), len(blocks))
	}
	for i, bd := range resp.Blocks {
		if bd.Block != blocks[i] {
			return fmt.Errorf("block draw %d is for block %d, want %d", i, bd.Block, blocks[i])
		}
		if len(bd.Weights) != len(bd.Points) {
			return fmt.Errorf("block %d: %d weights for %d points", bd.Block, len(bd.Weights), len(bd.Points))
		}
		for _, row := range bd.Points {
			if len(row) != dims {
				return fmt.Errorf("block %d: point with %d dims, want %d", bd.Block, len(row), dims)
			}
		}
	}
	return nil
}

// truncated drops a deterministic suffix of s — the injected
// partial-response fault. The result is always strictly shorter than a
// non-empty input, so a truncation can never masquerade as a complete
// response.
func truncated[E any](s []E, frac float64) []E {
	if len(s) == 0 {
		return s
	}
	keep := int(frac * float64(len(s)))
	if keep >= len(s) {
		keep = len(s) - 1
	}
	if keep < 0 {
		keep = 0
	}
	return s[:keep]
}
