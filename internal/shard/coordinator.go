package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
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

	// HistSeconds is the round's fan-out wait, labelled
	// stage="partials". The serving layer reports it as its own
	// server_shard_seconds.
	HistSeconds = "server_shard_seconds"
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
	// "shard/rpc/partials" site: errors, delays, and partial (truncated)
	// responses. Nil injects nothing.
	Faults *faults.Injector
	// Rec receives the coordinator counters. Nil-safe.
	Rec *obs.Recorder
}

// Coordinator scatters a sampling run's scan blocks across shard workers
// and gathers a result bit-identical to the single-node build (Sample) in
// one round: it collects each block's partial normalizer and coin
// candidates, merges the partials in global block order into the exact
// k_a, decides every block's coins itself, and concatenates the per-block
// selections in global block order.
type Coordinator struct {
	shards   []Shard
	byName   map[string]Shard
	ring     *Ring
	replicas int
	hedge    time.Duration
	rec      *obs.Recorder

	pPartials *faults.Point
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
		ring:      NewRing(names),
		replicas:  replicas,
		hedge:     cfg.Hedge,
		rec:       cfg.Rec,
		pPartials: cfg.Faults.Point("shard/rpc/partials"),
	}
}

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
// wins. Losing attempts are canceled through the shared context, and
// hedged waits for every attempt it launched before returning: an
// in-process attempt records into the Recorder its context carries, which
// the serving layer merges once the request is done, so no attempt may
// outlive the call. The result is candidate-order independent by
// construction — every candidate computes the identical bytes — so
// hedging changes latency, never content.
func hedged(ctx context.Context, cands []Shard, budget time.Duration, onLaunch func(i int, hedge bool), do func(ctx context.Context, sh Shard) (*PartialsResponse, error)) (*PartialsResponse, error) {
	ctx, cancel := context.WithCancel(ctx)
	var running sync.WaitGroup
	defer running.Wait()
	defer cancel()
	type attempt struct {
		v   *PartialsResponse
		err error
	}
	results := make(chan attempt, len(cands))
	launched := 0
	launch := func(hedge bool) {
		onLaunch(launched, hedge)
		sh := cands[launched]
		launched++
		running.Add(1)
		go func() {
			defer running.Done()
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
			return nil, canceledErr(ctx.Err())
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
					return nil, canceledErr(ctx.Err())
				}
				return nil, fmt.Errorf("shard: all %d replicas failed: %w", launched, errors.Join(errs...))
			}
		}
	}
}

// scatter fans the round out across the groups concurrently and waits for
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

// attempt is one RPC of req to sh: fault injection
// (error/delay/truncation), the transport call, response validation,
// counters, and the per-attempt region shard/partials/rpc/<shard> of the
// request's trace, which nests under the round's span shard/partials and
// makes the scatter-gather tree visible in /debug/traces. Validation
// rejects any structurally short or inconsistent reply, so a truncated
// one becomes a failed attempt (then a fallback), never a short merge.
func (c *Coordinator) attempt(ctx context.Context, sh Shard, req *PartialsRequest, n int) (resp *PartialsResponse, err error) {
	t0 := time.Now()
	c.rec.Counter(CtrRPCs).Inc()
	defer func() {
		note := "ok"
		if err != nil {
			c.rec.Counter(CtrRPCErrors).Inc()
			note = "error: " + err.Error()
		}
		obs.FromContext(ctx).Region("shard/partials/rpc/"+sh.Name(), t0, int64(len(req.Blocks)), "%s", note)
	}()
	frac, truncate, err := c.pPartials.CheckPartial(ctx)
	if err != nil {
		return nil, err
	}
	if resp, err = sh.Partials(ctx, req); err == nil {
		if truncate {
			resp = &PartialsResponse{Blocks: truncated(resp.Blocks, frac)}
		}
		err = validatePartials(resp, req.Blocks, n, parallel.DefaultBlockSize)
	}
	if err != nil {
		return nil, &RPCError{Shard: sh.Name(), Op: "partials", Err: err}
	}
	return resp, nil
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

// Sample draws the exact sample of p's generation. view is the
// coordinator's own copy of that generation, whose fingerprint every
// worker verifies against p, and base is core.DrawStreamBase of the
// request's draw stream, taken before any RPC.
//
// The one round (span shard/partials, fault site shard/rpc/partials) asks
// each block group for core.ProposeBlocks: partials and coin candidates.
// The partials fold in global block order into the exact k_a with
// core.FoldNorm, the fold the single-node draw uses, and
// core.ResolveBlocks decides every block's coins, copying the rows from
// view. The result matches core.Draw for the same (dataset, estimator
// parameters, seed) byte for byte: Norm is the exact merged k_a,
// DataPasses is the exact algorithm's 2, and Saturated sums the
// per-block clip counts.
func (c *Coordinator) Sample(ctx context.Context, p Params, view dataset.Dataset, base uint64) (*core.Sample, error) {
	n := view.Len()
	numBlocks := parallel.NumBlocks(n, parallel.DefaultBlockSize)
	groups := c.groups(p.Dataset, numBlocks)
	cands, err := c.propose(ctx, p, n, base, groups)
	if err != nil {
		return nil, err
	}
	partials := make([]float64, numBlocks)
	for b := range cands {
		partials[b] = cands[b].Partial
	}
	// ResolveBlocks refuses a degenerate merged k_a.
	opts := core.Options{TargetSize: p.Size, Obs: obs.FromContext(ctx)}
	return core.ResolveBlocks(view, opts, core.FoldNorm(partials), cands)
}

// propose runs the round: scatter the block groups with the stream base
// and gather every block's validated candidates, indexed by block. Its
// fan-out wait goes to HistSeconds.
func (c *Coordinator) propose(ctx context.Context, p Params, n int, base uint64, groups []group) ([]core.BlockCandidates, error) {
	defer func(t0 time.Time) {
		c.rec.Histogram(HistSeconds, obs.Label{Key: "stage", Value: "partials"}).Observe(time.Since(t0).Seconds())
	}(time.Now())
	span := obs.FromContext(ctx).StartSpan("shard/partials")
	span.AddPoints(int64(n))
	defer span.End()
	cands := make([]core.BlockCandidates, parallel.NumBlocks(n, parallel.DefaultBlockSize))
	err := scatter(ctx, groups, func(g group) error {
		resp, err := hedged(ctx, g.cands, c.hedge, c.onLaunch(), func(ctx context.Context, sh Shard) (*PartialsResponse, error) {
			return c.attempt(ctx, sh, &PartialsRequest{Shard: sh.Name(), Params: p, Blocks: g.blocks, Base: base}, n)
		})
		if err != nil {
			return err
		}
		for i := range resp.Blocks {
			cands[g.blocks[i]] = resp.Blocks[i].candidates()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cands, nil
}

// validatePartials checks one worker reply against the blocks that
// were requested: the exact block list, then core's rule for each
// block's candidates (BlockCandidates.Check). Anything short or
// inconsistent fails the attempt.
func validatePartials(resp *PartialsResponse, blocks []int, n, blockSize int) error {
	if len(resp.Blocks) != len(blocks) {
		return fmt.Errorf("got %d block partials for %d blocks", len(resp.Blocks), len(blocks))
	}
	for i := range resp.Blocks {
		if resp.Blocks[i].Block != blocks[i] {
			return fmt.Errorf("block partial %d is for block %d, want %d", i, resp.Blocks[i].Block, blocks[i])
		}
		c := resp.Blocks[i].candidates()
		if err := c.Check(n, blockSize); err != nil {
			return err
		}
	}
	return nil
}

// truncated drops a deterministic suffix of s — the injected
// partial-response fault. The result is always strictly shorter than a
// non-empty input, so a truncation can never masquerade as a complete
// response.
func truncated(s []BlockPartial, frac float64) []BlockPartial {
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
