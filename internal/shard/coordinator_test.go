package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// coreExec is a real worker over an in-memory dataset: the same
// core.ProposeBlocks call the serving layer's executor makes, minus the
// registry plumbing. floor, when set, is the workers' FloorDensity (the
// serving layer always lets it default).
type coreExec struct {
	ds    dataset.Dataset
	est   core.DensityEstimator
	floor float64
}

func (e *coreExec) opts(p Params) core.Options {
	return core.Options{Alpha: p.Alpha, TargetSize: p.Size, FloorDensity: e.floor}
}

func (e *coreExec) Partials(ctx context.Context, req *PartialsRequest) (*PartialsResponse, error) {
	cands, err := core.ProposeBlocks(e.ds, e.est, e.opts(req.Params), req.Base, req.Blocks)
	if err != nil {
		return nil, err
	}
	return PartialsReply(cands), nil
}

// downShard fails every RPC; slowShard answers after a fixed delay.
type downShard struct{ Shard }

func (d downShard) Partials(context.Context, *PartialsRequest) (*PartialsResponse, error) {
	return nil, errors.New("shard down")
}

type slowShard struct {
	Shard
	d time.Duration
}

func (s slowShard) Partials(ctx context.Context, req *PartialsRequest) (*PartialsResponse, error) {
	select {
	case <-time.After(s.d):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Shard.Partials(ctx, req)
}

// fixture builds (dataset, estimator, single-node reference sample) plus a
// factory for worker shards over the same data.
type fixture struct {
	ds    *dataset.InMemory
	est   core.DensityEstimator
	floor float64
	p     Params
	n     int
	want  *core.Sample
	base  uint64
}

// newFixture lays 18,000 points, a third of them in one dense square, over
// five default blocks, the last one short.
func newFixture(t *testing.T) *fixture {
	t.Helper()
	rng := stats.NewRNG(61)
	pts := make([]geom.Point, 18000)
	for i := range pts {
		if i%3 == 0 {
			pts[i] = geom.Point{0.2 + 0.05*rng.Float64(), 0.2 + 0.05*rng.Float64()}
		} else {
			pts[i] = geom.Point{rng.Float64(), rng.Float64()}
		}
	}
	ds := dataset.MustInMemory(pts)
	est, err := kde.Build(ds, kde.Options{NumKernels: 80}, stats.NewRNG(62))
	if err != nil {
		t.Fatal(err)
	}
	return finishFixture(t, ds, est, 0, Params{Dataset: "gauss", Alpha: 0.5, Size: 300, Seed: 9})
}

// finishFixture draws the single-node reference for p and the stream
// base the coordinator ships.
func finishFixture(t *testing.T, ds *dataset.InMemory, est core.DensityEstimator, floor float64, p Params) *fixture {
	t.Helper()
	opts := core.Options{Alpha: p.Alpha, TargetSize: p.Size, FloorDensity: floor}
	want, err := core.Draw(ds, est, opts, stats.NewRNG(p.Seed))
	if err != nil {
		t.Fatal(err)
	}
	base := core.DrawStreamBase(stats.NewRNG(p.Seed))
	return &fixture{ds: ds, est: est, floor: floor, p: p, n: ds.Len(), want: want, base: base}
}

// columnDensity reads a point's density from its second coordinate, so a
// test places every weight exactly.
type columnDensity struct{}

func (columnDensity) Density(p geom.Point) float64 { return p[1] }

// newClipFixture lays out a = 1 and b = 300 over 35,000 points of density
// 1 to 2 in nine default blocks: one point of density 4,000 in block 3
// clips at 1, and one of density 5e-324 (the floor) in block 7 has
// b·w/k_a round to 0. The one round must decide both blocks as core.Draw
// does.
func newClipFixture(t *testing.T) *fixture {
	t.Helper()
	const blockSize = parallel.DefaultBlockSize
	rng := stats.NewRNG(63)
	pts := make([]geom.Point, 35000)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), 1 + rng.Float64()}
	}
	pts[3*blockSize+17][1] = 4000
	pts[7*blockSize+5][1] = 5e-324
	p := Params{Dataset: "column", Alpha: 1, Size: 300, Seed: 11}
	f := finishFixture(t, dataset.MustInMemory(pts), columnDensity{}, 5e-324, p)
	if f.want.Saturated != 1 {
		t.Fatalf("fixture clips %d probabilities, want 1", f.want.Saturated)
	}
	if prob := float64(p.Size) * 5e-324 / f.want.Norm; prob != 0 {
		t.Fatalf("fixture's smallest probability %v does not underflow", prob)
	}
	return f
}

func (f *fixture) locals(n int) []Shard {
	out := make([]Shard, n)
	for i := range out {
		out[i] = NewLocal(fmt.Sprintf("w%d", i), &coreExec{ds: f.ds, est: f.est, floor: f.floor})
	}
	return out
}

// run executes the protocol and checks the result against the
// single-node reference byte for byte.
func (f *fixture) run(t *testing.T, c *Coordinator) {
	t.Helper()
	got, err := c.Sample(context.Background(), f.p, f.ds, f.base)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	f.check(t, got)
}

func (f *fixture) check(t *testing.T, got *core.Sample) {
	t.Helper()
	if math.Float64bits(got.Norm) != math.Float64bits(f.want.Norm) {
		t.Fatalf("norm %x != single-node %x", math.Float64bits(got.Norm), math.Float64bits(f.want.Norm))
	}
	if len(got.Points) != len(f.want.Points) {
		t.Fatalf("%d points, want %d", len(got.Points), len(f.want.Points))
	}
	for i := range got.Points {
		if !got.Points[i].P.Equal(f.want.Points[i].P) ||
			math.Float64bits(got.Points[i].W) != math.Float64bits(f.want.Points[i].W) {
			t.Fatalf("point %d differs: %+v vs %+v", i, got.Points[i], f.want.Points[i])
		}
	}
	if got.Saturated != f.want.Saturated || got.DataPasses != 2 {
		t.Fatalf("saturated=%d passes=%d, want %d and 2", got.Saturated, got.DataPasses, f.want.Saturated)
	}
}

// numGroups is how many block groups c scatters f's blocks into: the RPC
// count of one round with no failures.
func (f *fixture) numGroups(c *Coordinator) int {
	return len(c.groups(f.p.Dataset, parallel.NumBlocks(f.n, parallel.DefaultBlockSize)))
}

// TestCoordinatorParity: the scatter-gather result is bit-identical to
// single-node core.Draw at every shard count and replica count, in one
// round of one RPC per block group.
func TestCoordinatorParity(t *testing.T) {
	f := newFixture(t)
	for _, shards := range []int{1, 2, 3, 4, 8} {
		for _, replicas := range []int{1, 2, 3} {
			rec := obs.New()
			c := NewCoordinator(Config{Shards: f.locals(shards), Replicas: replicas, Rec: rec})
			f.run(t, c)
			if got, want := rec.Counter(CtrRPCs).Value(), int64(f.numGroups(c)); got != want {
				t.Errorf("shards=%d replicas=%d: %d RPCs, want one per block group (%d)", shards, replicas, got, want)
			}
		}
	}
}

// recordingShard notes the blocks of every request it answers.
type recordingShard struct {
	Shard
	mu     *sync.Mutex
	blocks *[]int
}

func (r recordingShard) Partials(ctx context.Context, req *PartialsRequest) (*PartialsResponse, error) {
	r.mu.Lock()
	*r.blocks = append(*r.blocks, req.Blocks...)
	r.mu.Unlock()
	return r.Shard.Partials(ctx, req)
}

// TestCoordinatorForcedFallback: the blocks that once forced a fallback
// round — block 3, with a probability clipped at 1, and block 7, whose
// smallest probability underflows to 0 (newClipFixture) — are decided in
// the one round: every block is asked for exactly once, the coordinator
// makes one RPC per block group, and the bytes match core.Draw.
func TestCoordinatorForcedFallback(t *testing.T) {
	f := newClipFixture(t)
	numBlocks := parallel.NumBlocks(f.n, parallel.DefaultBlockSize)
	for _, shards := range []int{1, 2, 3, 8} {
		for _, replicas := range []int{1, 2, 3} {
			var mu sync.Mutex
			var asked []int
			locals := f.locals(shards)
			for i := range locals {
				locals[i] = recordingShard{Shard: locals[i], mu: &mu, blocks: &asked}
			}
			rec := obs.New()
			c := NewCoordinator(Config{Shards: locals, Replicas: replicas, Rec: rec})
			f.run(t, c)
			sort.Ints(asked)
			if len(asked) != numBlocks {
				t.Fatalf("shards=%d replicas=%d: %d block requests, want each of the %d blocks once", shards, replicas, len(asked), numBlocks)
			}
			for i, b := range asked {
				if b != i {
					t.Fatalf("shards=%d replicas=%d: blocks asked for %v, want each of 0..%d once", shards, replicas, asked, numBlocks-1)
				}
			}
			if got, want := rec.Counter(CtrRPCs).Value(), int64(f.numGroups(c)); got != want {
				t.Errorf("shards=%d replicas=%d: %d RPCs, want one per block group (%d)", shards, replicas, got, want)
			}
		}
	}
}

// TestCoordinatorFallback: with a dead shard and replicas=2, every group
// still resolves — on the surviving replica — and the bytes are exact.
func TestCoordinatorFallback(t *testing.T) {
	for _, f := range []*fixture{newFixture(t), newClipFixture(t)} {
		shards := f.locals(3)
		shards[0] = downShard{shards[0]}
		rec := obs.New()
		c := NewCoordinator(Config{Shards: shards, Replicas: 2, Rec: rec})
		f.run(t, c)
		if rec.Counter(CtrFallbacks).Value() == 0 {
			t.Error("dead shard triggered no fallbacks")
		}
		if rec.Counter(CtrRPCErrors).Value() == 0 {
			t.Error("dead shard produced no RPC errors")
		}
	}
}

// TestCoordinatorAllReplicasFail: when every candidate for a group is
// dead, the draw fails loudly instead of merging a partial result.
func TestCoordinatorAllReplicasFail(t *testing.T) {
	f := newFixture(t)
	shards := f.locals(2)
	shards[0] = downShard{shards[0]}
	shards[1] = downShard{shards[1]}
	c := NewCoordinator(Config{Shards: shards, Replicas: 2})
	if _, err := c.Sample(context.Background(), f.p, f.ds, f.base); err == nil {
		t.Fatal("Sample succeeded with every shard down")
	} else if !strings.Contains(err.Error(), "replicas failed") {
		t.Fatalf("error %q does not name replica exhaustion", err)
	}
}

// TestCoordinatorHedge: slow shards plus a tiny hedge budget fire hedges;
// the result is still exact because every replica computes the same
// bytes.
func TestCoordinatorHedge(t *testing.T) {
	for _, f := range []*fixture{newFixture(t), newClipFixture(t)} {
		shards := f.locals(2)
		shards[0] = slowShard{Shard: shards[0], d: 30 * time.Millisecond}
		shards[1] = slowShard{Shard: shards[1], d: 30 * time.Millisecond}
		rec := obs.New()
		c := NewCoordinator(Config{Shards: shards, Replicas: 2, Hedge: time.Millisecond, Rec: rec})
		f.run(t, c)
		if rec.Counter(CtrHedges).Value() == 0 {
			t.Error("slow shards under a 1ms budget fired no hedges")
		}
	}
}

// TestCoordinatorTruncationNeverSilent: with partial-response faults on
// every attempt, the round cannot succeed — a truncated reply must fail
// validation on every replica and surface as an error, never as a short
// merge.
func TestCoordinatorTruncationNeverSilent(t *testing.T) {
	for _, f := range []*fixture{newFixture(t), newClipFixture(t)} {
		inj := faults.New(faults.Config{Seed: 5, PPartial: 1})
		c := NewCoordinator(Config{Shards: f.locals(2), Replicas: 2, Faults: inj})
		if _, err := c.Sample(context.Background(), f.p, f.ds, f.base); err == nil {
			t.Fatal("Sample succeeded though every response was truncated")
		}
	}
}

// TestCoordinatorTruncationFallsBack: when only some attempts truncate,
// the fallback replica serves the group and the bytes stay exact.
func TestCoordinatorTruncationFallsBack(t *testing.T) {
	for _, f := range []*fixture{newFixture(t), newClipFixture(t)} {
		rec := obs.New()
		inj := faults.New(faults.Config{Seed: 8, PPartial: 0.5})
		c := NewCoordinator(Config{Shards: f.locals(4), Replicas: 3, Rec: rec, Faults: inj})
		// The schedule is deterministic; with p=0.5 and 3 candidates a
		// group can still exhaust its replicas. Accept either exact bytes
		// or a loud error — what must never happen is a silent short merge
		// (check compares bytes whenever the draw succeeds).
		got, err := c.Sample(context.Background(), f.p, f.ds, f.base)
		if err != nil {
			t.Logf("Sample failed loudly (acceptable): %v", err)
		} else {
			f.check(t, got)
		}
		if rec.Counter(CtrFallbacks).Value() == 0 && rec.Counter(CtrRPCErrors).Value() == 0 {
			t.Error("p=0.5 truncation schedule injected nothing")
		}
	}
}

// TestCoordinatorCancel: a dead caller context surfaces as a
// cancellation, not a replica-exhaustion error.
func TestCoordinatorCancel(t *testing.T) {
	f := newFixture(t)
	shards := f.locals(2)
	shards[0] = slowShard{Shard: shards[0], d: time.Second}
	shards[1] = slowShard{Shard: shards[1], d: time.Second}
	c := NewCoordinator(Config{Shards: shards, Replicas: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := c.Sample(ctx, f.p, f.ds, f.base); err == nil {
		t.Fatal("Sample survived a canceled context")
	} else if !errors.Is(err, parallel.ErrCanceled) {
		t.Fatalf("error %q is not a cancellation", err)
	}
}

// lateShard stands for an in-process worker that is still busy when a
// hedge wins: its attempt blocks until its context is cancelled, then,
// after a pause, records into the Recorder its context carries.
type lateShard struct {
	Shard
	started, recorded *atomic.Int64
}

func (l lateShard) Partials(ctx context.Context, req *PartialsRequest) (*PartialsResponse, error) {
	l.started.Add(1)
	<-ctx.Done()
	time.Sleep(20 * time.Millisecond)
	obs.FromContext(ctx).Counter("late_work_total").Inc()
	l.recorded.Add(1)
	return nil, ctx.Err()
}

// TestHedgedWaitsForLosers: the coordinator returns only after every
// attempt it launched has finished, so a cancelled loser's work lands in
// the request's Recorder before the serving layer merges it.
func TestHedgedWaitsForLosers(t *testing.T) {
	f := newFixture(t)
	var started, recorded atomic.Int64
	shards := f.locals(2)
	shards[0] = lateShard{Shard: shards[0], started: &started, recorded: &recorded}
	c := NewCoordinator(Config{Shards: shards, Replicas: 2, Hedge: time.Millisecond})
	reqRec := obs.New()
	got, err := c.Sample(obs.NewContext(context.Background(), reqRec), f.p, f.ds, f.base)
	if err != nil {
		t.Fatal(err)
	}
	f.check(t, got)
	if started.Load() == 0 {
		t.Fatal("the blocking shard was never tried")
	}
	if s, r := started.Load(), recorded.Load(); r != s {
		t.Fatalf("Sample returned with %d of %d losing attempts still running", s-r, s)
	}
	if v := reqRec.Counter("late_work_total").Value(); v != started.Load() {
		t.Errorf("request Recorder holds %d late writes, want %d", v, started.Load())
	}
}

// TestSubFoldBound is the bound the one round rests on: for non-negative
// partials, a worker's fold of its own blocks in ascending order never
// exceeds FoldNorm over every block, for ring layouts at every shard
// count, including huge, subnormal and zero partials.
func TestSubFoldBound(t *testing.T) {
	rng := stats.NewRNG(71)
	special := []float64{0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308 / 4}
	for trial := 0; trial < 200; trial++ {
		numBlocks := 1 + rng.Intn(120)
		partials := make([]float64, numBlocks)
		for i := range partials {
			switch rng.Intn(4) {
			case 0:
				partials[i] = special[rng.Intn(len(special))]
			case 1:
				partials[i] = math.Ldexp(rng.Float64(), rng.Intn(200)-100)
			default:
				partials[i] = rng.Float64() * 1000
			}
		}
		total := core.FoldNorm(partials)
		for _, shards := range []int{1, 2, 3, 8} {
			names := make([]Shard, shards)
			for i := range names {
				names[i] = NewLocal(fmt.Sprintf("t%d-%d", trial, i), nil)
			}
			c := NewCoordinator(Config{Shards: names})
			for _, g := range c.groups(fmt.Sprintf("ds%d", trial), numBlocks) {
				own := make([]float64, len(g.blocks))
				for i, b := range g.blocks {
					own[i] = partials[b]
				}
				if sub := core.FoldNorm(own); !(sub <= total) {
					t.Fatalf("trial %d shards=%d: sub-fold %v over blocks %v exceeds the fold %v", trial, shards, sub, g.blocks, total)
				}
			}
		}
	}
}

// TestCoordinatorRejectsBadWiring pins the construction-time panics.
func TestCoordinatorRejectsBadWiring(t *testing.T) {
	f := newFixture(t)
	for name, cfg := range map[string]Config{
		"empty": {},
		"dup":   {Shards: append(f.locals(1), f.locals(1)...)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewCoordinator(cfg)
		}()
	}
}
