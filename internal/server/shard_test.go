package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/shard"
)

// shardWorker starts one dbsserve instance as an HTTP shard worker named
// name, holding the standard "pts" dataset (same content on every worker
// — fingerprints must match the coordinator's).
func shardWorker(t *testing.T, name string, n int) *httptest.Server {
	t.Helper()
	srv := New(Config{Parallelism: 2, ShardOf: name})
	if err := srv.Registry().RegisterDataset("pts", dataset.MustInMemory(testPoints(n, 2, 11))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestShardParityAcrossModes is the PR's acceptance gate: /v1/sample
// responses are byte-identical across single-node, in-process shard
// counts {1,2,4,8}, HTTP worker mode, worker parallelism {1,8}, hedging
// on/off, and a dead-peer fallback — the full mode matrix.
func TestShardParityAcrossModes(t *testing.T) {
	const n = 3000
	body := map[string]any{
		"dataset": "pts", "alpha": 0.5, "size": 250, "kernels": 48, "seed": 7,
	}

	// Single-node reference.
	_, ref, _ := newTestServer(t, Config{Parallelism: 2}, n)
	resp, want := postJSON(t, ref.URL+"/v1/sample", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference: %d: %s", resp.StatusCode, want)
	}

	check := func(name string, cfg Config) {
		t.Helper()
		_, ts, _ := newTestServer(t, cfg, n)
		resp, got := postJSON(t, ts.URL+"/v1/sample", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", name, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response differs from single-node (%d vs %d bytes)", name, len(got), len(want))
		}
	}

	// In-process workers across shard counts and per-request parallelism.
	for _, workers := range []int{1, 2, 4, 8} {
		for _, par := range []int{1, 8} {
			check("in-process", Config{Parallelism: par, ShardWorkers: workers})
		}
	}
	// Hedging enabled (tiny budget, so it actually fires on occasion) and
	// replicas beyond the default: latency knobs must not touch bytes.
	check("hedged", Config{Parallelism: 2, ShardWorkers: 4, ShardHedge: time.Microsecond, ShardReplicas: 3})

	// HTTP mode: two worker dbsserve instances behind shard.Client.
	wa, wb := shardWorker(t, "a", n), shardWorker(t, "b", n)
	check("http", Config{
		Parallelism: 2,
		ShardPeers:  map[string]string{"a": wa.URL, "b": wb.URL},
	})

	// Dead peer with replicas=2: every group falls back to the live
	// replica and the bytes still match.
	check("dead-peer-fallback", Config{
		Parallelism: 2,
		ShardPeers:  map[string]string{"a": wa.URL, "dead": "http://127.0.0.1:1"},
	})
}

// shardedN is the dataset size of the one-round shape tests: four scan
// blocks, which the ring gives to both of two in-process workers, so a
// miss round one decides makes exactly two RPCs.
const shardedN = 13000

// blockGroups is how many block groups a coordinator over workers
// in-process shards scatters dataset name's n points into: the RPC count
// of one round.
func blockGroups(t *testing.T, workers int, name string, n int) int {
	t.Helper()
	names := make([]string, workers)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	ring := shard.NewRing(names)
	owners := map[int]bool{}
	for b := 0; b < parallel.NumBlocks(n, 0); b++ {
		owners[ring.Owner(shard.BlockKey(name, b))] = true
	}
	return len(owners)
}

// fallbackBody asks for a uniform (a = 0) sample of all n points: every
// probability b/k_0 = 1 clips, Bernoulli draws nothing, and every block
// takes the fallback round.
func fallbackBody(n int) map[string]any {
	return map[string]any{"dataset": "pts", "alpha": 0.0, "size": n, "kernels": 64, "seed": 42}
}

// TestShardHealthz: a sharded request populates the shard_latency
// section of /healthz with both rounds, distinguishing downstream
// fan-out wait from coordinator-local route latency. A miss that round
// one decides reports only the partials stage, after one RPC per block
// group; a request whose blocks fall back adds the draw stage.
func TestShardHealthz(t *testing.T) {
	if g := blockGroups(t, 2, "pts", shardedN); g != 2 {
		t.Fatalf("layout: %d block groups, want 2", g)
	}
	srv, ts, _ := newTestServer(t, Config{Parallelism: 2, ShardWorkers: 2}, shardedN)
	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", resp.StatusCode, body)
	}
	var h struct {
		Latency      map[string]LatencySummary `json:"latency"`
		ShardLatency map[string]LatencySummary `json:"shard_latency"`
	}
	getJSON(t, ts.URL+"/healthz", &h)
	if sum := h.ShardLatency["partials"]; sum.Count != 1 {
		t.Errorf("one-round miss: partials count = %d, want 1", sum.Count)
	}
	if sum, ok := h.ShardLatency["draw"]; ok {
		t.Errorf("one-round miss reported a draw stage: %+v", sum)
	}
	if got := srv.rec.Counter(shard.CtrRPCs).Value(); got != 2 {
		t.Errorf("one-round miss made %d RPCs, want 2", got)
	}

	resp, body = postJSON(t, ts.URL+"/v1/sample", fallbackBody(shardedN))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback sample: %d: %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/healthz", &h)
	for _, stage := range []string{"partials", "draw"} {
		sum, ok := h.ShardLatency[stage]
		if !ok {
			t.Fatalf("shard_latency missing stage %q: %+v", stage, h.ShardLatency)
		}
		if sum.Count < 1 {
			t.Errorf("stage %q count = %d, want >= 1", stage, sum.Count)
		}
	}
	if _, ok := h.Latency["/v1/sample"]; !ok {
		t.Error("route latency lost its /v1/sample entry on a sharded server")
	}
}

// TestShardMissCounts: a sharded miss on in-process workers evaluates
// each density once and flips each coin once, so it adds exactly what
// the same single-node miss adds to the kernel-evaluation, coin, sampled
// and saturated counters, and it makes one RPC per block group.
func TestShardMissCounts(t *testing.T) {
	ctrs := []string{obs.CtrKernelEvals, obs.CtrCoinFlips, obs.CtrSampled, obs.CtrSaturated}
	raw, err := json.Marshal(sampleBody)
	if err != nil {
		t.Fatal(err)
	}
	miss := func(cfg Config) (map[string]int64, *Server) {
		t.Helper()
		srv, _, _ := newTestServer(t, cfg, shardedN)
		// Served in-process, so the request's counters have merged into
		// the server's by the time ServeHTTP returns.
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sample", bytes.NewReader(raw)))
		if w.Code != http.StatusOK {
			t.Fatalf("sample: %d: %s", w.Code, w.Body)
		}
		out := map[string]int64{}
		for _, name := range ctrs {
			out[name] = srv.rec.Counter(name).Value()
		}
		return out, srv
	}
	local, _ := miss(Config{Parallelism: 2})
	sharded, srv := miss(Config{Parallelism: 2, ShardWorkers: 2})
	for _, name := range ctrs {
		if sharded[name] != local[name] {
			t.Errorf("%s: sharded miss adds %d, single-node %d", name, sharded[name], local[name])
		}
	}
	if local[obs.CtrKernelEvals] == 0 || local[obs.CtrCoinFlips] != shardedN {
		t.Errorf("single-node miss counted %d kernel evaluations and %d coins", local[obs.CtrKernelEvals], local[obs.CtrCoinFlips])
	}
	if got, want := srv.rec.Counter(shard.CtrRPCs).Value(), int64(blockGroups(t, 2, "pts", shardedN)); got != want {
		t.Errorf("sharded miss made %d RPCs, want one per block group (%d)", got, want)
	}
}

// TestShardWorkerIdentity: a worker pinned with -shard-of rejects RPCs
// addressed to another shard.
func TestShardWorkerIdentity(t *testing.T) {
	ts := shardWorker(t, "a", 500)
	req := shard.PartialsRequest{
		Shard:  "b",
		Params: shard.Params{Dataset: "pts", Kernels: 16, Seed: 1, Size: 10, Alpha: 1},
		Blocks: []int{0},
	}
	raw, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+shard.PathPartials, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("worker 'a' served an RPC addressed to 'b'")
	}
}

// TestShardFingerprintMismatch: a worker whose dataset content diverges
// from the coordinator's refuses loudly — never a silently wrong merge.
func TestShardFingerprintMismatch(t *testing.T) {
	// Worker holds different bytes under the same dataset name.
	srv := New(Config{Parallelism: 2, ShardOf: "a"})
	if err := srv.Registry().RegisterDataset("pts", dataset.MustInMemory(testPoints(3000, 2, 99))); err != nil {
		t.Fatal(err)
	}
	wa := httptest.NewServer(srv.Handler())
	t.Cleanup(wa.Close)

	_, coord, _ := newTestServer(t, Config{
		Parallelism: 2,
		ShardPeers:  map[string]string{"a": wa.URL},
	}, 3000)
	resp, body := postJSON(t, coord.URL+"/v1/sample", sampleBody)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("sample succeeded against a diverged worker: %s", body)
	}
}

// TestShardOnePassStaysLocal: OnePass requests bypass the coordinator
// (the one-pass approximation has no exact merge) and still serve from a
// sharded server.
func TestShardOnePassStaysLocal(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{Parallelism: 2, ShardWorkers: 2}, 2000)
	body := map[string]any{
		"dataset": "pts", "alpha": 1.0, "size": 100, "kernels": 32, "seed": 3, "one_pass": true,
	}
	resp, data := postJSON(t, ts.URL+"/v1/sample", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-pass on sharded server: %d: %s", resp.StatusCode, data)
	}
	if got := srv.rec.Counter(shard.CtrRPCs).Value(); got != 0 {
		t.Errorf("one-pass request issued %d shard RPCs, want 0", got)
	}
}

// TestShardAppendParity: appends on a sharded (in-process) server keep
// generation-pinned sampling byte-identical to single-node over the same
// appended data.
func TestShardAppendParity(t *testing.T) {
	extra := testPoints(700, 2, 55)

	_, ref, refMem := newTestServer(t, Config{Parallelism: 2}, 2000)
	if err := refMem.Append(extra...); err != nil {
		t.Fatal(err)
	}
	resp, want := postJSON(t, ref.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference after append: %d: %s", resp.StatusCode, want)
	}

	_, shd, shdMem := newTestServer(t, Config{Parallelism: 2, ShardWorkers: 4}, 2000)
	if err := shdMem.Append(extra...); err != nil {
		t.Fatal(err)
	}
	resp, got := postJSON(t, shd.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded after append: %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("sharded response after append differs from single-node")
	}
}

// TestShardTraceTree: with tracing on, a sharded request's trace nests
// every RPC attempt shard/<op>/rpc/<shard> under its round's span
// shard/<op>, and logs the in-process workers' compute (norm_partials,
// draw_blocks) as events of their own, not folded into the
// coordinator's round spans. A miss round one decides has no fallback
// round: no shard/draw, no draw_blocks, and one attempt per block group.
func TestShardTraceTree(t *testing.T) {
	srv := New(Config{Parallelism: 2, ShardWorkers: 2, TraceSample: 1, TraceSeed: 1})
	if err := srv.Registry().RegisterDataset("pts", dataset.MustInMemory(testPoints(shardedN, 2, 11))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	trace := func(body map[string]any) obs.Snapshot {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/sample", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample: %d: %s", resp.StatusCode, data)
		}
		for _, snap := range getTraces(t, ts.URL).Recent {
			if snap.ID == resp.Header.Get(TraceHeader) {
				return snap
			}
		}
		t.Fatalf("no trace %q retained", resp.Header.Get(TraceHeader))
		return obs.Snapshot{}
	}
	attempts := func(snap obs.Snapshot) map[string]int { // phase -> attempts nested under it
		out := map[string]int{}
		var walk func(spans []obs.SpanJSON, phase string)
		walk = func(spans []obs.SpanJSON, phase string) {
			for _, sp := range spans {
				in := phase
				if !sp.Synthetic && (sp.Path == "shard/partials" || sp.Path == "shard/draw") {
					in = sp.Path
				}
				if strings.Contains(sp.Path, "/rpc/") {
					if in == "" || !strings.HasPrefix(sp.Path, in+"/rpc/") {
						t.Errorf("RPC attempt %q is not nested under its phase span (enclosing phase %q)", sp.Path, in)
					}
					out[in]++
				}
				walk(sp.Children, in)
			}
		}
		walk(snap.Spans, "")
		return out
	}

	one := trace(sampleBody)
	paths := eventPaths(one)
	for _, want := range []string{"shard/partials", "norm_partials"} {
		if paths[want] == 0 {
			t.Errorf("one-round trace missing %q event; got %v", want, paths)
		}
	}
	for _, absent := range []string{"shard/draw", "draw_blocks"} {
		if paths[absent] != 0 {
			t.Errorf("one-round trace has %d %q events", paths[absent], absent)
		}
	}
	if got := attempts(one); got["shard/partials"] != 2 || got["shard/draw"] != 0 {
		t.Errorf("one-round trace attempts %v, want 2 under shard/partials and none under shard/draw", got)
	}

	snap := trace(fallbackBody(shardedN))
	paths = eventPaths(snap)
	for _, want := range []string{"shard/partials", "shard/draw", "norm_partials", "draw_blocks"} {
		if paths[want] == 0 {
			t.Errorf("trace missing %q event; got %v", want, paths)
		}
	}
	nested := attempts(snap)
	for _, phase := range []string{"shard/partials", "shard/draw"} {
		if nested[phase] == 0 {
			t.Errorf("phase %q has no RPC attempts nested under it; events %v", phase, paths)
		}
	}
}

// TestShardArtifactKernels: a sharded build records the kernel count its
// workers' estimator holds, not the requested one. kde.Build keeps
// min(kernels, n) centres, so with n < kernels the local and the sharded
// artifact must carry the same NormState and encode to the same DBSS1
// bytes — both are stored under one cache key, and a replica extending
// from either rescales its normalizer by that count.
func TestShardArtifactKernels(t *testing.T) {
	const n = 300
	q := sampleRequest{Dataset: "pts", Alpha: 1, Size: 50, Kernels: 1000, Seed: 5}
	p, err := q.normalize()
	if err != nil {
		t.Fatal(err)
	}
	build := func(cfg Config) ([]byte, core.NormState) {
		t.Helper()
		srv, _, _ := newTestServer(t, cfg, n)
		h, err := srv.Registry().Acquire("pts")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		art, _, err := srv.sampleAt(context.Background(), nil, h, q, p, h.Generation())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := core.MarshalSample(art.s, art.ns)
		if err != nil {
			t.Fatal(err)
		}
		return raw, art.ns
	}
	local, localNS := build(Config{Parallelism: 2})
	sharded, shardedNS := build(Config{Parallelism: 2, ShardWorkers: 2})
	if localNS.Kernels != n {
		t.Fatalf("local artifact records %d kernels, want min(1000, %d)", localNS.Kernels, n)
	}
	if shardedNS != localNS {
		t.Errorf("sharded NormState %+v, local %+v", shardedNS, localNS)
	}
	if !bytes.Equal(sharded, local) {
		t.Errorf("sharded artifact encodes to %d bytes that differ from the local %d", len(sharded), len(local))
	}
}
