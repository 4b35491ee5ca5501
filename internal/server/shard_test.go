package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
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

// TestShardHealthz: a sharded request populates the shard_latency
// section of /healthz with both phases, distinguishing downstream
// fan-out wait from coordinator-local route latency.
func TestShardHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Parallelism: 2, ShardWorkers: 2}, 2000)
	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", resp.StatusCode, body)
	}
	var h struct {
		Latency      map[string]LatencySummary `json:"latency"`
		ShardLatency map[string]LatencySummary `json:"shard_latency"`
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
// every RPC attempt shard/<op>/rpc/<shard> under its phase span
// shard/<op>, and logs the in-process workers' compute (norm_partials,
// draw_blocks) as events of their own, not folded into the
// coordinator's phase spans.
func TestShardTraceTree(t *testing.T) {
	srv := New(Config{Parallelism: 2, ShardWorkers: 2, TraceSample: 1, TraceSeed: 1})
	if err := srv.Registry().RegisterDataset("pts", dataset.MustInMemory(testPoints(2000, 2, 11))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", resp.StatusCode, body)
	}
	tr := getTraces(t, ts.URL)
	if len(tr.Recent) != 1 {
		t.Fatalf("recent traces = %d, want 1", len(tr.Recent))
	}
	snap := tr.Recent[0]
	paths := eventPaths(snap)
	for _, want := range []string{"shard/partials", "shard/draw", "norm_partials", "draw_blocks"} {
		if paths[want] == 0 {
			t.Errorf("trace missing %q event; got %v", want, paths)
		}
	}
	attempts := map[string]int{} // phase -> attempts nested under it
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
				attempts[in]++
			}
			walk(sp.Children, in)
		}
	}
	walk(snap.Spans, "")
	for _, phase := range []string{"shard/partials", "shard/draw"} {
		if attempts[phase] == 0 {
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
