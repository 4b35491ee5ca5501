package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/shard"
)

// shardChaosReqs is the request mix each shard-chaos schedule replays:
// two sample identities plus a repeat, so the artifact cache and the
// scatter-gather path are both exercised, and a uniform draw of all 600
// points, whose probabilities all clip, so a fully clipped round runs
// under faults too.
var shardChaosReqs = []struct {
	name string
	body map[string]any
}{
	{"sampleA", map[string]any{"dataset": "pts", "alpha": 1.0, "size": 60, "kernels": 32, "seed": 101}},
	{"sampleB", map[string]any{"dataset": "pts", "alpha": 0.5, "size": 60, "kernels": 32, "seed": 202}},
	{"sampleA2", map[string]any{"dataset": "pts", "alpha": 1.0, "size": 60, "kernels": 32, "seed": 101}},
	{"sampleAll", map[string]any{"dataset": "pts", "alpha": 0.0, "size": 600, "kernels": 32, "seed": 303}},
}

func shardChaosConfig(inj *faults.Injector) Config {
	return Config{
		Parallelism:   2,
		ShardWorkers:  3,
		ShardReplicas: 2,
		ShardHedge:    500 * time.Microsecond,
		Deadline:      5 * time.Second,
		MaxInFlight:   3,
		MaxQueue:      2,
		Faults:        inj,
	}
}

// TestShardChaosPartialFailure injects errors, delays, and partial
// (truncated) responses into the shard RPC fabric across many seeded
// schedules and asserts the sharded serving guarantees:
//
//   - a 200 response is byte-identical to the fault-free run — replica
//     fallback repairs the fan-out or the request fails, it never merges
//     a wrong or short result silently;
//   - failures only surface as 429, 503, or 504;
//   - admission drains fully and no goroutine leaks;
//   - across the seeds, faults actually fired and fallbacks actually ran
//     (otherwise the schedule tested nothing).
func TestShardChaosPartialFailure(t *testing.T) {
	checkLeaks := leakCheck(t)
	mem := dataset.MustInMemory(testPoints(600, 2, 11))

	// Fault-free reference bytes, from an identically sharded server.
	ref := make([][]byte, len(shardChaosReqs))
	func() {
		srv := New(shardChaosConfig(nil))
		if err := srv.Registry().RegisterDataset("pts", mem); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for i, rq := range shardChaosReqs {
			status, _, body := postRaw(t, ts.URL+"/v1/sample", rq.body)
			if status != http.StatusOK {
				t.Fatalf("reference %s: %d: %s", rq.name, status, body)
			}
			ref[i] = body
		}
	}()

	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	var injectedTotal, okTotal, failTotal, fallbackTotal, hedgeTotal int64
	for seed := 1; seed <= seeds; seed++ {
		inj := faults.New(faults.Config{
			Seed:     uint64(seed),
			PError:   0.20,
			PDelay:   0.10,
			PPartial: 0.15,
			MaxDelay: 500 * time.Microsecond,
		})
		srv := New(shardChaosConfig(inj))
		if err := srv.Registry().RegisterDataset("pts", mem); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())

		var wg sync.WaitGroup
		for i, rq := range shardChaosReqs {
			wg.Add(1)
			go func(i int, name string, body map[string]any) {
				defer wg.Done()
				status, _, data := postRaw(t, ts.URL+"/v1/sample", body)
				switch status {
				case http.StatusOK:
					atomic.AddInt64(&okTotal, 1)
					if !bytes.Equal(data, ref[i]) {
						t.Errorf("seed %d %s: 200 body differs from fault-free run", seed, name)
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					atomic.AddInt64(&failTotal, 1)
				default:
					t.Errorf("seed %d %s: unexpected status %d: %s", seed, name, status, data)
				}
			}(i, rq.name, rq.body)
		}
		wg.Wait()
		ts.Close()

		if n := srv.adm.InFlight(); n != 0 {
			t.Errorf("seed %d: %d requests still in flight after drain", seed, n)
		}
		if n := srv.adm.Queued(); n != 0 {
			t.Errorf("seed %d: %d requests still queued after drain", seed, n)
		}
		injectedTotal += inj.Injected()
		fallbackTotal += srv.rec.Counter(shard.CtrFallbacks).Value()
		hedgeTotal += srv.rec.Counter(shard.CtrHedges).Value()
	}
	if injectedTotal == 0 {
		t.Error("no faults fired across any seed — the chaos run tested nothing")
	}
	if okTotal == 0 {
		t.Error("no request ever succeeded under shard faults — replica fallback is dead")
	}
	if fallbackTotal == 0 {
		t.Error("no fallback ever ran across the schedules — fault points are not wired to the RPC path")
	}
	t.Logf("shard chaos: %d seeds, %d faults injected, %d ok, %d failed, %d fallbacks, %d hedges",
		seeds, injectedTotal, okTotal, failTotal, fallbackTotal, hedgeTotal)
	checkLeaks()
}

// TestShardChaosSingleReplicaLoud: with Replicas=1 there is no fallback;
// an injected RPC error must surface as a transient 503/504, never as a
// quietly degraded response.
func TestShardChaosSingleReplicaLoud(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 3, PError: 1})
	cfg := shardChaosConfig(inj)
	cfg.ShardReplicas = 1
	cfg.ShardHedge = 0
	srv := New(cfg)
	if err := srv.Registry().RegisterDataset("pts", dataset.MustInMemory(testPoints(400, 2, 11))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, _, body := postRaw(t, ts.URL+"/v1/sample", shardChaosReqs[0].body)
	if status != http.StatusServiceUnavailable && status != http.StatusGatewayTimeout {
		t.Fatalf("every-RPC-fails run returned %d (%s), want 503/504", status, body)
	}
}
