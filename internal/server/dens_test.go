package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/kde"
	"repro/internal/obs"
)

const densN = 4000

// sampleInProcess serves one /v1/sample request in process, so the
// request's counters have merged into the server's when it returns, and
// returns the X-DBS-Cache header and the body.
func sampleInProcess(t *testing.T, srv *Server, body map[string]any) (string, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sample", bytes.NewReader(raw)))
	if w.Code != http.StatusOK {
		t.Fatalf("alpha=%v: %d: %s", body["alpha"], w.Code, w.Body)
	}
	return w.Header().Get("X-DBS-Cache"), w.Body.Bytes()
}

// withAlpha is sampleBody at exponent a.
func withAlpha(a float64) map[string]any {
	body := map[string]any{}
	for k, v := range sampleBody {
		body[k] = v
	}
	body["alpha"] = a
	return body
}

// cacheEntries returns every cached artifact's key, value and charge.
func cacheEntries(c *Cache) map[string]*centry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]*centry{}
	for key, el := range c.items {
		out[key] = el.Value.(*centry)
	}
	return out
}

// counters reads the server counters the density tests account for.
func counters(srv *Server) (evals, builds, passes int64) {
	return srv.rec.Counter(obs.CtrKernelEvals).Value(), srv.rec.Counter(CtrKDEBuilds).Value(), srv.rec.Counter(obs.CtrDataPasses).Value()
}

// TestDensitySweepEvaluatesTwice is the paper's exponent sweep on one
// seed: a = -0.5, 0, 0.5 and 1 in that order add exactly twice E to
// kde_kernel_evals_total, E being what one a = 1 miss adds on a fresh
// server. The a = -0.5 miss builds the estimator and evaluates f in its
// draw; the a = 0 miss reads no density; the a = 0.5 miss finds the
// estimator cached and stores f at every row, 8 bytes each; the a = 1
// miss reads them and evaluates nothing. Every body equals a fresh
// server's body for the same request, and the cache's lookups still
// split exactly into hits, misses and disk loads.
func TestDensitySweepEvaluatesTwice(t *testing.T) {
	fresh := func(body map[string]any) (int64, []byte) {
		srv, _, _ := newTestServer(t, Config{Parallelism: 2}, densN)
		_, resp := sampleInProcess(t, srv, body)
		evals, _, _ := counters(srv)
		return evals, resp
	}
	e, _ := fresh(withAlpha(1))
	if e == 0 {
		t.Fatal("an a = 1 miss counted no kernel evaluation")
	}

	srv, _, _ := newTestServer(t, Config{Parallelism: 2}, densN)
	var total int64
	for _, step := range []struct {
		alpha  float64
		evals  int64
		builds int64
	}{{-0.5, e, 1}, {0, 0, 0}, {0.5, e, 0}, {1, 0, 0}} {
		evals0, builds0, _ := counters(srv)
		cache, body := sampleInProcess(t, srv, withAlpha(step.alpha))
		evals1, builds1, _ := counters(srv)
		if cache != "miss" {
			t.Errorf("a=%v: X-DBS-Cache %q, want miss", step.alpha, cache)
		}
		if got := evals1 - evals0; got != step.evals {
			t.Errorf("a=%v: %d kernel evaluations, want %d", step.alpha, got, step.evals)
		}
		if got := builds1 - builds0; got != step.builds {
			t.Errorf("a=%v: %d estimator builds, want %d", step.alpha, got, step.builds)
		}
		if _, want := fresh(withAlpha(step.alpha)); !bytes.Equal(body, want) {
			t.Errorf("a=%v: body differs from a fresh server's", step.alpha)
		}
		total += evals1 - evals0
	}
	if total != 2*e {
		t.Errorf("the sweep evaluated %d kernels, want 2 × %d", total, e)
	}

	var dens int
	for key, ent := range cacheEntries(srv.cache) {
		if strings.HasPrefix(key, densPrefix) {
			dens++
			if ent.size != densN*8 {
				t.Errorf("%s charged %d bytes, want %d", key, ent.size, densN*8)
			}
		}
	}
	if dens != 1 {
		t.Errorf("%d density artifacts cached, want 1", dens)
	}
	if st := srv.cache.Stats(); st.Hits+st.Misses+st.DiskHits != st.Lookups {
		t.Errorf("hits(%d) + misses(%d) + disk(%d) != %d lookups", st.Hits, st.Misses, st.DiskHits, st.Lookups)
	}
}

// TestAlphaZeroMissBuildsNoEstimator: an exact a = 0 miss looks up no
// estimator and makes no normalization pass, since k_0 = n: it adds 0
// estimator builds, 0 kernel evaluations and 1 data pass, and its body
// still reports the algorithm's 2 passes.
func TestAlphaZeroMissBuildsNoEstimator(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{Parallelism: 2}, densN)
	_, body := sampleInProcess(t, srv, withAlpha(0))
	evals, builds, passes := counters(srv)
	if evals != 0 || builds != 0 || passes != 1 {
		t.Errorf("a = 0 miss: %d kernel evaluations, %d estimator builds, %d data passes; want 0, 0 and 1", evals, builds, passes)
	}
	var sm struct {
		DataPasses int `json:"data_passes"`
	}
	if err := json.Unmarshal(body, &sm); err != nil {
		t.Fatal(err)
	}
	if sm.DataPasses != 2 {
		t.Errorf("body data_passes = %d, want 2", sm.DataPasses)
	}
	for key := range cacheEntries(srv.cache) {
		if !strings.HasPrefix(key, "smp|") {
			t.Errorf("a = 0 miss cached %s", key)
		}
	}
}

// TestEstimatorMissKeepsNoDensities: a miss whose estimator is new keeps
// no densities, so the cache holds exactly the estimator's charge plus
// the sample's.
func TestEstimatorMissKeepsNoDensities(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{Parallelism: 2}, densN)
	sampleInProcess(t, srv, sampleBody)
	entries := cacheEntries(srv.cache)
	var want int64
	for key, ent := range entries {
		switch v := ent.val.(type) {
		case *kde.Estimator:
			want += estimatorBytes(v)
		case *sampleArtifact:
			want += sampleBytes(v.s)
		default:
			t.Errorf("cached %s, neither an estimator nor a sample", key)
		}
	}
	if len(entries) != 2 {
		t.Errorf("%d artifacts cached, want the estimator and the sample", len(entries))
	}
	if got := int64(srv.rec.Gauge(GaugeCacheBytes).Value()); got != want {
		t.Errorf("server_cache_bytes = %d, want %d", got, want)
	}
}

// TestDensityStageObserved: the density build is a stage of its own.
// Under injected stage faults (every attempt of every stage fails with
// probability 1/2) it retries on its own budget, each attempt an
// observation of server_stage_seconds{stage="server/build/dens"}, and
// the body still equals a fault-free server's. The request's trace holds
// the stage and the lookup's region cache/dens.
func TestDensityStageObserved(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 3, PError: 0.5})
	srv, _, _ := newTestServer(t, Config{Parallelism: 2, Faults: inj, Retry: 8, RetryBackoff: time.Microsecond, TraceSample: 1, TraceSeed: 1}, densN)
	sampleInProcess(t, srv, withAlpha(-0.5))
	_, body := sampleInProcess(t, srv, withAlpha(0.5))

	ref, _, _ := newTestServer(t, Config{Parallelism: 2}, densN)
	if _, want := sampleInProcess(t, ref, withAlpha(0.5)); !bytes.Equal(body, want) {
		t.Error("a = 0.5 body under faults differs from a fault-free server's")
	}
	const stage = "server/build/dens"
	fired := inj.Point(stage).Fired()
	if fired == 0 {
		t.Fatalf("no fault fired at %s: the test exercised no retry", stage)
	}
	if got := srv.rec.Histogram(HistStageSeconds, obs.Label{Key: "stage", Value: stage}).Count(); got != fired+1 {
		t.Errorf("%s observed %d attempts, want %d failed + 1", stage, got, fired)
	}
	snaps := srv.traces.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("%d traces retained, want 2", len(snaps))
	}
	paths := eventPaths(snaps[0]) // newest first
	if paths["cache/dens"] != 1 || paths[stage] != int(fired)+1 {
		t.Errorf("a = 0.5 trace: cache/dens %d, %s %d; want 1 and %d", paths["cache/dens"], stage, paths[stage], fired+1)
	}
	if paths := eventPaths(snaps[1]); paths["cache/dens"] != 0 {
		t.Errorf("a = -0.5 trace looked up densities on an estimator miss")
	}
}
