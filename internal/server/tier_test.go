package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// mustDiskTier opens a disk tier over dir, unbounded.
func mustDiskTier(t *testing.T, dir string) *DiskTier {
	t.Helper()
	d, err := NewDiskTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// httptestNewServer serves a hand-built Server with test cleanup.
func httptestNewServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postTenant is postJSON with an X-DBS-Tenant header.
func postTenant(t *testing.T, url, tenant string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestDiskTierRestartSurvival pins the point of the disk tier: a server
// restarted over the same artifact directory serves the first request
// from disk — zero estimator builds, zero pipeline dataset passes — and
// the bytes match the original build exactly.
func TestDiskTierRestartSurvival(t *testing.T) {
	dir := t.TempDir()

	srv1, ts1, _ := newTestServer(t, Config{Parallelism: 2, Disk: mustDiskTier(t, dir)}, 3000)
	resp1, body1 := postJSON(t, ts1.URL+"/v1/sample", sampleBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("warm: %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-DBS-Cache"); got != "miss" {
		t.Fatalf("warm X-DBS-Cache = %q, want miss", got)
	}
	if st := srv1.disk.Stats(); st.Stores == 0 || st.Files == 0 {
		t.Fatalf("disk tier after warm build: %+v, want stored artifacts", st)
	}
	ts1.Close()

	// "Restart": a brand-new server (empty memory cache, fresh recorder)
	// over the same directory and an equivalent dataset.
	srv2 := New(Config{Parallelism: 2, Disk: mustDiskTier(t, dir)})
	mem2 := dataset.MustInMemory(testPoints(3000, 2, 11))
	if err := srv2.Registry().RegisterDataset("pts", mem2); err != nil {
		t.Fatal(err)
	}
	ts2 := httptestNewServer(t, srv2)

	resp2, body2 := postJSON(t, ts2.URL+"/v1/sample", sampleBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restart: %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-DBS-Cache"); got != "disk" {
		t.Errorf("restart X-DBS-Cache = %q, want disk", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("disk-tier response differs from the original build (must be byte-identical)")
	}
	// The disk hit skips the whole pipeline: no estimator build, no
	// pipeline dataset pass. The registry's fingerprint scan is the one
	// pass the restarted process still runs.
	if got := srv2.rec.Counter(CtrKDEBuilds).Value(); got != 0 {
		t.Errorf("restart kde builds = %d, want 0", got)
	}
	if got := srv2.rec.Counter(obs.CtrDataPasses).Value(); got != 0 {
		t.Errorf("restart recorded data passes = %d, want 0", got)
	}
	if got := mem2.Passes(); got != 1 {
		t.Errorf("restart dataset passes = %d, want 1 (fingerprint only)", got)
	}

	// Second request promotes to the memory tier.
	resp3, body3 := postJSON(t, ts2.URL+"/v1/sample", sampleBody)
	if got := resp3.Header.Get("X-DBS-Cache"); got != "hit" {
		t.Errorf("post-restart repeat X-DBS-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body3) {
		t.Error("memory-promoted response differs from the original build")
	}

	var health healthResponse
	getJSON(t, ts2.URL+"/healthz", &health)
	if health.Disk == nil || health.Disk.Hits == 0 {
		t.Errorf("healthz disk stats = %+v, want recorded hits", health.Disk)
	}
}

// TestDiskTierEstimatorSurvivesRestart does the same for the estimator
// artifact via /v1/outliers, which caches the estimator rather than a
// sample.
func TestDiskTierEstimatorSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	outlierBody := map[string]any{
		"dataset": "pts", "radius": 0.05, "p": 2, "kernels": 64, "seed": 42, "method": "estimate",
	}

	_, ts1, _ := newTestServer(t, Config{Parallelism: 2, Disk: mustDiskTier(t, dir)}, 1500)
	resp1, body1 := postJSON(t, ts1.URL+"/v1/outliers", outlierBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("warm: %d: %s", resp1.StatusCode, body1)
	}
	ts1.Close()

	srv2 := New(Config{Parallelism: 2, Disk: mustDiskTier(t, dir)})
	mem2 := dataset.MustInMemory(testPoints(1500, 2, 11))
	if err := srv2.Registry().RegisterDataset("pts", mem2); err != nil {
		t.Fatal(err)
	}
	ts2 := httptestNewServer(t, srv2)

	resp2, body2 := postJSON(t, ts2.URL+"/v1/outliers", outlierBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restart: %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-DBS-Cache"); got != "disk" {
		t.Errorf("restart X-DBS-Cache = %q, want disk", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("disk-loaded estimator produced different outlier bytes")
	}
	if got := srv2.rec.Counter(CtrKDEBuilds).Value(); got != 0 {
		t.Errorf("restart kde builds = %d, want 0", got)
	}
}

// TestDegradedSampleServesCachedA0 pins the degrade ladder: with
// DegradeOK set, a /v1/sample shed by admission is answered from the
// cached a=0 artifact — byte-identical to an ordinary a=0 response,
// marked with X-DBS-Degraded — and a request whose a=0 artifact is not
// resident still sheds with 429.
func TestDegradedSampleServesCachedA0(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		Parallelism: 2, MaxInFlight: 1, MaxQueue: -1, DegradeOK: true,
	}, 2000)

	a0Body := map[string]any{
		"dataset": "pts", "alpha": 0.0, "size": 200, "kernels": 64, "seed": 42,
	}
	respA0, bodyA0 := postJSON(t, ts.URL+"/v1/sample", a0Body)
	if respA0.StatusCode != http.StatusOK {
		t.Fatalf("a0 warm: %d: %s", respA0.StatusCode, bodyA0)
	}

	release, err := srv.adm.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// Same (dataset, size, kernels, seed) at alpha=1: shed, degraded.
	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded: %d, want 200: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(DegradedHeader); got != "a0" {
		t.Errorf("X-DBS-Degraded = %q, want a0", got)
	}
	if got := resp.Header.Get("X-DBS-Cache"); got != "hit" {
		t.Errorf("degraded X-DBS-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, bodyA0) {
		t.Error("degraded body differs from the ordinary a=0 response (must be byte-identical)")
	}
	if got := srv.rec.Counter(CtrDegraded).Value(); got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}

	// Different seed: no a=0 artifact cached, so the shed stays a 429
	// with a Retry-After hint.
	cold := map[string]any{
		"dataset": "pts", "alpha": 1.0, "size": 200, "kernels": 64, "seed": 7,
	}
	respCold, _ := postJSON(t, ts.URL+"/v1/sample", cold)
	if respCold.StatusCode != http.StatusTooManyRequests {
		t.Errorf("cold degrade status = %d, want 429", respCold.StatusCode)
	}
	if respCold.Header.Get("Retry-After") == "" {
		t.Error("cold-degrade 429 carries no Retry-After")
	}

	var health healthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Degraded != 1 {
		t.Errorf("healthz degraded = %d, want 1", health.Degraded)
	}
}

// TestDegradedSampleServedFromDisk: after a restart over the same disk
// tier, the degrade ladder finds the a=0 rung on disk. A shed alpha=1
// request gets 200, X-DBS-Degraded: a0 and X-DBS-Cache: disk, with the
// bytes of the ordinary a=0 response and no build.
func TestDegradedSampleServedFromDisk(t *testing.T) {
	dir := t.TempDir()
	a0Body := map[string]any{
		"dataset": "pts", "alpha": 0.0, "size": 200, "kernels": 64, "seed": 42,
	}
	_, ts1, _ := newTestServer(t, Config{Parallelism: 2, Disk: mustDiskTier(t, dir)}, 2000)
	respA0, bodyA0 := postJSON(t, ts1.URL+"/v1/sample", a0Body)
	if respA0.StatusCode != http.StatusOK {
		t.Fatalf("a0 warm: %d: %s", respA0.StatusCode, bodyA0)
	}
	ts1.Close()

	srv, ts, _ := newTestServer(t, Config{
		Parallelism: 2, MaxInFlight: 1, MaxQueue: -1, DegradeOK: true,
		Disk: mustDiskTier(t, dir),
	}, 2000)
	release, err := srv.adm.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded: %d, want 200: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(DegradedHeader); got != "a0" {
		t.Errorf("X-DBS-Degraded = %q, want a0", got)
	}
	if got := resp.Header.Get("X-DBS-Cache"); got != "disk" {
		t.Errorf("degraded X-DBS-Cache = %q, want disk", got)
	}
	if !bytes.Equal(body, bodyA0) {
		t.Error("degraded body differs from the ordinary a=0 response (must be byte-identical)")
	}
	if got := srv.rec.Counter(CtrDegraded).Value(); got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}
	if got := srv.rec.Counter(CtrKDEBuilds).Value(); got != 0 {
		t.Errorf("degraded serve ran %d KDE builds, want 0", got)
	}
}

// TestRetryAfterHintTracksQueueWait is the regression test for the
// hardcoded Retry-After constants: the hint must follow the observed
// queue-wait distribution — fallback before any observation, the
// (clamped, rounded) histogram quantile after.
func TestRetryAfterHintTracksQueueWait(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1, Deadline: 5 * time.Second}, 100)
	release, err := srv.adm.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// No queue waits observed yet: the 429 falls back to 1s.
	resp, _ := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("empty-histogram 429 Retry-After = %q, want fallback 1", got)
	}

	// Seed the histogram with ~7s queue waits; the median-derived hint
	// must move off the fallback and match the derived value exactly.
	for i := 0; i < 16; i++ {
		srv.observeQueueWait(DefaultTenant, 7400*time.Millisecond)
	}
	want := srv.retryAfterHint(0.50, 1)
	if n, err := strconv.Atoi(want); err != nil || n < 2 || n > 30 {
		t.Fatalf("derived hint %q not in (1, 30]", want)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if got := resp.Header.Get("Retry-After"); got != want {
		t.Errorf("seeded 429 Retry-After = %q, want %q (median of observed waits)", got, want)
	}

	// Queue waits beyond the cap clamp to 30s.
	for i := 0; i < 64; i++ {
		srv.observeQueueWait(DefaultTenant, 5*time.Minute)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Errorf("clamped 429 Retry-After = %q, want 30", got)
	}
}

// TestRetryAfter503UsesTailQuantile pins the 503 side: a queued request
// whose deadline expires gets a p99-derived hint, with the deadline-
// derived fallback before any observation.
func TestRetryAfter503UsesTailQuantile(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 4, Deadline: 60 * time.Millisecond}, 100)
	release, err := srv.adm.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, _ := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	first := resp.Header.Get("Retry-After")
	if first == "" {
		t.Fatal("503 carries no Retry-After")
	}
	// That expiry itself was not a granted queue wait, so the histogram
	// only fills via observeQueueWait; seed a heavy tail and re-check.
	for i := 0; i < 32; i++ {
		srv.observeQueueWait(DefaultTenant, 11*time.Second)
	}
	want := srv.retryAfterHint(0.99, 1)
	resp, _ = postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if got := resp.Header.Get("Retry-After"); got != want {
		t.Errorf("tail-seeded 503 Retry-After = %q, want %q", got, want)
	}
}

// TestTenantHeaderRoutesAdmission exercises the tenant plumbing at the
// HTTP layer: per-tenant queue caps shed with a tenant-named error while
// other tenants sail through, and /healthz reports the per-tenant split.
func TestTenantHeaderRoutesAdmission(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		MaxInFlight: 4, MaxQueue: 16, Deadline: 5 * time.Second,
		Tenants: map[string]TenantPolicy{
			"capped": {Weight: 1, MaxInFlight: 1, MaxQueue: 1},
		},
	}, 100)

	// Occupy capped's only slot directly at the admission layer.
	release, _, err := srv.adm.EnterTenant(context.Background(), "capped")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// One capped request queues (fills the per-tenant queue)…
	queuedDone := make(chan int, 1)
	go func() {
		resp, _ := postTenant(t, ts.URL+"/v1/sample", "capped", sampleBody)
		queuedDone <- resp.StatusCode
	}()
	waitFor(t, func() bool { return srv.adm.Queued() == 1 })

	// …so the next capped request sheds with the tenant named, while an
	// untagged request admits immediately.
	resp, body := postTenant(t, ts.URL+"/v1/sample", "capped", sampleBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`capped`)) {
		t.Errorf("shed body %q does not name the tenant", body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
		t.Errorf("untagged request during capped saturation: %d: %s", resp.StatusCode, body)
	}

	release()
	if code := <-queuedDone; code != http.StatusOK {
		t.Errorf("queued capped request finished %d, want 200", code)
	}

	var health healthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	var capped *TenantStats
	for i := range health.Tenants {
		if health.Tenants[i].Tenant == "capped" {
			capped = &health.Tenants[i]
		}
	}
	if capped == nil {
		t.Fatalf("healthz tenants = %+v, want a capped entry", health.Tenants)
	}
	if capped.ShedQueueFull != 1 || capped.Admitted == 0 {
		t.Errorf("capped stats = %+v, want shed_queue_full=1 and admissions", capped)
	}
	if health.QueueWait == nil || health.QueueWait.Count == 0 {
		t.Errorf("healthz queue_wait = %+v, want observed waits", health.QueueWait)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetryAfterColdStart is the cold-start audit for the hint: with a
// completely empty server_queue_seconds histogram (no request has ever
// completed, let alone queued), both the 429 and the 503 paths must fall
// back to their fixed hints — a parseable integer ≥ 1, never "0", "NaN",
// or an empty header.
func TestRetryAfterColdStart(t *testing.T) {
	// 429 side: queue disabled, the single slot occupied out-of-band.
	srv, ts, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1, Deadline: 5 * time.Second}, 100)
	if h := srv.rec.Histogram(HistQueueSeconds); h.Count() != 0 {
		t.Fatalf("queue histogram pre-seeded with %d observations", h.Count())
	}
	release, err := srv.adm.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	release()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	checkColdHint(t, "429", resp.Header.Get("Retry-After"))

	// 503 side: a queued request whose deadline expires before any
	// completion has been observed.
	srv2, ts2, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 4, Deadline: 60 * time.Millisecond}, 100)
	release2, err := srv2.adm.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp2, _ := postJSON(t, ts2.URL+"/v1/sample", sampleBody)
	release2()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp2.StatusCode)
	}
	checkColdHint(t, "503", resp2.Header.Get("Retry-After"))

	// The hint derivation itself, straight against an empty histogram at
	// both quantiles, including a pathological fallback of 0: the clamp
	// floor must hold.
	for _, q := range []float64{0.50, 0.99} {
		for _, fb := range []int64{0, 1, 5} {
			got := srv.retryAfterHint(q, fb)
			n, err := strconv.ParseInt(got, 10, 64)
			if err != nil || n < 1 || n > 30 {
				t.Errorf("retryAfterHint(%v, %d) over empty histogram = %q, want integer in [1,30]", q, fb, got)
			}
		}
	}
}

func checkColdHint(t *testing.T, status, got string) {
	t.Helper()
	if got == "" {
		t.Fatalf("cold-start %s carries no Retry-After", status)
	}
	n, err := strconv.ParseInt(got, 10, 64)
	if err != nil {
		t.Fatalf("cold-start %s Retry-After = %q, not an integer", status, got)
	}
	if n < 1 {
		t.Errorf("cold-start %s Retry-After = %d, want ≥ 1", status, n)
	}
}
