package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// newTestServer starts an httptest server with dataset "pts" registered
// (n in-memory points, 2-d). The returned InMemory exposes Passes() so
// tests can assert exactly how many dataset scans a request sequence ran.
func newTestServer(t *testing.T, cfg Config, n int) (*Server, *httptest.Server, *dataset.InMemory) {
	t.Helper()
	srv := New(cfg)
	mem := dataset.MustInMemory(testPoints(n, 2, 11))
	if err := srv.Registry().RegisterDataset("pts", mem); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, mem
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
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

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

var sampleBody = map[string]any{
	"dataset": "pts", "alpha": 1.0, "size": 200, "kernels": 64, "seed": 42,
}

func TestSampleCacheHitSkipsAllPasses(t *testing.T) {
	srv, ts, mem := newTestServer(t, Config{Parallelism: 2}, 4000)

	resp1, body1 := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first: %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-DBS-Cache"); got != "miss" {
		t.Errorf("first X-DBS-Cache = %q, want miss", got)
	}
	passes := mem.Passes()
	builds := srv.rec.Counter(CtrKDEBuilds).Value()
	dataPasses := srv.rec.Counter(obs.CtrDataPasses).Value()
	if builds != 1 {
		t.Errorf("kde builds after first request = %d, want 1", builds)
	}

	for i := 0; i < 3; i++ {
		resp2, body2 := postJSON(t, ts.URL+"/v1/sample", sampleBody)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("repeat %d: %d: %s", i, resp2.StatusCode, body2)
		}
		if got := resp2.Header.Get("X-DBS-Cache"); got != "hit" {
			t.Errorf("repeat %d X-DBS-Cache = %q, want hit", i, got)
		}
		if !bytes.Equal(body1, body2) {
			t.Errorf("repeat %d body differs from first (cache must be invisible in the bytes)", i)
		}
	}
	// The whole point of the artifact cache: repeats run zero dataset
	// passes and zero estimator builds — every counter stays flat.
	if got := mem.Passes(); got != passes {
		t.Errorf("dataset passes grew %d -> %d across cache hits", passes, got)
	}
	if got := srv.rec.Counter(CtrKDEBuilds).Value(); got != builds {
		t.Errorf("kde builds grew %d -> %d across cache hits", builds, got)
	}
	if got := srv.rec.Counter(obs.CtrDataPasses).Value(); got != dataPasses {
		t.Errorf("recorded data passes grew %d -> %d across cache hits", dataPasses, got)
	}
	if st := srv.cache.Stats(); st.Hits < 3 {
		t.Errorf("cache hits = %d, want >= 3", st.Hits)
	}
}

func TestSampleBitIdenticalAcrossWorkerCountsAndCacheState(t *testing.T) {
	path := testFile(t, 3000, 3)
	bodies := map[int][]byte{}
	for _, par := range []int{1, 4} {
		srv := New(Config{Parallelism: par})
		if err := srv.Registry().RegisterPath("pts", path); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("p=%d: %d: %s", par, resp.StatusCode, body)
		}
		// The cache-hit response must be the same bytes as the cold one.
		_, repeat := postJSON(t, ts.URL+"/v1/sample", sampleBody)
		if !bytes.Equal(body, repeat) {
			t.Errorf("p=%d: hit and miss bodies differ", par)
		}
		bodies[par] = body
		ts.Close()
	}
	if !bytes.Equal(bodies[1], bodies[4]) {
		t.Error("serial and parallel servers returned different bytes for identical (dataset, params, seed)")
	}
}

func TestSaturatedReturns429WithinDeadline(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1, Deadline: 5 * time.Second}, 100)
	// Occupy the only slot so the next request finds server saturated.
	release, err := srv.adm.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("shed took %v; a saturated server must answer promptly", elapsed)
	}
	if srv.adm.Shed() == 0 {
		t.Error("shed counter not incremented")
	}
	if srv.adm.ShedQueueFull() != 1 || srv.adm.ShedExpired() != 0 {
		t.Errorf("shed split = (full %d, expired %d), want (1, 0)",
			srv.adm.ShedQueueFull(), srv.adm.ShedExpired())
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("429 carries no Retry-After header")
	}
	if !strings.Contains(string(body), "saturated") {
		t.Errorf("body %q does not mention saturation", body)
	}
}

// TestQueuedRequestTimesOutAt503 pins the shed-vs-deadline split at the
// HTTP layer: a deadline that expires while queued is an overload signal
// (503 + Retry-After), not a 429, and lands in the expired shed counter.
func TestQueuedRequestTimesOutAt503(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 4, Deadline: 50 * time.Millisecond}, 100)
	release, err := srv.adm.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("queued-expiry 503 carries no Retry-After header")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("queued shed took %v, want about the 50ms deadline", elapsed)
	}
	if srv.adm.ShedExpired() != 1 || srv.adm.ShedQueueFull() != 0 {
		t.Errorf("shed split = (full %d, expired %d), want (0, 1)",
			srv.adm.ShedQueueFull(), srv.adm.ShedExpired())
	}
}

func TestDeadlineExpiryReturns504(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Deadline: time.Nanosecond}, 20000)
	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
}

func TestHealthzAndDraining(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{}, 500)
	// Warm one route so the health report carries a latency digest.
	if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", resp.StatusCode, body)
	}
	var health healthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Datasets != 1 {
		t.Errorf("health = %+v", health)
	}
	lat, ok := health.Latency["/v1/sample"]
	if !ok || lat.Count != 1 || lat.P99ms < lat.P50ms {
		t.Errorf("latency digest = %+v", health.Latency)
	}

	srv.StartDraining()
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	if health.Status != "draining" {
		t.Errorf("health.Status = %q, want draining", health.Status)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining sample status = %d, want 503", resp.StatusCode)
	}
}

func TestDatasetRegistrationLifecycle(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, 100)

	// Upload a CSV dataset.
	csv := "1,2\n3,4\n5,6\n7,8\n"
	resp, err := http.Post(ts.URL+"/v1/datasets?name=csvset", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("csv upload: %d", resp.StatusCode)
	}

	// Upload the binary codec stream.
	var buf bytes.Buffer
	if err := dataset.WriteBinary(&buf, dataset.MustInMemory(testPoints(50, 2, 5))); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/datasets?name=binset", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("binary upload: %d", resp.StatusCode)
	}

	// Register by path.
	resp, body := postJSON(t, ts.URL+"/v1/datasets", registerRequest{Name: "fileset", Path: testFile(t, 60, 2)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("path registration: %d: %s", resp.StatusCode, body)
	}
	// Duplicate name conflicts.
	if resp, _ := postJSON(t, ts.URL+"/v1/datasets", registerRequest{Name: "fileset", Path: testFile(t, 60, 2)}); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate registration status = %d, want 409", resp.StatusCode)
	}

	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	getJSON(t, ts.URL+"/v1/datasets", &list)
	if len(list.Datasets) != 4 {
		t.Fatalf("listed %d datasets, want 4: %+v", len(list.Datasets), list.Datasets)
	}

	// A registered upload serves samples.
	body4 := map[string]any{"dataset": "binset", "alpha": 0.5, "size": 10, "kernels": 16, "seed": 1}
	if resp, data := postJSON(t, ts.URL+"/v1/sample", body4); resp.StatusCode != http.StatusOK {
		t.Fatalf("sample from upload: %d: %s", resp.StatusCode, data)
	}

	// Delete and confirm 404 afterwards.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/csvset", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("delete: %d, want 204", dresp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/sample", map[string]any{"dataset": "csvset", "alpha": 1.0, "size": 5}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("sample from deleted dataset: %d, want 404", resp.StatusCode)
	}
}

func TestClusterSharesSampleArtifact(t *testing.T) {
	_, ts, mem := newTestServer(t, Config{Parallelism: 2}, 2000)
	if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", resp.StatusCode, body)
	}
	passes := mem.Passes()

	cluster := map[string]any{
		"dataset": "pts", "alpha": 1.0, "size": 200, "kernels": 64, "seed": 42, "k": 4,
	}
	resp, body1 := postJSON(t, ts.URL+"/v1/cluster", cluster)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster: %d: %s", resp.StatusCode, body1)
	}
	// Same (dataset, sampling params, seed): the cluster request reuses
	// the cached sample and runs zero additional dataset passes.
	if got := resp.Header.Get("X-DBS-Cache"); got != "hit" {
		t.Errorf("cluster X-DBS-Cache = %q, want hit (sample artifact shared)", got)
	}
	if got := mem.Passes(); got != passes {
		t.Errorf("cluster over cached sample grew passes %d -> %d", passes, got)
	}
	var cr clusterResponse
	if err := json.Unmarshal(body1, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.K != 4 || len(cr.Clusters) != 4 || cr.SampleSize == 0 {
		t.Errorf("cluster response: k=%d clusters=%d sample=%d", cr.K, len(cr.Clusters), cr.SampleSize)
	}
	// Deterministic repeat.
	if _, body2 := postJSON(t, ts.URL+"/v1/cluster", cluster); !bytes.Equal(body1, body2) {
		t.Error("repeated cluster request returned different bytes")
	}
}

func TestOutlierEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Parallelism: 2}, 1500)
	req := map[string]any{
		"dataset": "pts", "radius": 0.05, "p": 2, "kernels": 64, "seed": 42, "method": "estimate",
	}
	resp, body1 := postJSON(t, ts.URL+"/v1/outliers", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: %d: %s", resp.StatusCode, body1)
	}
	// The estimator was built by this request (miss), and is reused by
	// the next one (hit) — approx shares it with estimate.
	if got := resp.Header.Get("X-DBS-Cache"); got != "miss" {
		t.Errorf("first outliers X-DBS-Cache = %q, want miss", got)
	}
	req["method"] = "approx"
	resp, body2 := postJSON(t, ts.URL+"/v1/outliers", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("approx: %d: %s", resp.StatusCode, body2)
	}
	if got := resp.Header.Get("X-DBS-Cache"); got != "hit" {
		t.Errorf("approx X-DBS-Cache = %q, want hit (estimator shared)", got)
	}
	var or outlierResponse
	if err := json.Unmarshal(body2, &or); err != nil {
		t.Fatal(err)
	}
	if or.Method != "approx" || or.DataPasses == 0 {
		t.Errorf("outlier response: %+v", or)
	}
	// Deterministic repeat.
	if _, body3 := postJSON(t, ts.URL+"/v1/outliers", req); !bytes.Equal(body2, body3) {
		t.Error("repeated outlier request returned different bytes")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, 100)
	cases := []struct {
		name string
		url  string
		body map[string]any
		want int
	}{
		{"unknown dataset", "/v1/sample", map[string]any{"dataset": "nope", "alpha": 1.0, "size": 5}, http.StatusNotFound},
		{"missing dataset", "/v1/sample", map[string]any{"alpha": 1.0, "size": 5}, http.StatusBadRequest},
		{"bad size", "/v1/sample", map[string]any{"dataset": "pts", "alpha": 1.0, "size": 0}, http.StatusBadRequest},
		{"bad kernel", "/v1/sample", map[string]any{"dataset": "pts", "alpha": 1.0, "size": 5, "kernel": "nope"}, http.StatusBadRequest},
		{"unknown field", "/v1/sample", map[string]any{"dataset": "pts", "alpha": 1.0, "size": 5, "bogus": 1}, http.StatusBadRequest},
		{"bad k", "/v1/cluster", map[string]any{"dataset": "pts", "alpha": 1.0, "size": 5, "k": 0}, http.StatusBadRequest},
		{"bad method", "/v1/outliers", map[string]any{"dataset": "pts", "radius": 0.1, "p": 1, "method": "nope"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if resp, body := postJSON(t, ts.URL+tc.url, tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d: %s", tc.name, resp.StatusCode, tc.want, body)
		}
	}
}

func TestMetricsExposesServerCounters(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, 300)
	if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{CtrRequests, CtrCacheMiss, CtrKDEBuilds, obs.CtrDataPasses, GaugeInFlight} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// scrapeMetrics reads the server's /metrics exposition, served in
// process, keyed by series name.
func scrapeMetrics(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(w.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		out[strings.TrimPrefix(name, obs.PromPrefix)] = v
	}
	return out
}

// TestMetricsMatchHealthz drives concurrent misses, hits, disk loads,
// evictions (a cache budget of a few artifacts over a disk tier) and
// sheds (one in-flight slot, one queue place) and then requires every
// cache and admission series on /metrics to equal its /healthz field
// exactly, with nothing left in flight.
func TestMetricsMatchHealthz(t *testing.T) {
	disk, err := NewDiskTier(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, _ := newTestServer(t, Config{Parallelism: 1, CacheBytes: 48 << 10, Disk: disk, MaxInFlight: 1, MaxQueue: 1}, 2000)
	var health healthResponse
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					raw, _ := json.Marshal(map[string]any{
						"dataset": "pts", "alpha": []float64{1, 0.5}[i%2], "size": 100, "kernels": 32,
						"seed": 1 + (round+w+i)%4,
					})
					srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/sample", bytes.NewReader(raw)))
				}
			}(w)
		}
		wg.Wait()
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		health = healthResponse{}
		if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil {
			t.Fatal(err)
		}
		st := health.Cache
		if round >= 4 && st.Hits > 0 && st.Misses > 0 && st.DiskHits > 0 && st.Evictions > 0 && health.Shed > 0 {
			break
		}
	}
	st := health.Cache
	if st.Hits == 0 || st.Misses == 0 || st.DiskHits == 0 || st.Evictions == 0 || health.Shed == 0 {
		t.Fatalf("traffic missed an event kind: cache %+v, shed %d", st, health.Shed)
	}
	m := scrapeMetrics(t, srv)
	for name, want := range map[string]int64{
		CtrCacheHit:      st.Hits,
		CtrCacheMiss:     st.Misses,
		CtrCacheDisk:     st.DiskHits,
		CtrCacheEvict:    st.Evictions,
		GaugeCacheBytes:  st.Bytes,
		CtrShed:          health.Shed,
		CtrShedFull:      health.ShedQueueFull,
		CtrShedExpired:   health.ShedExpired,
		CtrShedPreempted: health.ShedPreempted,
		GaugeInFlight:    health.InFlight,
	} {
		got, ok := m[name]
		if !ok || got != float64(want) {
			t.Errorf("/metrics %s = %v (present %t), /healthz %d", name, got, ok, want)
		}
	}
	if m[GaugeInFlight] != 0 {
		t.Errorf("%s = %v after every request finished, want 0", GaugeInFlight, m[GaugeInFlight])
	}
}

// TestConcurrentIdenticalRequests exercises the singleflight, the shared
// estimator, the atomic pass counters, and the recorder rollup under the
// race detector: all responses must be the same bytes.
func TestConcurrentIdenticalRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Parallelism: 2, MaxInFlight: 8, MaxQueue: 32}, 3000)
	const n = 12
	bodies := make([][]byte, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			raw, _ := json.Marshal(sampleBody)
			resp, err := http.Post(ts.URL+"/v1/sample", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], err = io.ReadAll(resp.Body)
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}
