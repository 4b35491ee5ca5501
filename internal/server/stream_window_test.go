package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// streamServer starts an httptest server with no datasets registered —
// streams are created through POST /v1/streams/{name}/append.
func streamServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func streamAppend(t *testing.T, url, name string, pts []geom.Point) streamAppendResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/streams/"+name+"/append", appendBody(pts))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream append: %d: %s", resp.StatusCode, body)
	}
	var ar streamAppendResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("decoding stream append response: %v: %s", err, body)
	}
	return ar
}

func TestStreamAppendAutoCreateAndWindow(t *testing.T) {
	_, ts := streamServer(t, Config{Parallelism: 2, WindowPoints: 500})

	ar := streamAppend(t, ts.URL, "s", testPoints(300, 2, 1))
	if ar.Generation != 0 || ar.Points != 300 || ar.Added != 300 {
		t.Fatalf("first append = %+v, want gen 0, 300 points, 300 added", ar)
	}
	if ar.WindowStart != 0 || ar.WindowLen != 300 {
		t.Errorf("first window = [%d, +%d), want [0, +300) (shorter than the window)", ar.WindowStart, ar.WindowLen)
	}

	ar = streamAppend(t, ts.URL, "s", testPoints(300, 2, 2))
	if ar.Generation != 1 || ar.Points != 600 || ar.Added != 300 {
		t.Fatalf("second append = %+v, want gen 1, 600 points, 300 added", ar)
	}
	if ar.WindowStart != 100 || ar.WindowLen != 500 {
		t.Errorf("second window = [%d, +%d), want [100, +500)", ar.WindowStart, ar.WindowLen)
	}

	// Empty bodies are rejected before any registration.
	resp, body := postJSON(t, ts.URL+"/v1/streams/empty/append", appendBody(nil))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty append: %d: %s, want 400", resp.StatusCode, body)
	}
}

// TestWindowSampleByteIdentityVsFreshRegistration pins the window-evict
// determinism contract: sampling a windowed stream must be byte-identical
// to registering the window's rows as a fresh dataset — at every worker
// count. The window must be invisible in the bytes: same fingerprint,
// same points, same norm.
func TestWindowSampleByteIdentityVsFreshRegistration(t *testing.T) {
	const w = 800
	all := testPoints(1250, 3, 99)
	batches := [][]geom.Point{all[:400], all[400:750], all[750:]}
	body := map[string]any{"dataset": "s", "alpha": 1.0, "size": 150, "kernels": 48, "seed": 7}

	var want []byte
	for _, par := range []int{1, 8} {
		_, tsA := streamServer(t, Config{Parallelism: par, WindowPoints: w})
		for _, b := range batches {
			streamAppend(t, tsA.URL, "s", b)
		}
		respA, bodyA := postJSON(t, tsA.URL+"/v1/sample", body)
		if respA.StatusCode != http.StatusOK {
			t.Fatalf("par %d windowed sample: %d: %s", par, respA.StatusCode, bodyA)
		}

		srvB, tsB := streamServer(t, Config{Parallelism: par})
		tail := make([]geom.Point, w)
		copy(tail, all[len(all)-w:])
		if err := srvB.Registry().RegisterDataset("s", dataset.MustInMemory(tail)); err != nil {
			t.Fatal(err)
		}
		respB, bodyB := postJSON(t, tsB.URL+"/v1/sample", body)
		if respB.StatusCode != http.StatusOK {
			t.Fatalf("par %d fresh sample: %d: %s", par, respB.StatusCode, bodyB)
		}

		if !bytes.Equal(bodyA, bodyB) {
			t.Errorf("par %d: windowed sample differs from fresh registration of the window's rows\nwindowed: %.200s\nfresh:    %.200s", par, bodyA, bodyB)
		}
		if want == nil {
			want = bodyA
		} else if !bytes.Equal(want, bodyA) {
			t.Errorf("par %d: windowed sample differs from par 1", par)
		}
	}
}

// TestWindowCacheKeysAcrossAppends pins cache correctness over a live
// stream: repeats of the same window hit the cache, and an append that
// slides the window must miss — the window fingerprint is part of the
// key, so a stale artifact can never be served as fresh.
func TestWindowCacheKeysAcrossAppends(t *testing.T) {
	_, ts := streamServer(t, Config{Parallelism: 2, WindowPoints: 600})
	streamAppend(t, ts.URL, "s", testPoints(500, 2, 5))
	streamAppend(t, ts.URL, "s", testPoints(400, 2, 6))
	body := map[string]any{"dataset": "s", "alpha": 1.0, "size": 100, "kernels": 32, "seed": 3}

	resp1, body1 := postJSON(t, ts.URL+"/v1/sample", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first sample: %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-DBS-Cache"); got != "miss" {
		t.Errorf("first X-DBS-Cache = %q, want miss", got)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/sample", body)
	if got := resp2.Header.Get("X-DBS-Cache"); got != "hit" {
		t.Errorf("repeat X-DBS-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit changed the bytes")
	}

	streamAppend(t, ts.URL, "s", testPoints(300, 2, 7))
	resp3, body3 := postJSON(t, ts.URL+"/v1/sample", body)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-append sample: %d: %s", resp3.StatusCode, body3)
	}
	if got := resp3.Header.Get("X-DBS-Cache"); got != "miss" {
		t.Errorf("post-append X-DBS-Cache = %q, want miss (window slid, new fingerprint)", got)
	}
	if decodeSample(t, body1).Fingerprint == decodeSample(t, body3).Fingerprint {
		t.Error("fingerprint unchanged after the window slid")
	}
	if resp4, _ := postJSON(t, ts.URL+"/v1/sample", body); resp4.Header.Get("X-DBS-Cache") != "hit" {
		t.Errorf("post-append repeat X-DBS-Cache = %q, want hit", resp4.Header.Get("X-DBS-Cache"))
	}
}

// TestDurationWindow drives a duration-windowed stream with a fake clock:
// generations age out generation-granularly, and when everything is stale
// the newest generation is still served.
func TestDurationWindow(t *testing.T) {
	srv, ts := streamServer(t, Config{Parallelism: 2, WindowDur: time.Minute})
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	now := base
	srv.nowFn = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advanceTo := func(d time.Duration) {
		mu.Lock()
		now = base.Add(d)
		mu.Unlock()
	}

	all := testPoints(600, 2, 44)
	streamAppend(t, ts.URL, "s", all[:200])
	advanceTo(30 * time.Second)
	streamAppend(t, ts.URL, "s", all[200:400])
	advanceTo(90 * time.Second)
	ar := streamAppend(t, ts.URL, "s", all[400:])
	// Cutoff is t+30s: generation 0 (t+0) is stale, generation 1 (t+30s)
	// is exactly on the boundary and kept.
	if ar.WindowStart != 200 || ar.WindowLen != 400 {
		t.Errorf("window after third append = [%d, +%d), want [200, +400)", ar.WindowStart, ar.WindowLen)
	}

	body := map[string]any{"dataset": "s", "alpha": 1.0, "size": 80, "kernels": 32, "seed": 9}
	resp1, body1 := postJSON(t, ts.URL+"/v1/sample", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", resp1.StatusCode, body1)
	}

	// Far in the future everything is stale; the newest generation is
	// still served rather than an empty window.
	advanceTo(10 * time.Minute)
	resp2, body2 := postJSON(t, ts.URL+"/v1/sample", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("stale sample: %d: %s", resp2.StatusCode, body2)
	}
	if bytes.Equal(body1, body2) {
		t.Error("sample unchanged after the window aged from 2 generations to 1")
	}

	srvB, tsB := streamServer(t, Config{Parallelism: 2})
	tail := make([]geom.Point, 200)
	copy(tail, all[400:])
	if err := srvB.Registry().RegisterDataset("s", dataset.MustInMemory(tail)); err != nil {
		t.Fatal(err)
	}
	respB, bodyB := postJSON(t, tsB.URL+"/v1/sample", body)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("fresh sample: %d: %s", respB.StatusCode, bodyB)
	}
	if !bytes.Equal(body2, bodyB) {
		t.Error("all-stale window differs from fresh registration of the newest generation")
	}
}

// TestStreamDeleteRecreateServesFreshWindow pins that stream state goes
// with DELETE. A stream re-created under a deleted stream's name reaches
// the same (generation, window start) pairs with different rows; it must
// be keyed by its own window's fingerprint — a miss whose bytes equal a
// fresh registration of its window — never by the deleted stream's.
func TestStreamDeleteRecreateServesFreshWindow(t *testing.T) {
	const w = 500
	_, ts := streamServer(t, Config{Parallelism: 2, WindowPoints: w})
	body := map[string]any{"dataset": "s", "alpha": 1.0, "size": 100, "kernels": 32, "seed": 5}
	streamAppend(t, ts.URL, "s", testPoints(400, 2, 1))
	streamAppend(t, ts.URL, "s", testPoints(400, 2, 2))
	resp, old := postJSON(t, ts.URL+"/v1/sample", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first stream's sample: %d: %s", resp.StatusCode, old)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/s", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", dresp.StatusCode)
	}

	rows := append(testPoints(400, 2, 3), testPoints(400, 2, 4)...)
	streamAppend(t, ts.URL, "s", rows[:400])
	streamAppend(t, ts.URL, "s", rows[400:])
	resp, got := postJSON(t, ts.URL+"/v1/sample", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-created stream's sample: %d: %s", resp.StatusCode, got)
	}
	if c := resp.Header.Get("X-DBS-Cache"); c != "miss" {
		t.Errorf("re-created stream's X-DBS-Cache = %q, want miss", c)
	}
	if decodeSample(t, got).Fingerprint == decodeSample(t, old).Fingerprint {
		t.Error("re-created stream served under the deleted stream's window fingerprint")
	}

	srvB, tsB := streamServer(t, Config{Parallelism: 2})
	tail := make([]geom.Point, w)
	copy(tail, rows[len(rows)-w:])
	if err := srvB.Registry().RegisterDataset("s", dataset.MustInMemory(tail)); err != nil {
		t.Fatal(err)
	}
	respB, want := postJSON(t, tsB.URL+"/v1/sample", body)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("fresh sample: %d: %s", respB.StatusCode, want)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-created stream's sample differs from a fresh registration of its window\nstream: %.200s\nfresh:  %.200s", got, want)
	}
}

// TestStreamConcurrentAppendAndSample drives a stream's per-registration
// state — the append watermarks and the window-fingerprint memo — from
// concurrent appends and samples (run it under the race detector), then
// checks that the memo settled on the newest window: the sample's
// fingerprint is the content fingerprint of the stream's last w rows.
func TestStreamConcurrentAppendAndSample(t *testing.T) {
	const w = 300
	srv, ts := streamServer(t, Config{Parallelism: 2, WindowPoints: w, WindowDur: time.Hour})
	streamAppend(t, ts.URL, "s", testPoints(200, 2, 1))
	body := map[string]any{"dataset": "s", "alpha": 1.0, "size": 50, "kernels": 16, "seed": 3}
	post := func(url string, v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s: %d", url, resp.StatusCode)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				post(ts.URL+"/v1/streams/s/append", appendBody(testPoints(60, 2, uint64(10*i+j+2))))
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				post(ts.URL+"/v1/sample", body)
			}
		}()
	}
	wg.Wait()

	resp, got := postJSON(t, ts.URL+"/v1/sample", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final sample: %d: %s", resp.StatusCode, got)
	}
	h, err := srv.Registry().Acquire("s")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if n := h.Dataset().Len(); n != 800 {
		t.Fatalf("stream holds %d rows, want 800", n)
	}
	tail, err := dataset.Window(h.Appendable(), 800-w, 800)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dataset.Fingerprint(tail, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fp := decodeSample(t, got).Fingerprint; fp != fmt.Sprintf("%016x", want) {
		t.Errorf("final window fingerprint %s, want %016x (the last %d rows)", fp, want, w)
	}
}
