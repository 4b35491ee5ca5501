package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// sampleResponse is the /v1/sample success body as a struct: the shape
// tests decode, and, through marshalSampleResponse, the oracle the
// stored body tail is pinned to.
type sampleResponse struct {
	Dataset     string        `json:"dataset"`
	Fingerprint string        `json:"fingerprint"`
	Alpha       float64       `json:"alpha"`
	Norm        float64       `json:"norm"`
	DataPasses  int           `json:"data_passes"`
	Saturated   int           `json:"saturated"`
	Count       int           `json:"count"`
	Points      []samplePoint `json:"points"`
}

type samplePoint struct {
	P geom.Point `json:"p"`
	W float64    `json:"w"`
}

// marshalSampleResponse writes the success body the way encoding/json
// does: the response struct through writeJSON.
func marshalSampleResponse(w http.ResponseWriter, name string, alpha float64, fp uint64, sm *core.Sample) {
	pts := make([]samplePoint, len(sm.Points))
	for i, wp := range sm.Points {
		pts[i] = samplePoint{P: wp.P, W: wp.W}
	}
	writeJSON(w, http.StatusOK, sampleResponse{
		Dataset:     name,
		Fingerprint: fmt.Sprintf("%016x", fp),
		Alpha:       alpha,
		Norm:        sm.Norm,
		DataPasses:  sm.DataPasses,
		Saturated:   sm.Saturated,
		Count:       len(pts),
		Points:      pts,
	})
}

// FuzzSampleBody pins the assembled /v1/sample body — `{"dataset":`, the
// quoted name, the stored tail — to encoding/json's bytes for the same
// response: status, headers and body, for any dataset name (HTML
// characters, U+2028, invalid UTF-8) and any float (signed zeros, both
// notation cut-offs, subnormals, the 25-byte longest form, non-finite
// values that json.Marshal refuses). A second write from the same
// artifact serves the stored bytes, and a stored tail never outgrows the
// bound the cache charges for it. The seed corpus is in
// testdata/fuzz/FuzzSampleBody.
func FuzzSampleBody(f *testing.F) {
	f.Add("pts", uint64(0x0123456789abcdef), 1.0, 4000.0, 0.25, 0.75, 20.0, 2, 0, uint8(2))
	f.Fuzz(func(t *testing.T, name string, fp uint64, alpha, norm, x, y, w float64, passes, saturated int, count uint8) {
		pts := []dataset.WeightedPoint{
			{P: geom.Point{x, y}, W: w},
			{P: geom.Point{y, w, alpha}, W: norm},
			{P: nil, W: x},
			{P: geom.Point{}, W: y},
		}
		sm := &core.Sample{
			Points:     pts[:int(count)%(len(pts)+1)],
			Norm:       norm,
			DataPasses: passes,
			Saturated:  saturated,
		}
		want := httptest.NewRecorder()
		marshalSampleResponse(want, name, alpha, fp, sm)
		art := &sampleArtifact{s: sm}
		for i := 0; i < 2; i++ {
			got := httptest.NewRecorder()
			writeSampleResponse(got, name, art, alpha, fp)
			if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) {
				t.Fatalf("write %d: status %d %v, want %d %v", i, got.Code, got.Header(), want.Code, want.Header())
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("write %d:\n got %q\nwant %q", i, got.Body.Bytes(), want.Body.Bytes())
			}
		}
		coords := 0
		for _, wp := range sm.Points {
			coords += len(wp.P)
		}
		if tail, err := art.tail(alpha, fp); err == nil && int64(len(tail)) > sampleTailBound(len(sm.Points), coords) {
			t.Fatalf("tail of %d bytes over its charged bound %d", len(tail), sampleTailBound(len(sm.Points), coords))
		}
	})
}

// TestSampleTailAccounting: the size the cache charges a sample artifact
// covers its stored tail even when every float takes encoding/json's
// longest form, and the cache's accounting stays exact (invariants)
// through misses, hits, evictions and a reload from the disk tier — whose
// bytes equal the original miss's.
func TestSampleTailAccounting(t *testing.T) {
	const long = -1.2345678901234567e-06
	if raw, _ := json.Marshal(long); len(raw) != maxJSONFloat {
		t.Fatalf("json writes %v in %d bytes (%s), want the %d-byte longest form", long, len(raw), raw, maxJSONFloat)
	}
	pts := make([]dataset.WeightedPoint, 100)
	for i := range pts {
		pts[i] = dataset.WeightedPoint{P: geom.Point{long, long, long}, W: long}
	}
	sm := &core.Sample{Points: pts, Norm: long, DataPasses: math.MinInt64, Saturated: math.MinInt64}
	tail, err := (&sampleArtifact{s: sm}).tail(long, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	// What sampleBytes charges beyond the points themselves.
	forTail := sampleBytes(sm) - int64(len(pts)*(3*8+56)+256)
	if forTail < int64(len(tail)) {
		t.Fatalf("charged %d bytes for a %d-byte tail", forTail, len(tail))
	}

	dir := t.TempDir()
	srv, ts, _ := newTestServer(t, Config{Parallelism: 2, CacheBytes: 80_000, Disk: mustDiskTier(t, dir)}, 3000)
	check := func(when string) {
		t.Helper()
		if err := srv.cache.invariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	body := func(seed int) map[string]any {
		return map[string]any{"dataset": "pts", "alpha": 1.0, "size": 200, "kernels": 64, "seed": seed}
	}
	post := func(seed int, want string) []byte {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/sample", body(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d: %s", seed, resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-DBS-Cache"); got != want {
			t.Fatalf("seed %d: X-DBS-Cache = %q, want %s", seed, got, want)
		}
		return data
	}
	first := post(1, "miss")
	check("after a miss")
	if !bytes.Equal(post(1, "hit"), first) {
		t.Fatal("hit bytes differ from the miss")
	}
	check("after a hit")
	for seed := 2; seed <= 5; seed++ {
		post(seed, "miss")
	}
	if st := srv.cache.Stats(); st.Evictions == 0 {
		t.Fatalf("cache stats %+v: no eviction under an 80 kB budget", st)
	}
	check("after evictions")
	if !bytes.Equal(post(1, "disk"), first) {
		t.Fatal("disk reload bytes differ from the miss")
	}
	check("after a disk reload")
	if !bytes.Equal(post(1, "hit"), first) {
		t.Fatal("hit after the reload differs from the miss")
	}
	check("after a hit on the reloaded artifact")
}

// TestSampleTailConcurrentFirstWrites: responses written at once from a
// fresh artifact — concurrent misses joined on one build, hits racing the
// miss's own write — encode its tail once and all write the same bytes.
// verify.sh runs it under -race.
func TestSampleTailConcurrentFirstWrites(t *testing.T) {
	sm := &core.Sample{
		Points: []dataset.WeightedPoint{{P: geom.Point{0.25, 0.5}, W: 3}, {P: geom.Point{0.75, 1e-7}, W: 2.5}},
		Norm:   40, DataPasses: 2,
	}
	want := httptest.NewRecorder()
	marshalSampleResponse(want, "pts", 1, 42, sm)
	art := &sampleArtifact{s: sm}
	const writers = 8
	bodies := make([][]byte, writers)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			writeSampleResponse(rec, "pts", art, 1, 42)
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, want.Body.Bytes()) {
			t.Fatalf("writer %d:\n got %q\nwant %q", i, b, want.Body.Bytes())
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing of the body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestSampleHitAllocs is the hit path's allocation gate: an in-process
// cache hit writes the stored body, so neither the objects nor the bytes
// it allocates grow with the sample: b = 1000 allocates what b = 10
// does, but for one boxed int. It fails where a hit re-encodes the body.
func TestSampleHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations of its own")
	}
	srv := New(Config{Parallelism: 1})
	if err := srv.Registry().RegisterDataset("pts", dataset.MustInMemory(testPoints(5000, 2, 11))); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	hit := func(raw []byte) (allocs, bytesPer float64) {
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sample", bytes.NewReader(raw)))
		}
		serve() // the miss that builds the artifact
		serve()
		if got := w.h.Get("X-DBS-Cache"); got != "hit" {
			t.Fatalf("second request: X-DBS-Cache = %q, want hit", got)
		}
		const runs = 200
		allocs = testing.AllocsPerRun(runs, serve)
		// The least of three rounds, so a stray allocation elsewhere in
		// the process during one round does not count against the hit.
		bytesPer = math.Inf(1)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				serve()
			}
			runtime.ReadMemStats(&after)
			bytesPer = min(bytesPer, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return allocs, bytesPer
	}
	var objs, byts [2]float64
	for i, b := range []int{10, 1000} {
		raw, _ := json.Marshal(map[string]any{"dataset": "pts", "alpha": 1.0, "size": b, "kernels": 64, "seed": 42})
		objs[i], byts[i] = hit(raw)
		t.Logf("b=%d: %.0f objects, %.0f bytes per hit", b, objs[i], byts[i])
	}
	// One object of slack: the cache key's fmt.Sprintf boxes an int of
	// 256 or more (b = 1000) into an object of its own, and a smaller one
	// into none. Byte slack for that and for what the runtime itself
	// allocates during a run; one byte per point of the larger sample
	// would already exceed it.
	if objs[1] > objs[0]+1 || byts[1] > byts[0]+512 {
		t.Fatalf("a hit allocates %.1f objects and %.0f bytes at b=1000 against %.1f and %.0f at b=10: hit allocation grows with |S|",
			objs[1], byts[1], objs[0], byts[0])
	}
}
