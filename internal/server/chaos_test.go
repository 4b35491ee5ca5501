package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/obs"
)

// chaosReqs is the fixed request mix every chaos run replays: two
// distinct sample identities (with repeats, so cache interplay and
// disk-tier serving are exercised), a cluster request sharing sample A's
// artifact, and an estimator-only outlier request.
var chaosReqs = []struct {
	name string
	path string
	body map[string]any
}{
	{"sampleA", "/v1/sample", map[string]any{"dataset": "pts", "alpha": 1.0, "size": 60, "kernels": 32, "seed": 101}},
	{"sampleB", "/v1/sample", map[string]any{"dataset": "pts", "alpha": 1.0, "size": 60, "kernels": 32, "seed": 202}},
	{"sampleA2", "/v1/sample", map[string]any{"dataset": "pts", "alpha": 1.0, "size": 60, "kernels": 32, "seed": 101}},
	{"cluster", "/v1/cluster", map[string]any{"dataset": "pts", "alpha": 1.0, "size": 60, "kernels": 32, "seed": 101, "k": 3}},
	{"outliers", "/v1/outliers", map[string]any{"dataset": "pts", "radius": 0.1, "p": 2, "kernels": 32, "seed": 101, "method": "estimate"}},
	{"sampleB2", "/v1/sample", map[string]any{"dataset": "pts", "alpha": 1.0, "size": 60, "kernels": 32, "seed": 202}},
}

// chaosConfig gives every server its own disk tier over a fresh
// temporary directory, so the suite covers the tier under faults.
func chaosConfig(t *testing.T, inj *faults.Injector) Config {
	return Config{
		Parallelism: 2,
		// Small enough that the two sample identities evict each other,
		// so the disk-tier and re-build paths stay hot.
		CacheBytes:   10 << 10,
		Disk:         mustDiskTier(t, t.TempDir()),
		Retry:        2,
		RetryBackoff: 200 * time.Microsecond,
		StageTimeout: 2 * time.Second,
		Deadline:     5 * time.Second,
		MaxInFlight:  3,
		MaxQueue:     2,
		Faults:       inj,
	}
}

func postRaw(t *testing.T, url string, body map[string]any) (int, http.Header, []byte) {
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
	return resp.StatusCode, resp.Header, data
}

// TestChaosServingInvariants replays the request mix against many seeded
// fault schedules (error, delay, partial read, cancellation injected into
// dataset scans and both build stages) and asserts the serving
// guarantees hold under every one of them:
//
//   - whenever a request succeeds, its bytes are identical to the
//     fault-free run — faults may fail requests, never corrupt them;
//   - failures only ever surface as 429, 503, or 504;
//   - admission slots are all released and the queue drains to zero;
//   - the cache's byte accounting and counter conservation hold exactly;
//   - no goroutine is leaked.
func TestChaosServingInvariants(t *testing.T) {
	checkLeaks := leakCheck(t)
	mem := dataset.MustInMemory(testPoints(600, 2, 11))

	// Reference run: same requests, no faults.
	ref := make([][]byte, len(chaosReqs))
	func() {
		srv := New(chaosConfig(t, nil))
		if err := srv.Registry().RegisterDataset("pts", mem); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for i, rq := range chaosReqs {
			status, _, body := postRaw(t, ts.URL+rq.path, rq.body)
			if status != http.StatusOK {
				t.Fatalf("reference %s: %d: %s", rq.name, status, body)
			}
			ref[i] = body
		}
	}()

	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	var injectedTotal, okTotal, failTotal int64
	for seed := 1; seed <= seeds; seed++ {
		inj := faults.New(faults.Config{
			Seed:     uint64(seed),
			PError:   0.15,
			PDelay:   0.10,
			PPartial: 0.10,
			PCancel:  0.05,
			MaxDelay: 500 * time.Microsecond,
		})
		srv := New(chaosConfig(t, inj))
		if err := srv.Registry().RegisterDataset("pts", faults.Wrap(mem, inj.Point("dataset"))); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())

		var wg sync.WaitGroup
		for i, rq := range chaosReqs {
			wg.Add(1)
			go func(i int, name, path string, body map[string]any) {
				defer wg.Done()
				status, _, data := postRaw(t, ts.URL+path, body)
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
			}(i, rq.name, rq.path, rq.body)
		}
		wg.Wait()
		ts.Close()

		if n := srv.adm.InFlight(); n != 0 {
			t.Errorf("seed %d: %d requests still in flight after drain", seed, n)
		}
		if n := srv.adm.Queued(); n != 0 {
			t.Errorf("seed %d: %d requests still queued after drain", seed, n)
		}
		if err := srv.cache.invariants(); err != nil {
			t.Errorf("seed %d: cache invariants: %v", seed, err)
		}
		injectedTotal += inj.Injected()
	}
	if injectedTotal == 0 {
		t.Error("no faults fired across any seed — the chaos run tested nothing")
	}
	if okTotal == 0 {
		t.Error("no request ever succeeded under faults — retry/disk-tier machinery is dead")
	}
	t.Logf("chaos: %d seeds, %d faults injected, %d ok, %d shed/failed",
		seeds, injectedTotal, okTotal, failTotal)
	checkLeaks()
}

// faultEventsBySite counts "fault" span events per injection site across
// a set of retained trace snapshots.
func faultEventsBySite(snaps []obs.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for _, snap := range snaps {
		for _, e := range snap.Events {
			if e.Path != "fault" {
				continue
			}
			for _, f := range strings.Fields(e.Note) {
				if site, ok := strings.CutPrefix(f, "site="); ok {
					out[site]++
				}
			}
		}
	}
	return out
}

// TestChaosTraceAttribution replays the chaos mix with full trace
// retention and reconciles the injector's books against the traces:
// every fault fired at a build-stage check site appears as exactly one
// "fault" event in the request trace that suffered it (delays are
// recorded at the injection point, error kinds once by the retry
// layer), dataset-wrapper faults never exceed their fired-error count
// (the wrapper has no request context, so only errors that surface are
// attributable), every completed trace closes all its spans, and the
// trace ring stays within its bound on every schedule.
func TestChaosTraceAttribution(t *testing.T) {
	checkLeaks := leakCheck(t)
	mem := dataset.MustInMemory(testPoints(600, 2, 11))

	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	var injectedTotal, attributedTotal, stageFired int64
	for seed := 1; seed <= seeds; seed++ {
		inj := faults.New(faults.Config{
			Seed:     uint64(seed),
			PError:   0.15,
			PDelay:   0.10,
			PPartial: 0.10,
			PCancel:  0.05,
			MaxDelay: 500 * time.Microsecond,
		})
		cfg := chaosConfig(t, inj)
		cfg.TraceSample = 1
		cfg.TraceSeed = uint64(seed)
		cfg.TraceRing = 2 * len(chaosReqs)
		srv := New(cfg)
		dsPoint := inj.Point("dataset")
		if err := srv.Registry().RegisterDataset("pts", faults.Wrap(mem, dsPoint)); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		// Sequential replay: each request's faults land in its own trace,
		// so the per-site reconciliation below is exact.
		for _, rq := range chaosReqs {
			status, hdr, data := postRaw(t, ts.URL+rq.path, rq.body)
			switch status {
			case http.StatusOK, http.StatusTooManyRequests,
				http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			default:
				t.Errorf("seed %d %s: unexpected status %d: %s", seed, rq.name, status, data)
			}
			if hdr.Get(TraceHeader) == "" {
				t.Errorf("seed %d %s: missing %s header", seed, rq.name, TraceHeader)
			}
		}
		ts.Close()

		if srv.traces.Len() > srv.traces.Cap() {
			t.Fatalf("seed %d: trace ring len %d exceeds cap %d", seed, srv.traces.Len(), srv.traces.Cap())
		}
		snaps := srv.traces.Snapshots()
		if len(snaps) != len(chaosReqs) {
			t.Errorf("seed %d: retained %d traces, want %d (sample rate 1)", seed, len(snaps), len(chaosReqs))
		}
		for _, snap := range snaps {
			if snap.Orphans != 0 {
				t.Errorf("seed %d: trace %s has %d orphan spans", seed, snap.ID, snap.Orphans)
			}
			if snap.Dropped != 0 {
				t.Errorf("seed %d: trace %s dropped %d events", seed, snap.ID, snap.Dropped)
			}
		}
		events := faultEventsBySite(snaps)
		for _, site := range []string{"server/build/est", "server/build/sample"} {
			p := srv.cfg.Faults.Point(site)
			if got, want := events[p.Site()], p.Fired(); got != want {
				t.Errorf("seed %d: site %s fired %d faults but traces record %d events",
					seed, p.Site(), want, got)
			}
			stageFired += p.Fired()
		}
		if got := events[dsPoint.Site()]; got > dsPoint.FiredErrors() {
			t.Errorf("seed %d: dataset site recorded %d events for %d surfaced errors",
				seed, got, dsPoint.FiredErrors())
		}
		injectedTotal += inj.Injected()
		for _, n := range events {
			attributedTotal += n
		}
	}
	if injectedTotal == 0 {
		t.Error("no faults fired across any seed — the attribution run tested nothing")
	}
	if attributedTotal == 0 {
		t.Error("no fault was ever attributed to a trace — attribution machinery is dead")
	}
	if stageFired == 0 {
		t.Error("no build-stage fault point ever fired — runStage is not checking them")
	}
	t.Logf("chaos traces: %d seeds, %d faults injected, %d attributed in traces",
		seeds, injectedTotal, attributedTotal)
	checkLeaks()
}

// TestChaosTraceRingBounded replays the request mix many times against
// one fully-traced server and checks retention stays bounded: the
// rings never outgrow their caps while the admission total keeps
// counting, so long-lived servers cannot leak trace memory.
func TestChaosTraceRingBounded(t *testing.T) {
	checkLeaks := leakCheck(t)
	cfg := chaosConfig(t, nil)
	cfg.TraceSample = 1
	cfg.TraceSeed = 1
	cfg.TraceRing = 8
	cfg.SlowThreshold = time.Nanosecond // every request also lands in the slow ring
	srv := New(cfg)
	if err := srv.Registry().RegisterDataset("pts", dataset.MustInMemory(testPoints(600, 2, 11))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	schedules := 60
	if testing.Short() {
		schedules = 12
	}
	for i := 0; i < schedules; i++ {
		for _, rq := range chaosReqs {
			if status, _, data := postRaw(t, ts.URL+rq.path, rq.body); status != http.StatusOK {
				t.Fatalf("schedule %d %s: %d: %s", i, rq.name, status, data)
			}
		}
	}
	want := int64(schedules * len(chaosReqs))
	if got := srv.traces.Total(); got != want {
		t.Errorf("recent ring admitted %d traces, want %d", got, want)
	}
	for name, ring := range map[string]*Ring{"recent": srv.traces, "slow": srv.slowTrace} {
		if ring.Len() > ring.Cap() || ring.Cap() != cfg.TraceRing {
			t.Errorf("%s ring len %d cap %d, want len <= cap == %d", name, ring.Len(), ring.Cap(), cfg.TraceRing)
		}
	}
	checkLeaks()
}

// flakyDataset wraps an in-memory dataset and fails every read while
// armed: ScanRange is the one read method, so no pass gets around it. The
// error reports Temporary(), so the retry layer classifies it transient.
type flakyDataset struct {
	*dataset.InMemory
	armed atomic.Bool
}

type flakyErr struct{}

func (flakyErr) Error() string   { return "flaky: transient io failure" }
func (flakyErr) Temporary() bool { return true }

func (f *flakyDataset) ScanRange(start, end int, fn func(p geom.Point) error) error {
	if f.armed.Load() {
		return flakyErr{}
	}
	return f.InMemory.ScanRange(start, end, fn)
}

// Points shadows the promoted Sliceable method with a different signature
// so block reads take the ScanRange path (the fault site) instead of the
// zero-copy slice fast path.
func (f *flakyDataset) Points(struct{}) {}

// TestChaosDiskServe pins the one artifact tier end to end: an artifact
// evicted from memory is served from the disk tier — flagged in
// X-DBS-Cache, byte-identical to the original, with zero KDE builds —
// even while every dataset scan fails, because the tier answers before
// any rebuild is attempted.
func TestChaosDiskServe(t *testing.T) {
	checkLeaks := leakCheck(t)
	flaky := &flakyDataset{InMemory: dataset.MustInMemory(testPoints(600, 2, 11))}
	srv := New(Config{
		Parallelism: 2,
		// Fits one request's artifacts (estimator + sample ~13 KiB, the
		// sample's body-tail bound included), so the second identity
		// evicts the first from memory.
		CacheBytes:   16 << 10,
		Disk:         mustDiskTier(t, t.TempDir()),
		Retry:        1,
		RetryBackoff: 100 * time.Microsecond,
		Deadline:     5 * time.Second,
	})
	if err := srv.Registry().RegisterDataset("pts", flaky); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqA := map[string]any{"dataset": "pts", "alpha": 1.0, "size": 60, "kernels": 32, "seed": 101}
	reqB := map[string]any{"dataset": "pts", "alpha": 1.0, "size": 60, "kernels": 32, "seed": 202}

	status, hdr, bodyA := postRaw(t, ts.URL+"/v1/sample", reqA)
	if status != http.StatusOK || hdr.Get("X-DBS-Cache") != "miss" {
		t.Fatalf("A: %d cache=%q: %s", status, hdr.Get("X-DBS-Cache"), bodyA)
	}
	if status, _, body := postRaw(t, ts.URL+"/v1/sample", reqB); status != http.StatusOK {
		t.Fatalf("B: %d: %s", status, body)
	}
	if st := srv.cache.Stats(); st.Evictions == 0 {
		t.Fatalf("B did not evict A from memory: %+v", st)
	}

	// Every scan now fails, yet A is served from disk without a rebuild:
	// same bytes, no KDE build.
	flaky.armed.Store(true)
	builds := srv.rec.Counter(CtrKDEBuilds).Value()
	status, hdr, body := postRaw(t, ts.URL+"/v1/sample", reqA)
	if status != http.StatusOK {
		t.Fatalf("disk serve: %d: %s", status, body)
	}
	if got := hdr.Get("X-DBS-Cache"); got != "disk" {
		t.Errorf("X-DBS-Cache = %q, want disk", got)
	}
	if !bytes.Equal(body, bodyA) {
		t.Error("disk-served response differs from the original artifact's bytes")
	}
	if got := srv.rec.Counter(CtrKDEBuilds).Value(); got != builds {
		t.Errorf("disk serve ran %d KDE builds, want 0", got-builds)
	}
	if st := srv.cache.Stats(); st.DiskHits == 0 {
		t.Errorf("disk hit not counted: %+v", st)
	}

	// The disk load promoted A into memory: still no scan needed.
	status, hdr, body = postRaw(t, ts.URL+"/v1/sample", reqA)
	if status != http.StatusOK || hdr.Get("X-DBS-Cache") != "hit" {
		t.Fatalf("repeat: %d cache=%q: %s", status, hdr.Get("X-DBS-Cache"), body)
	}
	if !bytes.Equal(body, bodyA) {
		t.Error("promoted response differs from the original bytes")
	}
	if err := srv.cache.invariants(); err != nil {
		t.Error(err)
	}
	checkLeaks()
}
