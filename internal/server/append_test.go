package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/obs"
)

// appendBody builds the JSON payload for /v1/datasets/{name}/append.
func appendBody(pts []geom.Point) map[string]any {
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		rows[i] = []float64(p)
	}
	return map[string]any{"points": rows}
}

func decodeSample(t *testing.T, body []byte) sampleResponse {
	t.Helper()
	var sr sampleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding sample response: %v: %s", err, body)
	}
	return sr
}

// TestAppendStaleFingerprintRegression is the regression test for the
// stale-fingerprint bug: the registry memoized a dataset's fingerprint
// for the lifetime of the entry, so growing a registered dataset in
// place left /v1/sample serving the pre-append cached artifact under the
// pre-append fingerprint — stale points presented as fresh. With
// generation-keyed fingerprints, an append must change both the reported
// fingerprint and the sample itself.
func TestAppendStaleFingerprintRegression(t *testing.T) {
	_, ts, mem := newTestServer(t, Config{Parallelism: 2}, 3000)

	resp1, body1 := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("pre-append sample: %d: %s", resp1.StatusCode, body1)
	}
	sr1 := decodeSample(t, body1)

	// Grow the registered dataset directly — the server is not told.
	if err := mem.Append(testPoints(500, 2, 77)...); err != nil {
		t.Fatal(err)
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-append sample: %d: %s", resp2.StatusCode, body2)
	}
	sr2 := decodeSample(t, body2)

	if sr1.Fingerprint == sr2.Fingerprint {
		t.Error("fingerprint unchanged after append — the registry served a stale memoized fingerprint")
	}
	if bytes.Equal(body1, body2) {
		t.Error("sample unchanged after append — stale cached artifact served for grown dataset")
	}
	if got := resp2.Header.Get("X-DBS-Cache"); got != "miss" {
		t.Errorf("post-append X-DBS-Cache = %q, want miss (new generation, new key)", got)
	}
}

func TestAppendEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Parallelism: 2}, 1000)
	delta := testPoints(50, 2, 33)

	resp, body := postJSON(t, ts.URL+"/v1/datasets/pts/append", appendBody(delta))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d: %s", resp.StatusCode, body)
	}
	var ar appendResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Generation != 1 || ar.Points != 1050 || ar.Added != 50 || len(ar.Fingerprint) != 16 {
		t.Errorf("append response = %+v, want gen 1, 1050 points, 50 added, 16-hex fingerprint", ar)
	}

	// The fingerprint in the append response is the one subsequent
	// samples are served under.
	sresp, sbody := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", sresp.StatusCode, sbody)
	}
	if sr := decodeSample(t, sbody); sr.Fingerprint != ar.Fingerprint {
		t.Errorf("sample fingerprint %s != append fingerprint %s", sr.Fingerprint, ar.Fingerprint)
	}

	// CSV body.
	var csv bytes.Buffer
	for _, p := range testPoints(10, 2, 34) {
		fmt.Fprintf(&csv, "%v,%v\n", p[0], p[1])
	}
	req, err := http.Post(ts.URL+"/v1/datasets/pts/append", "text/csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	req.Body.Close()
	if req.StatusCode != http.StatusOK {
		t.Fatalf("csv append: %d", req.StatusCode)
	}

	// Binary (DBS1) body.
	var bin bytes.Buffer
	if err := dataset.WriteBinary(&bin, dataset.MustInMemory(testPoints(10, 2, 35))); err != nil {
		t.Fatal(err)
	}
	breq, err := http.Post(ts.URL+"/v1/datasets/pts/append", "application/octet-stream", &bin)
	if err != nil {
		t.Fatal(err)
	}
	breq.Body.Close()
	if breq.StatusCode != http.StatusOK {
		t.Fatalf("binary append: %d", breq.StatusCode)
	}

	// Each upload advanced one generation.
	var listing struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	getJSON(t, ts.URL+"/v1/datasets", &listing)
	infos := listing.Datasets
	if len(infos) != 1 || !infos[0].Appendable || infos[0].Generation != 3 || infos[0].Points != 1070 {
		t.Errorf("dataset listing = %+v, want appendable gen 3 with 1070 points", infos)
	}

	// Error paths: empty body, dims mismatch, unknown dataset.
	if resp, _ := postJSON(t, ts.URL+"/v1/datasets/pts/append", map[string]any{"points": [][]float64{}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty append: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/datasets/pts/append", map[string]any{"points": [][]float64{{1, 2, 3}}}); resp.StatusCode >= 200 && resp.StatusCode < 300 {
		t.Errorf("dims-mismatched append: %d, want error", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/datasets/nope/append", appendBody(delta)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset append: %d, want 404", resp.StatusCode)
	}
}

// TestAppendImmutableDatasetConflict: a DBS1 file registration cannot
// grow; the endpoint must say so with 409, not corrupt the file.
func TestAppendImmutableDatasetConflict(t *testing.T) {
	srv := New(Config{Parallelism: 1})
	if err := srv.Registry().RegisterPath("f", testFile(t, 200, 2)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/datasets/f/append", appendBody(testPoints(5, 2, 1)))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("append to immutable file: %d: %s, want 409", resp.StatusCode, body)
	}
}

// TestTruncatedFileSampleIs422: a path-registered file cut mid-row is a
// malformed dataset, not an unlucky read. Open refuses it, DBS1 and DBS2
// alike, so /v1/sample answers 422 with no Retry-After, where a DBS1 file
// used to open and then fail its first pass as a transient 503.
func TestTruncatedFileSampleIs422(t *testing.T) {
	pts := dataset.MustInMemory(testPoints(200, 2, 7))
	dir := t.TempDir()
	dbs1 := filepath.Join(dir, "pts.dbs")
	if err := dataset.SaveBinary(dbs1, pts); err != nil {
		t.Fatal(err)
	}
	dbs2 := filepath.Join(dir, "pts.seg")
	sf, err := dataset.CreateSegmented(dbs2, pts)
	if err != nil {
		t.Fatal(err)
	}
	sf.Close()
	for _, path := range []string{dbs1, dbs2} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-5); err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Parallelism: 1})
		if err := srv.Registry().RegisterPath("pts", path); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
		ts.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s cut mid-row: %d: %s, want 422", filepath.Base(path), resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Errorf("%s cut mid-row: Retry-After %q on a malformed file", filepath.Base(path), ra)
		}
	}
}

// TestAppendThenSampleDeltaPasses pins the O(|delta|) promise: with a
// warm cache and a drift budget, the sample after an append reads the
// appended rows exactly twice (incremental normalize + delta coin pass)
// and never re-reads the prefix.
func TestAppendThenSampleDeltaPasses(t *testing.T) {
	const n, m = 4000, 200
	srv, ts, _ := newTestServer(t, Config{Parallelism: 2, DriftTol: 0.2}, n)

	// Cold sample: build + normalize + sample, each one full pass.
	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold sample: %d: %s", resp.StatusCode, body)
	}
	if got := srv.rec.Counter(obs.CtrPointsScanned).Value(); got != 3*n {
		t.Fatalf("cold sample scanned %d points, want %d (3 full passes)", got, 3*n)
	}

	aresp, abody := postJSON(t, ts.URL+"/v1/datasets/pts/append", appendBody(testPoints(m, 2, 55)))
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d: %s", aresp.StatusCode, abody)
	}

	before := srv.rec.Counter(obs.CtrPointsScanned).Value()
	wresp, wbody := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("warm sample: %d: %s", wresp.StatusCode, wbody)
	}
	if got := srv.rec.Counter(obs.CtrPointsScanned).Value() - before; got != 2*m {
		t.Errorf("post-append sample scanned %d points, want %d (two delta passes, zero prefix reads)", got, 2*m)
	}
	if got := srv.rec.Counter(obs.CtrKDEExtends).Value(); got != 1 {
		t.Errorf("kde extends = %d, want 1", got)
	}
	if got := srv.rec.Counter(obs.CtrIncDraws).Value(); got != 1 {
		t.Errorf("incremental draws = %d, want 1", got)
	}
	sr := decodeSample(t, wbody)
	if sr.DataPasses != 2 {
		t.Errorf("incremental sample reports %d data passes, want 2", sr.DataPasses)
	}
	// The incremental sample keeps E[|S|] = b; ε documented in DESIGN.md §5e.
	b := int(sampleBody["size"].(int))
	if sr.Count < b-b/4 || sr.Count > b+b/4 {
		t.Errorf("incremental sample size %d strays more than 25%% from b = %d", sr.Count, b)
	}
}

// TestAppendTau0BitForBitParity: with DriftTol 0 (the default) every
// generation is rebuilt exactly, so a server that reached state S by
// appends and a server that registered S whole return byte-identical
// sample responses — fingerprint field included — at any worker count.
func TestAppendTau0BitForBitParity(t *testing.T) {
	const n, m = 2000, 150
	full := testPoints(n+m, 2, 11)

	bodies := map[int][]byte{}
	for _, par := range []int{1, 8} {
		// Server A: n points registered, delta appended over HTTP.
		srvA := New(Config{Parallelism: par})
		memA := dataset.MustInMemory(clonePts(full[:n]))
		if err := srvA.Registry().RegisterDataset("pts", memA); err != nil {
			t.Fatal(err)
		}
		tsA := httptest.NewServer(srvA.Handler())
		// Warm the generation-0 artifacts first, so the test also proves
		// the old generation's cache entries don't leak into the new key.
		if resp, body := postJSON(t, tsA.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("par %d warmup: %d: %s", par, resp.StatusCode, body)
		}
		if resp, body := postJSON(t, tsA.URL+"/v1/datasets/pts/append", appendBody(clonePts(full[n:]))); resp.StatusCode != http.StatusOK {
			t.Fatalf("par %d append: %d: %s", par, resp.StatusCode, body)
		}
		respA, bodyA := postJSON(t, tsA.URL+"/v1/sample", sampleBody)
		if respA.StatusCode != http.StatusOK {
			t.Fatalf("par %d sample A: %d: %s", par, respA.StatusCode, bodyA)
		}
		tsA.Close()

		// Server B: the same n+m points registered in one shot.
		srvB := New(Config{Parallelism: par})
		if err := srvB.Registry().RegisterDataset("pts", dataset.MustInMemory(clonePts(full))); err != nil {
			t.Fatal(err)
		}
		tsB := httptest.NewServer(srvB.Handler())
		respB, bodyB := postJSON(t, tsB.URL+"/v1/sample", sampleBody)
		if respB.StatusCode != http.StatusOK {
			t.Fatalf("par %d sample B: %d: %s", par, respB.StatusCode, bodyB)
		}
		tsB.Close()

		if !bytes.Equal(bodyA, bodyB) {
			t.Errorf("par %d: append-grown server and whole-registered server disagree at drift tolerance 0", par)
		}
		bodies[par] = bodyA
	}
	if !bytes.Equal(bodies[1], bodies[8]) {
		t.Error("worker counts 1 and 8 returned different bytes")
	}
}

// TestAppendIncrementalWorkerParity: the incremental path (DriftTol > 0)
// is also worker-count invariant — byte-identical responses at
// parallelism 1 and 8 for the same append/sample sequence.
func TestAppendIncrementalWorkerParity(t *testing.T) {
	const n, m = 2000, 150
	full := testPoints(n+m, 2, 11)
	bodies := map[int][]byte{}
	for _, par := range []int{1, 8} {
		srv := New(Config{Parallelism: par, DriftTol: 0.3})
		if err := srv.Registry().RegisterDataset("pts", dataset.MustInMemory(clonePts(full[:n]))); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("par %d warmup: %d: %s", par, resp.StatusCode, body)
		}
		if resp, body := postJSON(t, ts.URL+"/v1/datasets/pts/append", appendBody(clonePts(full[n:]))); resp.StatusCode != http.StatusOK {
			t.Fatalf("par %d append: %d: %s", par, resp.StatusCode, body)
		}
		resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("par %d sample: %d: %s", par, resp.StatusCode, body)
		}
		if sr := decodeSample(t, body); sr.DataPasses != 2 {
			t.Errorf("par %d: data passes = %d, want 2 (incremental path not taken)", par, sr.DataPasses)
		}
		bodies[par] = body
		ts.Close()
	}
	if !bytes.Equal(bodies[1], bodies[8]) {
		t.Error("incremental samples differ between worker counts 1 and 8")
	}
}

// TestAppendExtendedKeyedByLineage: an extended artifact depends on the
// append history, not only on the rows, so it must never answer a
// lookup for an exact build of the same rows. Replica A (DriftTol 0.3)
// extends generation 1; the same rows registered under another name on
// A, and registered whole on replica B (DriftTol 0) sharing A's disk
// tier, must both get the bytes of a server that never saw the append.
func TestAppendExtendedKeyedByLineage(t *testing.T) {
	const n, m = 2000, 150
	full := testPoints(n+m, 2, 11)
	body := func(name string) map[string]any {
		b := map[string]any{}
		for k, v := range sampleBody {
			b[k] = v
		}
		b["dataset"] = name
		return b
	}
	sample := func(url, name string) (string, []byte) {
		t.Helper()
		resp, raw := postJSON(t, url+"/v1/sample", body(name))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample %s: %d: %s", name, resp.StatusCode, raw)
		}
		return resp.Header.Get("X-DBS-Cache"), raw
	}
	register := func(srv *Server, name string, pts []geom.Point) {
		t.Helper()
		if err := srv.Registry().RegisterDataset(name, dataset.MustInMemory(clonePts(pts))); err != nil {
			t.Fatal(err)
		}
	}
	serve := func(cfg Config, name string, pts []geom.Point) (*Server, *httptest.Server) {
		t.Helper()
		srv := New(cfg)
		register(srv, name, pts)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts
	}
	exact := func(name string) []byte {
		t.Helper()
		_, ts := serve(Config{Parallelism: 2}, name, full)
		_, raw := sample(ts.URL, name)
		return raw
	}

	dir := t.TempDir()
	srvA, a := serve(Config{Parallelism: 2, DriftTol: 0.3, Disk: mustDiskTier(t, dir)}, "pts", full[:n])
	sample(a.URL, "pts")
	if resp, raw := postJSON(t, a.URL+"/v1/datasets/pts/append", appendBody(clonePts(full[n:]))); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d: %s", resp.StatusCode, raw)
	}
	if _, ext := sample(a.URL, "pts"); bytes.Equal(ext, exact("pts")) {
		t.Fatal("generation 1 on replica A was not extended; the test needs an extended artifact")
	}

	register(srvA, "copy", full)
	if out, got := sample(a.URL, "copy"); !bytes.Equal(got, exact("copy")) {
		t.Errorf("same rows under another name on replica A (X-DBS-Cache %s): got the extended sample, want the exact one", out)
	}

	_, b := serve(Config{Parallelism: 2, Disk: mustDiskTier(t, dir)}, "pts", full)
	if out, got := sample(b.URL, "pts"); !bytes.Equal(got, exact("pts")) {
		t.Errorf("replica B at DriftTol 0 (X-DBS-Cache %s): got replica A's extended sample from the shared disk tier, want the exact one", out)
	}
}

// TestAppendChaos replays an append-then-sample sequence under seeded
// fault schedules hitting the append stage and both delta build stages.
// Whatever the schedule does, a successful response must be identical to
// the fault-free run, failures must surface as 429/503/504, and a failed
// append must not leave a half-applied generation behind.
func TestAppendChaos(t *testing.T) {
	const n, m = 800, 60
	full := testPoints(n+m, 2, 11)
	warm := map[string]any{"dataset": "pts", "alpha": 1.0, "size": 60, "kernels": 32, "seed": 101}

	// Fault-free reference.
	var refAppend, refSample []byte
	{
		srv := New(Config{Parallelism: 2, DriftTol: 0.3})
		if err := srv.Registry().RegisterDataset("pts", dataset.MustInMemory(clonePts(full[:n]))); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		if status, _, body := postRaw(t, ts.URL+"/v1/sample", warm); status != http.StatusOK {
			t.Fatalf("reference warmup: %d: %s", status, body)
		}
		var status int
		status, _, refAppend = postRaw(t, ts.URL+"/v1/datasets/pts/append", appendBody(clonePts(full[n:])))
		if status != http.StatusOK {
			t.Fatalf("reference append: %d: %s", status, refAppend)
		}
		status, _, refSample = postRaw(t, ts.URL+"/v1/sample", warm)
		if status != http.StatusOK {
			t.Fatalf("reference sample: %d: %s", status, refSample)
		}
		ts.Close()
	}

	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	okAppends, okSamples, failures := 0, 0, 0
	for seed := 1; seed <= seeds; seed++ {
		inj := faults.New(faults.Config{
			Seed:     uint64(seed),
			PError:   0.25,
			PDelay:   0.10,
			PCancel:  0.05,
			MaxDelay: 200 * time.Microsecond,
		})
		srv := New(Config{
			Parallelism: 2, DriftTol: 0.3,
			Retry: 2, RetryBackoff: 200 * time.Microsecond,
			StageTimeout: 2 * time.Second, Deadline: 5 * time.Second,
			Faults: inj,
		})
		mem := dataset.MustInMemory(clonePts(full[:n]))
		if err := srv.Registry().RegisterDataset("pts", mem); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())

		// Warm generation 0 (est/sample fault points may fire here too).
		postRaw(t, ts.URL+"/v1/sample", warm)

		status, _, body := postRaw(t, ts.URL+"/v1/datasets/pts/append", appendBody(clonePts(full[n:])))
		switch status {
		case http.StatusOK:
			okAppends++
			if mem.Generation() != 1 || mem.Len() != n+m {
				t.Errorf("seed %d: 200 append but gen/len = %d/%d", seed, mem.Generation(), mem.Len())
			}
			if !bytes.Equal(body, refAppend) {
				t.Errorf("seed %d: append body differs from fault-free run", seed)
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			failures++
			// A failed append must be all-or-nothing. Either outcome is
			// legal (the fault can fire before or after the write lands,
			// e.g. a stage timeout), but never a torn generation.
			if got := mem.Len(); got != n && got != n+m {
				t.Errorf("seed %d: failed append left torn length %d", seed, got)
			}
		default:
			t.Errorf("seed %d: append status %d: %s", seed, status, body)
		}

		if mem.Generation() == 1 {
			status, _, body := postRaw(t, ts.URL+"/v1/sample", warm)
			switch status {
			case http.StatusOK:
				okSamples++
				if !bytes.Equal(body, refSample) {
					t.Errorf("seed %d: post-append sample differs from fault-free run", seed)
				}
			case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				failures++
			default:
				t.Errorf("seed %d: sample status %d: %s", seed, status, body)
			}
		}
		ts.Close()
	}
	if okAppends == 0 || okSamples == 0 {
		t.Errorf("no successful appends (%d) or samples (%d) across %d seeds — retries not doing their job", okAppends, okSamples, seeds)
	}
	if inj := failures; seeds > 10 && inj == 0 {
		t.Logf("note: no request-level failures across %d seeds (retries absorbed every fault)", seeds)
	}
}

// clonePts deep-copies points so appends never alias the shared fixture.
func clonePts(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Clone()
	}
	return out
}
