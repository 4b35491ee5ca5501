package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// TestSampleBytesIdenticalAcrossTracingModes pins the determinism
// contract against the tracing subsystem: the /v1/sample body is a pure
// function of (dataset, params, seed), so turning tracing off, sampling
// half of it, or retaining every trace must not move a single byte, at
// serial and parallel worker counts alike.
func TestSampleBytesIdenticalAcrossTracingModes(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"disabled", Config{}},
		{"sampled", Config{TraceSample: 0.5, TraceSeed: 1}},
		{"full", Config{TraceSample: 1, TraceSeed: 1, SlowThreshold: time.Nanosecond}},
	}
	var want []byte
	for _, par := range []int{1, 8} {
		for _, c := range configs {
			cfg := c.cfg
			cfg.Parallelism = par
			_, ts, _ := newTestServer(t, cfg, 1500)
			resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("p=%d %s: %d: %s", par, c.name, resp.StatusCode, body)
			}
			if resp.Header.Get(TraceHeader) == "" {
				t.Errorf("p=%d %s: response missing %s header", par, c.name, TraceHeader)
			}
			if want == nil {
				want = body
			} else if !bytes.Equal(want, body) {
				t.Errorf("p=%d %s: body differs from baseline", par, c.name)
			}
		}
	}
}

// getTraces fetches /debug/traces and decodes it.
func getTraces(t *testing.T, url string) tracesResponse {
	t.Helper()
	var tr tracesResponse
	if resp := getJSON(t, url+"/debug/traces", &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d", resp.StatusCode)
	}
	return tr
}

// eventPaths collects path -> occurrence count from a snapshot.
func eventPaths(snap obs.Snapshot) map[string]int {
	m := make(map[string]int)
	for _, e := range snap.Events {
		m[e.Path]++
	}
	return m
}

// TestDebugTracesCompleteSpanTree drives one cold /v1/sample with full
// retention and asserts its trace covers the whole serving path:
// admission wait, registry acquire, cache probes, both build stages,
// the draw, and the dataset scans — and that the span tree nests the
// build stages under a server/build container with zero orphans.
func TestDebugTracesCompleteSpanTree(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{TraceSample: 1, TraceSeed: 42}, 1500)
	if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", resp.StatusCode, body)
	}
	tr := getTraces(t, ts.URL)
	if !tr.Enabled || tr.Sample != 1 {
		t.Fatalf("traces response header = %+v", tr)
	}
	if len(tr.Recent) != 1 {
		t.Fatalf("recent traces = %d, want 1", len(tr.Recent))
	}
	snap := tr.Recent[0]
	if snap.Route != "/v1/sample" || snap.Status != http.StatusOK || snap.Cache != "miss" {
		t.Fatalf("snapshot header = route=%q status=%d cache=%q", snap.Route, snap.Status, snap.Cache)
	}
	if snap.Orphans != 0 {
		t.Fatalf("completed trace has %d orphan spans", snap.Orphans)
	}
	paths := eventPaths(snap)
	for _, want := range []string{
		"admission/wait", "registry/acquire", "cache/est", "cache/sample",
		"server/build/est", "server/build/sample", "draw", "kde/build",
	} {
		if paths[want] == 0 {
			t.Errorf("trace missing %q event; got %v", want, paths)
		}
	}
	if paths["scan"] == 0 {
		t.Errorf("cold request recorded no dataset scan events; got %v", paths)
	}
	// The rendered tree must place the build stages under server/build.
	var build []obs.SpanJSON
	var find func(spans []obs.SpanJSON)
	find = func(spans []obs.SpanJSON) {
		for _, sp := range spans {
			if sp.Path == "server/build" {
				build = sp.Children
			}
			find(sp.Children)
		}
	}
	find(snap.Spans)
	got := map[string]bool{}
	for _, sp := range build {
		got[sp.Path] = true
	}
	if !got["server/build/est"] || !got["server/build/sample"] {
		t.Errorf("server/build children = %v, want est and sample stages", got)
	}
}

// TestCacheHitTraceHasNoScans repeats a request and asserts the hit's
// trace shows the cache outcome and zero dataset scans or build stages.
func TestCacheHitTraceHasNoScans(t *testing.T) {
	_, ts, mem := newTestServer(t, Config{TraceSample: 1, TraceSeed: 7}, 1500)
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, resp.StatusCode, body)
		}
	}
	passes := mem.Passes()
	tr := getTraces(t, ts.URL)
	if len(tr.Recent) != 2 {
		t.Fatalf("recent traces = %d, want 2", len(tr.Recent))
	}
	hit := tr.Recent[0] // newest first
	if hit.Cache != "hit" {
		t.Fatalf("second request cache = %q, want hit", hit.Cache)
	}
	paths := eventPaths(hit)
	if paths["scan"] != 0 || paths["server/build/est"] != 0 || paths["server/build/sample"] != 0 {
		t.Errorf("cache hit ran pipeline work: %v", paths)
	}
	if paths["cache/sample"] == 0 {
		t.Errorf("cache hit trace missing cache/sample event: %v", paths)
	}
	// And the hit really did not touch the dataset.
	if resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("third request: %d: %s", resp.StatusCode, body)
	}
	if mem.Passes() != passes {
		t.Errorf("cache hit scanned the dataset (%d -> %d passes)", passes, mem.Passes())
	}
}

// TestErrorResponsesCarryTraceAndLandInHistogram pins the satellite
// regression: shed (429), queue-expired (503), and deadline (504)
// responses all carry X-DBS-Trace and are observed into the per-route
// latency histogram that /healthz summarizes.
func TestErrorResponsesCarryTraceAndLandInHistogram(t *testing.T) {
	t.Run("shed429", func(t *testing.T) {
		srv, ts, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1, Deadline: 5 * time.Second, TraceSample: 1, TraceSeed: 3}, 100)
		release, err := srv.adm.Enter(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		resp, _ := postJSON(t, ts.URL+"/v1/sample", sampleBody)
		assertErrorObserved(t, srv, ts.URL, resp, http.StatusTooManyRequests)
	})
	t.Run("queued503", func(t *testing.T) {
		srv, ts, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 4, Deadline: 50 * time.Millisecond, TraceSample: 1, TraceSeed: 3}, 100)
		release, err := srv.adm.Enter(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		resp, _ := postJSON(t, ts.URL+"/v1/sample", sampleBody)
		assertErrorObserved(t, srv, ts.URL, resp, http.StatusServiceUnavailable)
	})
	t.Run("deadline504", func(t *testing.T) {
		srv, ts, _ := newTestServer(t, Config{Deadline: time.Nanosecond, TraceSample: 1, TraceSeed: 3}, 20000)
		resp, _ := postJSON(t, ts.URL+"/v1/sample", sampleBody)
		assertErrorObserved(t, srv, ts.URL, resp, http.StatusGatewayTimeout)
	})
}

func assertErrorObserved(t *testing.T, srv *Server, url string, resp *http.Response, wantStatus int) {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	id := resp.Header.Get(TraceHeader)
	if id == "" {
		t.Errorf("%d response missing %s header", wantStatus, TraceHeader)
	}
	lat := srv.latencySummaries()
	if lat["/v1/sample"].Count != 1 {
		t.Errorf("route histogram after %d = %+v, want count 1", wantStatus, lat["/v1/sample"])
	}
	// The error's trace is retained (sample rate 1) with its status.
	tr := getTraces(t, url)
	found := false
	for _, snap := range tr.Recent {
		if snap.ID == id {
			found = true
			if snap.Status != wantStatus {
				t.Errorf("trace status = %d, want %d", snap.Status, wantStatus)
			}
		}
	}
	if !found {
		t.Errorf("trace %q for the %d response not retained", id, wantStatus)
	}
}

// TestTraceSeedDeterministicIDs pins -trace-seed: two servers seeded
// alike hand out identical ID streams; an unseeded server does not
// collide with them on its first ID.
func TestTraceSeedDeterministicIDs(t *testing.T) {
	ids := make([]string, 2)
	for i := range ids {
		_, ts, _ := newTestServer(t, Config{TraceSeed: 99}, 100)
		resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample: %d: %s", resp.StatusCode, body)
		}
		ids[i] = resp.Header.Get(TraceHeader)
	}
	if ids[0] == "" || ids[0] != ids[1] {
		t.Fatalf("seeded ID streams diverged: %q vs %q", ids[0], ids[1])
	}
}

// TestAccessLogLine checks the structured access log: one JSON line per
// request carrying the trace ID, route, status, cache outcome, queue
// wait, and a per-stage breakdown that reports every logged span none of
// whose ancestors logged anything — the KDE build on a single node, the
// scatter-gather round on a sharded coordinator. The logger finishes
// the line before the response returns, so reading the buffer after
// postJSON is ordered.
func TestAccessLogLine(t *testing.T) {
	var buf bytes.Buffer
	srv := New(Config{TraceSample: 1, TraceSeed: 5, AccessLog: &buf})
	if err := srv.Registry().RegisterDataset("pts", dataset.MustInMemory(testPoints(1500, 2, 11))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/sample", sampleBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: %d: %s", resp.StatusCode, body)
	}
	rec := accessLogLine(t, &buf)
	if rec.TraceID != resp.Header.Get(TraceHeader) {
		t.Errorf("logged trace_id %q != header %q", rec.TraceID, resp.Header.Get(TraceHeader))
	}
	if rec.Route != "/v1/sample" || rec.Status != http.StatusOK || rec.Cache != "miss" {
		t.Errorf("logged line = %+v", rec)
	}
	if rec.DurMs <= 0 || rec.QueueMs < 0 {
		t.Errorf("durations = dur %v queue %v", rec.DurMs, rec.QueueMs)
	}
	if rec.Bytes != int64(len(body)) {
		t.Errorf("logged bytes = %d, want %d", rec.Bytes, len(body))
	}
	for _, stage := range []string{"server/build/sample", "kde/build", "draw", "scan"} {
		if rec.Stages[stage] <= 0 {
			t.Errorf("stage breakdown missing %q: %v", stage, rec.Stages)
		}
	}
	if _, nested := rec.Stages["draw/normalize"]; nested {
		t.Errorf("stage breakdown counts draw/normalize inside draw: %v", rec.Stages)
	}
	if _, err := time.Parse(time.RFC3339Nano, rec.Time); err != nil {
		t.Errorf("timestamp %q: %v", rec.Time, err)
	}

	buf.Reset()
	sharded := New(Config{ShardWorkers: 2, TraceSample: 1, TraceSeed: 5, AccessLog: &buf})
	if err := sharded.Registry().RegisterDataset("pts", dataset.MustInMemory(testPoints(1500, 2, 11))); err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(sharded.Handler())
	defer sts.Close()
	if resp, body := postJSON(t, sts.URL+"/v1/sample", sampleBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded sample: %d: %s", resp.StatusCode, body)
	}
	stages := accessLogLine(t, &buf).Stages
	if stages["shard/partials"] <= 0 {
		t.Errorf("sharded stage breakdown missing %q: %v", "shard/partials", stages)
	}
	if _, ok := stages["shard/draw"]; ok {
		t.Errorf("a sharded miss logged a second round: %v", stages)
	}
	// A request whose probabilities all clip takes the same one round.
	buf.Reset()
	if resp, body := postJSON(t, sts.URL+"/v1/sample", allClipBody(1500)); resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded all-clip sample: %d: %s", resp.StatusCode, body)
	}
	stages = accessLogLine(t, &buf).Stages
	if stages["shard/partials"] <= 0 {
		t.Errorf("all-clip stage breakdown missing %q: %v", "shard/partials", stages)
	}
	if _, ok := stages["shard/draw"]; ok {
		t.Errorf("an all-clip miss logged a second round: %v", stages)
	}
}

// accessLogRecord is the decoded form of one access-log line.
type accessLogRecord struct {
	Time    string             `json:"time"`
	TraceID string             `json:"trace_id"`
	Route   string             `json:"route"`
	Status  int                `json:"status"`
	DurMs   float64            `json:"dur_ms"`
	QueueMs float64            `json:"queue_ms"`
	Cache   string             `json:"cache"`
	Bytes   int64              `json:"bytes"`
	Stages  map[string]float64 `json:"stages_ms"`
}

// accessLogLine decodes buf as exactly one access-log line.
func accessLogLine(t *testing.T, buf *bytes.Buffer) accessLogRecord {
	t.Helper()
	line := bytes.TrimSpace(buf.Bytes())
	if n := bytes.Count(line, []byte("\n")); n != 0 {
		t.Fatalf("access log has %d lines, want exactly 1: %s", n+1, line)
	}
	var rec accessLogRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatalf("access log line %q: %v", line, err)
	}
	return rec
}

// TestLatencySummaryJSONBackCompat freezes the /healthz digest schema:
// the same three keys PR 2 shipped, whatever backs them now.
func TestLatencySummaryJSONBackCompat(t *testing.T) {
	b, err := json.Marshal(LatencySummary{Count: 3, P50ms: 1.5, P99ms: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"count", "p50_ms", "p99_ms"} {
		if _, ok := m[k]; !ok {
			t.Errorf("LatencySummary JSON missing key %q: %s", k, b)
		}
	}
	if len(m) != 3 {
		t.Errorf("LatencySummary JSON gained keys: %s", b)
	}
}
