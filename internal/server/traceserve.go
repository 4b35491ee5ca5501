package server

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// statusWriter records the status code and body bytes a handler wrote,
// so the compute wrapper can observe every outcome — including the
// error paths that write through fail() — into the route histogram,
// the access log, and the trace snapshot.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// status returns the response code (200 if the handler never set one).
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// requestRecorder returns a request's Recorder: traced under id when any
// consumer of the occurrence log (the trace rings, the access log) is
// configured, plain otherwise.
func (s *Server) requestRecorder(id string) *obs.Recorder {
	if s.traceOn {
		return obs.NewTraced(id)
	}
	return obs.New()
}

// finishRequest seals a completed request: its counters roll up into the
// server's Recorder, the trace snapshot is filed into the slow ring
// (always, past the threshold) and the recent ring (by the deterministic
// ID-sampling decision), and the access-log line is emitted. Without
// tracing the access logger logs without a stage breakdown, though the
// usual wiring enables collection whenever an access log is configured.
func (s *Server) finishRequest(rec *obs.Recorder, route, tenant string, sw *statusWriter, start time.Time) {
	s.rec.Merge(rec)
	dur := time.Since(start)
	cache := sw.Header().Get("X-DBS-Cache")
	var snap obs.Snapshot
	if s.traceOn {
		snap = rec.Finish(route, sw.status(), cache)
		snap.Slow = s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold
		if snap.Slow {
			s.slowTrace.Add(snap)
		}
		if s.cfg.TraceSample > 0 && SampleID(snap.ID, s.cfg.TraceSample) {
			s.traces.Add(snap)
		}
	}
	if s.accessLog != nil {
		queueMs, stages := stageBreakdown(snap)
		if tenant == DefaultTenant {
			tenant = "" // omitted from the line; the default bucket is implied
		}
		s.accessLog.log(accessRecord{
			Time:     time.Now().UTC().Format(time.RFC3339Nano),
			TraceID:  sw.Header().Get(TraceHeader),
			Route:    route,
			Tenant:   tenant,
			Status:   sw.status(),
			DurMs:    float64(dur) / float64(time.Millisecond),
			QueueMs:  queueMs,
			Cache:    cache,
			Degraded: sw.Header().Get(DegradedHeader) != "",
			Bytes:    sw.bytes,
			Slow:     snap.Slow,
			Stages:   stages,
		})
	}
}

// stageBreakdown aggregates a snapshot's events into the access-log
// stage map: admission wait is split out as the queue time, and every
// other timed path none of whose ancestor paths logged anything reports
// its total ("server/build/est", "kde/build", "shard/partials", "scan"),
// so a span and its own children ("draw" and "draw/normalize") are never
// both counted. Totals still overlap across paths — a scan runs inside a
// draw which runs inside a build stage — so the map is a breakdown for
// reading, not a partition.
func stageBreakdown(snap obs.Snapshot) (queueMs float64, stages map[string]float64) {
	logged := make(map[string]bool, len(snap.Events))
	for _, e := range snap.Events {
		logged[e.Path] = true
	}
	for _, e := range snap.Events {
		d := e.EndMs - e.StartMs
		if e.Path == "admission/wait" {
			queueMs += d
			continue
		}
		if d <= 0 || loggedAncestor(logged, e.Path) {
			continue // point events (faults, retries, pool runs) and nested spans
		}
		if stages == nil {
			stages = make(map[string]float64)
		}
		stages[e.Path] += d
	}
	return queueMs, stages
}

// loggedAncestor reports whether any proper ancestor path of path is in
// logged.
func loggedAncestor(logged map[string]bool, path string) bool {
	for {
		i := strings.LastIndexByte(path, '/')
		if i < 0 {
			return false
		}
		path = path[:i]
		if logged[path] {
			return true
		}
	}
}

// tracesResponse is the /debug/traces body.
type tracesResponse struct {
	Enabled bool           `json:"enabled"`
	Sample  float64        `json:"sample"`
	SlowMs  float64        `json:"slow_ms"`
	Total   int64          `json:"total"`
	Recent  []obs.Snapshot `json:"recent"`
	Slow    []obs.Snapshot `json:"slow"`
}

// handleTraces serves the retained trace rings, newest first. Recent
// is the ID-sampled ring, Slow the keeper ring; Total counts every
// snapshot ever admitted to the recent ring (so a scraper can tell
// "quiet server" from "everything sampled away").
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	s.rec.Counter(CtrRequests).Inc()
	w.Header().Set(TraceHeader, s.ids.Next())
	writeJSON(w, http.StatusOK, tracesResponse{
		Enabled: s.traceOn,
		Sample:  s.cfg.TraceSample,
		SlowMs:  float64(s.cfg.SlowThreshold) / float64(time.Millisecond),
		Total:   s.traces.Total(),
		Recent:  s.traces.Snapshots(),
		Slow:    s.slowTrace.Snapshots(),
	})
}

// IDSource generates trace IDs: 16 hex digits from a SplitMix64
// stream. With a non-zero seed the sequence is deterministic — the
// test and chaos mode, so a failing trace can be named by (seed,
// request index) — while seed 0 draws a random stream seed once.
type IDSource struct {
	mu    sync.Mutex
	state uint64
}

// NewIDSource returns an ID source. seed == 0 seeds randomly.
func NewIDSource(seed uint64) *IDSource {
	if seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			seed = binary.LittleEndian.Uint64(b[:])
		} else {
			seed = uint64(time.Now().UnixNano())
		}
		if seed == 0 {
			seed = 1
		}
	}
	return &IDSource{state: seed}
}

// Next returns the next ID in the stream.
func (s *IDSource) Next() string {
	s.mu.Lock()
	s.state += stats.Golden
	id := stats.Mix64(s.state)
	s.mu.Unlock()
	return fmt.Sprintf("%016x", id)
}

// SampleID is the deterministic sampling decision for a trace ID: a
// pure function of (id, rate), so every replica — and a replayed
// request — decides identically, and the decision consumes no RNG
// state that could perturb results. rate ≥ 1 keeps everything, ≤ 0
// nothing.
func SampleID(id string, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	v, err := strconv.ParseUint(id, 16, 64)
	if err != nil {
		// Non-hex IDs (external callers): hash the string instead.
		v = stats.FNV1a(id)
	}
	u := float64(stats.Mix64(v^stats.Golden)>>11) / (1 << 53)
	return u < rate
}

// Ring is a bounded ring of completed trace snapshots, newest-first on
// read. Memory is bounded by cap × obs.MaxEvents regardless of how many
// requests pass through — the chaos suite's leak assertion.
type Ring struct {
	mu    sync.Mutex
	buf   []obs.Snapshot
	next  int
	n     int
	total int64
}

// NewRing returns a ring holding up to capacity snapshots (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]obs.Snapshot, capacity)}
}

// Add files a snapshot, evicting the oldest when full.
func (r *Ring) Add(s obs.Snapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// Snapshots returns the retained traces, newest first.
func (r *Ring) Snapshots() []obs.Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]obs.Snapshot, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Len returns how many snapshots are retained.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns how many snapshots have ever been added.
func (r *Ring) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
