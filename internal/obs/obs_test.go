package obs

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRecorder exercises every API on the disabled (nil) recorder: all
// calls must be safe no-ops handing out nil handles.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	c := r.Counter("x")
	if c != nil {
		t.Fatalf("nil recorder returned non-nil counter")
	}
	c.Add(5)
	c.Inc()
	if c.Value() != 0 || c.Name() != "" {
		t.Fatalf("nil counter not inert")
	}
	g := r.Gauge("y")
	g.Set(1.5)
	g.Add(2)
	if g != nil || g.Value() != 0 {
		t.Fatalf("nil gauge not inert")
	}
	s := r.StartSpan("a/b")
	s.AddPoints(10)
	s.End()
	if s != nil || s.Points() != 0 || s.Duration() != 0 || s.Path() != "" {
		t.Fatalf("nil span not inert")
	}
	r.PoolRun(10, 4)
	var buf bytes.Buffer
	if err := r.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestCounterGaugeSharedHandles(t *testing.T) {
	r := New()
	a, b := r.Counter("hits"), r.Counter("hits")
	if a != b {
		t.Fatalf("two lookups of one counter returned distinct handles")
	}
	a.Add(3)
	b.Inc()
	if got := r.Counter("hits").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	g := r.Gauge("level")
	g.Set(2.5)
	g.Set(7.25)
	if got := r.Gauge("level").Value(); got != 7.25 {
		t.Fatalf("gauge = %v, want 7.25", got)
	}
	g.Add(-0.25)
	r.Gauge("level").Add(3)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge after adds = %v, want 10", got)
	}
}

func TestSpanHierarchyAndAccumulation(t *testing.T) {
	clock := newFakeClock()
	r := New()
	r.now = clock.Now

	root := r.StartSpan("draw")
	clock.Advance(time.Second)
	child := r.StartSpan("draw/normalize")
	clock.Advance(2 * time.Second)
	child.End()
	child.AddPoints(1000)
	root.End()

	if d := child.Duration(); d != 2*time.Second {
		t.Fatalf("child duration = %v, want 2s", d)
	}
	if d := root.Duration(); d != 3*time.Second {
		t.Fatalf("root duration = %v, want 3s", d)
	}
	// Re-entering the same path accumulates into the same node.
	again := r.StartSpan("draw/normalize")
	clock.Advance(time.Second)
	again.End()
	if again != child {
		t.Fatalf("same path produced a distinct span node")
	}
	if d := child.Duration(); d != 3*time.Second {
		t.Fatalf("accumulated duration = %v, want 3s", d)
	}
	// Ancestors are created implicitly for deep paths.
	deep := r.StartSpan("a/b/c")
	deep.End()
	if len(r.roots) != 2 {
		t.Fatalf("roots = %d, want 2 (draw, a)", len(r.roots))
	}
	if r.spans["a"] == nil || r.spans["a/b"] == nil {
		t.Fatalf("missing implicit ancestor spans")
	}
}

// TestRecorderConcurrent hammers one Recorder from 8 goroutines — shared
// and fresh counters, gauges, spans with points, pool events, and report
// rendering all at once. Run under -race (verify.sh does) this is the
// concurrency-safety gate for the whole layer.
func TestRecorderConcurrent(t *testing.T) {
	r := New()
	const workers = 8
	const iters = 2000
	shared := r.Counter("shared_total")
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				shared.Add(1)
				r.Counter("per_iter_total").Inc()
				r.Gauge("level").Set(float64(id))
				r.Gauge("depth").Add(1)
				sp := r.StartSpan("work/stage")
				sp.AddPoints(2)
				sp.End()
				r.PoolRun(16, id%4+1)
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WriteTree(&buf); err != nil {
						t.Error(err)
					}
					if err := r.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
					}
					if err := r.WriteJSON(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := shared.Value(); got != workers*iters {
		t.Fatalf("shared counter = %d, want %d", got, workers*iters)
	}
	if got := r.Counter("per_iter_total").Value(); got != workers*iters {
		t.Fatalf("per-iter counter = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("depth").Value(); got != workers*iters {
		t.Fatalf("added gauge = %v, want %d", got, workers*iters)
	}
	if got := r.spans["work/stage"].Points(); got != 2*workers*iters {
		t.Fatalf("span points = %d, want %d", got, 2*workers*iters)
	}
	if got := r.Counter(CtrPoolRuns).Value(); got != workers*iters {
		t.Fatalf("pool runs = %d, want %d", got, workers*iters)
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	trc := filepath.Join(dir, "trace.out")
	stop, err := StartProfiles(cpu, mem, trc)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to write.
	x := 0.0
	for i := 0; i < 1e5; i++ {
		x += float64(i) * 1.5
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, trc} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s: empty profile", p)
		}
	}
	// All-empty paths: a working no-op stop.
	stop, err = StartProfiles("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	r := New()
	r.Counter(CtrPointsScanned).Add(12345)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := "dbs_points_scanned_total 12345"; !strings.Contains(string(body), want) {
		t.Fatalf("/metrics missing %q in:\n%s", want, body)
	}
	resp, err = http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
}

func TestProgressPrinterThrottles(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressPrinter(&buf, "scan", time.Hour)
	p(10, 100)  // first call prints
	p(20, 100)  // throttled
	p(50, 100)  // throttled
	p(100, 100) // completion always prints
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("printed %d lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "scan: 10/100 points") {
		t.Fatalf("first line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "scan: 100/100 points") {
		t.Fatalf("last line = %q", lines[1])
	}
}

// fakeClock is a manually advanced clock for deterministic span timings.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Points returns the points attributed so far (0 on a nil handle).
func (s *Span) Points() int64 {
	if s == nil {
		return 0
	}
	return s.points.Load()
}

// Duration returns the accumulated closed time of the span; an open span
// additionally counts time since it was last started.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	return s.durationLocked()
}

// Path returns the span's full slash path ("" on a nil handle).
func (s *Span) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}
