package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// tracedAt returns a traced Recorder reading clock, started at its
// current time, so logged offsets are exact.
func tracedAt(id string, clock *fakeClock) *Recorder {
	r := NewTraced(id)
	r.now = clock.Now
	r.start = clock.Now()
	return r
}

func (c *fakeClock) set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

func TestNilTraceIsNoOp(t *testing.T) {
	for _, r := range []*Recorder{nil, New()} {
		sp := r.StartSpan("x")
		sp.AddPoints(1)
		sp.End()
		r.Region("y", time.Now(), 2, "note")
		r.Eventf("z", "note")
		r.Eventf("z", "n=%d", 1)
		if got := r.ID(); got != "" {
			t.Fatalf("untraced ID = %q", got)
		}
		snap := r.Finish("/r", 200, "hit")
		if snap.ID != "" || len(snap.Events) != 0 {
			t.Fatalf("untraced Finish = %+v", snap)
		}
	}
}

func TestBeginEndProducesEvent(t *testing.T) {
	r := NewTraced("abc")
	sp := r.StartSpan("draw")
	sp.AddPoints(42)
	sp.End()
	snap := r.Finish("/v1/sample", 200, "miss")
	if snap.ID != "abc" || snap.Route != "/v1/sample" || snap.Status != 200 || snap.Cache != "miss" {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if len(snap.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(snap.Events))
	}
	e := snap.Events[0]
	if e.Path != "draw" || e.Points != 42 || e.EndMs < e.StartMs {
		t.Fatalf("event = %+v", e)
	}
	if snap.Orphans != 0 {
		t.Fatalf("orphans = %d", snap.Orphans)
	}
}

func TestNestedBeginEndCollapsesToOneEvent(t *testing.T) {
	r := NewTraced("abc")
	outer := r.StartSpan("s")
	inner := r.StartSpan("s") // re-entrant
	inner.AddPoints(10)
	inner.End()
	outer.AddPoints(5)
	outer.End()
	snap := r.Finish("", 0, "")
	if len(snap.Events) != 1 {
		t.Fatalf("events = %d, want 1 (nested pairs collapse)", len(snap.Events))
	}
	if snap.Events[0].Points != 15 {
		t.Fatalf("points = %d, want 15", snap.Events[0].Points)
	}
}

func TestSequentialOccurrencesStaySeparate(t *testing.T) {
	r := NewTraced("abc")
	for _, pts := range []int64{100, 200} {
		sp := r.StartSpan("scan")
		sp.AddPoints(pts)
		sp.End()
	}
	snap := r.Finish("", 0, "")
	if len(snap.Events) != 2 {
		t.Fatalf("events = %d, want 2 (sequential passes are separate)", len(snap.Events))
	}
}

func TestOrphanCounting(t *testing.T) {
	r := NewTraced("abc")
	r.StartSpan("a")
	r.StartSpan("b").End()
	snap := r.Finish("", 0, "")
	if snap.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1 (a left open)", snap.Orphans)
	}
	// An End with no open occurrence left is ignored entirely.
	r2 := NewTraced("x")
	sp := r2.StartSpan("p")
	sp.End()
	sp.End()
	if snap2 := r2.Finish("", 0, ""); len(snap2.Events) != 1 || snap2.Orphans != 0 {
		t.Fatalf("unmatched end produced %+v", snap2)
	}
}

func TestEventCapAndDropCounter(t *testing.T) {
	r := NewTraced("abc")
	for i := 0; i < MaxEvents+25; i++ {
		r.Eventf("e", "n")
	}
	snap := r.Finish("", 0, "")
	if len(snap.Events) != MaxEvents {
		t.Fatalf("events = %d, want cap %d", len(snap.Events), MaxEvents)
	}
	if snap.Dropped != 25 {
		t.Fatalf("dropped = %d, want 25", snap.Dropped)
	}
}

func TestFinishSealsAndIsOneShot(t *testing.T) {
	r := NewTraced("abc")
	r.Eventf("a", "")
	first := r.Finish("/r", 200, "")
	r.Eventf("b", "") // after seal: ignored
	r.StartSpan("c").End()
	if second := r.Finish("/r", 200, ""); second.ID != "" {
		t.Fatalf("second Finish = %+v, want zero snapshot", second)
	}
	if len(first.Events) != 1 {
		t.Fatalf("first snapshot mutated: %d events", len(first.Events))
	}
}

// regionAt logs a region over [from, to] milliseconds of r's clock.
func regionAt(r *Recorder, clock *fakeClock, path string, from, to int, points int64, note string) {
	ms := func(n int) time.Time { return r.start.Add(time.Duration(n) * time.Millisecond) }
	clock.set(ms(to))
	r.Region(path, ms(from), points, "%s", note)
}

func TestSpanTreeNesting(t *testing.T) {
	clock := newFakeClock()
	r := tracedAt("abc", clock)
	// Explicit intervals so the tree is deterministic: a build stage
	// containing a draw containing a scan, plus a cache event whose
	// "cache" parent never records an event of its own.
	regionAt(r, clock, "scan", 12, 18, 1000, "")
	regionAt(r, clock, "draw", 11, 19, 1000, "")
	regionAt(r, clock, "server/build/sample", 10, 20, 0, "")
	regionAt(r, clock, "cache/sample", 9, 21, 0, "miss gen=0")
	snap := r.Finish("/v1/sample", 200, "miss")

	byPath := map[string]SpanJSON{}
	var walk func(depth int, spans []SpanJSON)
	paths := map[string]int{} // path -> depth
	walk = func(depth int, spans []SpanJSON) {
		for _, s := range spans {
			byPath[s.Path] = s
			paths[s.Path] = depth
			walk(depth+1, s.Children)
		}
	}
	walk(0, snap.Spans)

	if paths["cache"] != 0 || !byPath["cache"].Synthetic {
		t.Fatalf("cache container: depth=%d synthetic=%v", paths["cache"], byPath["cache"].Synthetic)
	}
	if paths["cache/sample"] != 1 {
		t.Fatalf("cache/sample depth = %d, want 1", paths["cache/sample"])
	}
	if !byPath["server"].Synthetic || !byPath["server/build"].Synthetic {
		t.Fatal("server and server/build should be synthesized containers")
	}
	if paths["server/build/sample"] != 2 {
		t.Fatalf("server/build/sample depth = %d, want 2", paths["server/build/sample"])
	}
	// draw and scan nest by path, not containment alone: they are roots
	// of their own paths.
	if paths["draw"] != 0 {
		t.Fatalf("draw depth = %d, want 0 (top-level path)", paths["draw"])
	}
	if paths["scan"] != 0 {
		t.Fatalf("scan depth = %d, want 0 (top-level path)", paths["scan"])
	}
}

func TestSpanTreeSiblingOccurrences(t *testing.T) {
	clock := newFakeClock()
	r := tracedAt("abc", clock)
	// Two attempts of one stage; a child event inside the second only.
	regionAt(r, clock, "stage/inner", 25, 28, 0, "")
	regionAt(r, clock, "stage", 0, 10, 0, "")
	regionAt(r, clock, "stage", 20, 30, 0, "")
	snap := r.Finish("", 0, "")
	if len(snap.Spans) != 2 {
		t.Fatalf("roots = %d, want 2 stage occurrences", len(snap.Spans))
	}
	var withChild int
	for _, s := range snap.Spans {
		if s.Path != "stage" {
			t.Fatalf("unexpected root %q", s.Path)
		}
		if len(s.Children) == 1 && s.Children[0].Path == "stage/inner" {
			if s.StartMs != 20 {
				t.Fatalf("inner attached to occurrence starting %v, want 20", s.StartMs)
			}
			withChild++
		}
	}
	if withChild != 1 {
		t.Fatalf("inner event attached to %d occurrences, want exactly the containing one", withChild)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil) != nil")
	}
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context carries a recorder")
	}
	if NewContext(ctx, nil) != ctx {
		t.Fatal("NewContext(nil recorder) should return ctx unchanged")
	}
	r := NewTraced("abc")
	if got := FromContext(NewContext(ctx, r)); got != r {
		t.Fatalf("round trip = %p, want %p", got, r)
	}
}

func TestTraceConcurrentUse(t *testing.T) {
	r := NewTraced("abc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := r.StartSpan("worker")
				r.Eventf("fault", "g=%d i=%d", g, i)
				sp.AddPoints(1)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	snap := r.Finish("", 0, "")
	if snap.Orphans != 0 {
		t.Fatalf("orphans = %d after matched concurrent use", snap.Orphans)
	}
	if len(snap.Events)+snap.Dropped != 8*400 {
		// 8 goroutines × (≤200 worker events after collapse + 200 faults):
		// worker opens and closes may interleave across goroutines and
		// collapse, so only the total recorded-plus-dropped is bounded.
		if len(snap.Events) > MaxEvents {
			t.Fatalf("events %d exceed cap", len(snap.Events))
		}
	}
}

// TestTraceLogMatchesAggregate pins the single-source property: a traced
// Recorder's occurrence log and its aggregate span tree come from the
// same opens and closes, so per path the logged occurrences' durations
// and points sum to exactly the WriteJSON seconds and points.
func TestTraceLogMatchesAggregate(t *testing.T) {
	clock := newFakeClock()
	r := tracedAt("abc", clock)
	step := func(ms int) { clock.Advance(time.Duration(ms) * time.Millisecond) }
	for pass := 1; pass <= 2; pass++ {
		draw := r.StartSpan("draw")
		for _, stage := range []string{"draw/normalize", "draw/sample"} {
			sp := r.StartSpan(stage)
			scan := r.StartSpan("scan")
			step(3 * pass)
			scan.AddPoints(1000)
			scan.End()
			step(1)
			sp.AddPoints(1000)
			sp.End()
		}
		again := r.StartSpan("draw") // re-entrant: part of the outer occurrence
		step(2)
		again.End()
		draw.AddPoints(int64(500 * pass))
		draw.End()
		step(5) // idle between draws: no span is open
	}

	type total struct {
		d      time.Duration
		points int64
	}
	logged := map[string]total{}
	for _, e := range r.Finish("/v1/sample", 200, "miss").Events {
		tt := logged[e.Path]
		tt.d += time.Duration(math.Round((e.EndMs - e.StartMs) * 1e6))
		tt.points += e.Points
		logged[e.Path] = tt
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep reportJSON
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	agg := map[string]total{}
	var walk func([]spanJSON)
	walk = func(spans []spanJSON) {
		for _, s := range spans {
			agg[s.Path] = total{time.Duration(math.Round(s.Seconds * 1e9)), s.Points}
			walk(s.Children)
		}
	}
	walk(rep.Spans)

	if len(agg) != 4 || len(logged) != len(agg) {
		t.Fatalf("paths: logged %v, aggregate %v", logged, agg)
	}
	for path, want := range agg {
		if got := logged[path]; got != want {
			t.Errorf("%s: logged occurrences sum to %v, aggregate report has %v", path, got, want)
		}
	}
}
