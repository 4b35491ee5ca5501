package server

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
)

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache(1<<20, nil, nil)
	builds := 0
	build := func() (any, int64, error) { builds++; return "artifact", 100, nil }

	v, out, err := c.GetOrBuild("k", build)
	if err != nil || out != OutcomeMiss || v != "artifact" {
		t.Fatalf("first: v=%v out=%v err=%v", v, out, err)
	}
	v, out, err = c.GetOrBuild("k", build)
	if err != nil || out != OutcomeHit || v != "artifact" {
		t.Fatalf("second: v=%v out=%v err=%v", v, out, err)
	}
	if builds != 1 {
		t.Errorf("builds = %d, want 1", builds)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Bytes != 100 || st.Items != 1 {
		t.Errorf("stats = %+v", st)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(250, nil, nil)
	mk := func(key string) {
		t.Helper()
		if _, _, err := c.GetOrBuild(key, func() (any, int64, error) { return key, 100, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mk("a")
	mk("b")
	// Touch "a" so "b" is the LRU victim when "c" overflows the budget.
	if _, out, _ := c.GetOrBuild("a", nil); out != OutcomeHit {
		t.Fatal("a should be cached")
	}
	mk("c")
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 200 || st.Items != 2 {
		t.Fatalf("stats after eviction = %+v", st)
	}
	if _, out, _ := c.GetOrBuild("a", nil); out != OutcomeHit {
		t.Error("recently used entry a was evicted")
	}
	if _, out, _ := c.GetOrBuild("b", func() (any, int64, error) { return "b", 100, nil }); out == OutcomeHit {
		t.Error("LRU entry b survived eviction")
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(1<<20, nil, nil)
	var builds atomic.Int32
	gate := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	outs := make([]Outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.GetOrBuild("k", func() (any, int64, error) {
				builds.Add(1)
				<-gate
				return 42, 8, nil
			})
			if err != nil || v != 42 {
				t.Errorf("goroutine %d: v=%v err=%v", i, v, err)
			}
			outs[i] = out
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for one key, want 1 (singleflight)", n)
	}
	nhits := 0
	for _, o := range outs {
		if o == OutcomeHit {
			nhits++
		}
	}
	if nhits != waiters-1 {
		t.Errorf("%d hits, want %d (all but the builder)", nhits, waiters-1)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

func TestCacheBuildErrorNotCached(t *testing.T) {
	c := NewCache(1<<20, nil, nil)
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuild("k", func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failed build must not poison the key: the next call retries.
	v, out, err := c.GetOrBuild("k", func() (any, int64, error) { return "ok", 8, nil })
	if err != nil || out != OutcomeMiss || v != "ok" {
		t.Fatalf("retry: v=%v out=%v err=%v", v, out, err)
	}
	if st := c.Stats(); st.Items != 1 || st.Bytes != 8 {
		t.Errorf("stats = %+v", st)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

// TestCacheCounterConservation is the regression test for the counter
// drift bug: every lookup must land in exactly one of hits, misses, or
// disk hits — including waiters that join an in-flight build whose
// build fails, which the original implementation counted as nothing.
func TestCacheCounterConservation(t *testing.T) {
	c := NewCache(1<<20, nil, nil)
	boom := errors.New("boom")
	gate := make(chan struct{})
	entered := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.GetOrBuild("k", func() (any, int64, error) {
			close(entered)
			<-gate
			return nil, 0, boom
		})
	}()
	<-entered
	// Join the in-flight build from several waiters; all of them will
	// see the failure. A waiter's build function must be callable: the
	// lookups poll below races with the map lookup (Lookups increments
	// first), so a waiter that arrives after the failed build's cleanup
	// removed the key legally takes the build path itself — it must then
	// produce the same miss/boom outcome, not dereference nil.
	const waiters = 4
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lateBuild := func() (any, int64, error) { return nil, 0, boom }
			if _, out, err := c.GetOrBuild("k", lateBuild); !errors.Is(err, boom) || out != OutcomeMiss {
				t.Errorf("waiter: out=%v err=%v, want miss/boom", out, err)
			}
		}()
	}
	// Let the waiters pile onto the entry, then fail the build. The
	// sleep-free way would need cache internals; polling Lookups is
	// enough since joining increments it before blocking.
	for c.Stats().Lookups < waiters+1 {
	}
	close(gate)
	wg.Wait()

	st := c.Stats()
	if st.Lookups != waiters+1 {
		t.Fatalf("lookups = %d, want %d", st.Lookups, waiters+1)
	}
	if got := st.Hits + st.Misses + st.DiskHits; got != st.Lookups {
		t.Errorf("hits(%d) + misses(%d) + disk(%d) = %d, want %d lookups",
			st.Hits, st.Misses, st.DiskHits, got, st.Lookups)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

// TestCacheOversizeBuildNotAdmitted is the regression test for the
// oversize admit-then-evict bug: an artifact larger than the whole
// budget was admitted, drained every other entry via the eviction loop,
// and counted a bogus eviction for itself.
func TestCacheOversizeBuildNotAdmitted(t *testing.T) {
	c := NewCache(250, nil, nil)
	if _, _, err := c.GetOrBuild("small", func() (any, int64, error) { return "s", 100, nil }); err != nil {
		t.Fatal(err)
	}
	v, out, err := c.GetOrBuild("huge", func() (any, int64, error) { return "h", 1000, nil })
	if err != nil || out != OutcomeMiss || v != "h" {
		t.Fatalf("huge: v=%v out=%v err=%v", v, out, err)
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 — the oversize artifact was never reusable", st.Evictions)
	}
	if st.Bytes != 100 || st.Items != 1 {
		t.Errorf("stats = %+v, want the small entry untouched", st)
	}
	if _, out, _ := c.GetOrBuild("small", nil); out != OutcomeHit {
		t.Error("oversize build evicted an unrelated cached entry")
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

// testArtifact is a small sample artifact the disk tier can persist
// (the tier stores only estimators and samples, not arbitrary values).
func testArtifact(v float64) *sampleArtifact {
	sm := &core.Sample{
		Points:     []dataset.WeightedPoint{{P: geom.Point{v, 2 * v}, W: 1.5}},
		Norm:       v,
		DataPasses: 2,
	}
	return &sampleArtifact{s: sm, ns: core.NormState{K: v, N: 10, Kernels: 4}}
}

// TestCacheDiskServeAfterEviction covers the one artifact tier: an
// artifact evicted from memory comes back from the disk tier — reported
// as OutcomeDisk, equal to the original, without calling build — and is
// promoted so the next lookup hits memory; Peek finds a disk copy the
// same way, never building. Counters keep lookups == hits + misses + disk.
func TestCacheDiskServeAfterEviction(t *testing.T) {
	disk, err := NewDiskTier(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := testArtifact(1), testArtifact(2)
	// Sized as the tier sizes a loaded sample, with room for one.
	size := sampleBytes(a.s)
	c := NewCache(size+size/2, disk, nil)
	if _, _, err := c.GetOrBuild("a", func() (any, int64, error) { return a, size, nil }); err != nil {
		t.Fatal(err)
	}
	// Evict "a" from memory by inserting "b".
	if _, _, err := c.GetOrBuild("b", func() (any, int64, error) { return b, size, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Items != 1 {
		t.Fatalf("stats after eviction = %+v", st)
	}
	mustNotBuild := func() (any, int64, error) {
		t.Error("build called for an artifact on disk")
		return nil, 0, errors.New("unexpected build")
	}
	v, out, err := c.GetOrBuild("a", mustNotBuild)
	if err != nil || out != OutcomeDisk {
		t.Fatalf("evicted a: out=%v err=%v, want disk", out, err)
	}
	if !reflect.DeepEqual(v, a) {
		t.Errorf("disk copy of a = %+v, want %+v", v, a)
	}
	// Promoted (evicting "b"): the next lookup is a memory hit.
	if _, out, _ := c.GetOrBuild("a", mustNotBuild); out != OutcomeHit {
		t.Errorf("second lookup of a = %v, want hit", out)
	}
	v, out, ok := c.Peek("b")
	if !ok || out != OutcomeDisk || !reflect.DeepEqual(v, b) {
		t.Errorf("peek of evicted b: ok=%v out=%v v=%+v, want the disk copy", ok, out, v)
	}
	if _, _, ok := c.Peek("never-built"); ok {
		t.Error("peek found an artifact that was never built")
	}
	st := c.Stats()
	if st.DiskHits != 1 || st.Misses != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 disk hit, 2 misses, 1 hit", st)
	}
	if got := st.Hits + st.Misses + st.DiskHits; got != st.Lookups {
		t.Errorf("conservation: %d + %d + %d != %d", st.Hits, st.Misses, st.DiskHits, st.Lookups)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

// TestCacheEvictedRebuildFailsThrough: with no disk tier, an evicted
// key's failed rebuild returns the build error — there is no side copy
// to fall back on.
func TestCacheEvictedRebuildFailsThrough(t *testing.T) {
	c := NewCache(150, nil, nil)
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuild("a", func() (any, int64, error) { return "a1", 100, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrBuild("b", func() (any, int64, error) { return "b1", 100, nil }); err != nil {
		t.Fatal(err)
	}
	if _, out, err := c.GetOrBuild("a", func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) || out != OutcomeMiss {
		t.Fatalf("out=%v err=%v, want miss/boom", out, err)
	}
	if st := c.Stats(); st.DiskHits != 0 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 3 misses and no disk hits", st)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

func TestCacheZeroBudgetStoresNothing(t *testing.T) {
	c := NewCache(0, nil, nil)
	builds := 0
	for i := 0; i < 3; i++ {
		v, out, err := c.GetOrBuild("k", func() (any, int64, error) { builds++; return "v", 100, nil })
		if err != nil || out != OutcomeMiss || v != "v" {
			t.Fatalf("iter %d: v=%v out=%v err=%v", i, v, out, err)
		}
	}
	if builds != 3 {
		t.Errorf("builds = %d, want 3 (storage disabled)", builds)
	}
	if st := c.Stats(); st.Bytes != 0 || st.Items != 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

func TestCacheConcurrentDistinctKeys(t *testing.T) {
	c := NewCache(1<<10, nil, nil)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%8)
			if _, _, err := c.GetOrBuild(key, func() (any, int64, error) { return i, 64, nil }); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 1<<10 {
		t.Errorf("budget exceeded: %+v", st)
	}
	if err := c.invariants(); err != nil {
		t.Error(err)
	}
}

// invariants checks the cache's internal accounting; the chaos suite
// calls it after every fault schedule. Valid at quiescence (no lookups
// in flight).
func (c *Cache) invariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*centry); e.done {
			sum += e.size
		}
	}
	if c.ll.Len() != len(c.items) {
		return fmt.Errorf("cache: list has %d entries, index %d", c.ll.Len(), len(c.items))
	}
	if sum != c.used {
		return fmt.Errorf("cache: accounted %d bytes, entries sum to %d", c.used, sum)
	}
	if c.maxBytes > 0 && c.used > c.maxBytes {
		return fmt.Errorf("cache: %d bytes used over budget %d", c.used, c.maxBytes)
	}
	lk, h, m, d := c.lookups.Load(), c.hits.Load(), c.misses.Load(), c.diskHits.Load()
	if lk != h+m+d {
		return fmt.Errorf("cache: %d lookups != %d hits + %d misses + %d disk", lk, h, m, d)
	}
	return nil
}
