package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Outcome classifies how a lookup was served. Exactly one outcome is
// counted per GetOrBuild, so at quiescence
// lookups == hits + misses + disk — the conservation law the counter
// tests assert.
type Outcome int

const (
	// OutcomeMiss: the artifact was built (or the build failed).
	OutcomeMiss Outcome = iota
	// OutcomeHit: served from memory, including joining an in-flight
	// lookup that succeeded — no dataset passes either way.
	OutcomeHit
	// OutcomeDisk: loaded from the disk tier instead of rebuilt.
	OutcomeDisk
)

func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeDisk:
		return "disk"
	default:
		return "miss"
	}
}

// Cache is the pipeline artifact cache and the one place that knows the
// artifact-tier policy: a lookup tries the memory LRU, then the optional
// disk tier, then builds — and every built artifact is stored in both
// tiers. Keys canonicalize (dataset fingerprint, parameters, seed) — see
// estParams.key in handlers.go — so an artifact is a pure function of its
// key: a copy evicted from memory and reloaded from disk is the fresh
// artifact, byte for byte.
//
// Concurrent requests for the same missing key are single-flighted: the
// first runs the disk load or build, the rest block on its completion and
// share the result. Failed builds are not cached; every waiter receives
// the error and the next request retries the build.
//
// The cache writes its own /metrics series as each event happens — the
// server_cache_{hits,misses,disk_hits,evictions}_total counters and the
// server_cache_bytes gauge — and Stats reads them back, so /metrics and
// /healthz report one store.
type Cache struct {
	maxBytes int64
	disk     *DiskTier // nil: memory only

	mu    sync.Mutex
	used  int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits      *obs.Counter
	misses    *obs.Counter
	diskHits  *obs.Counter // nil without a disk tier
	evictions *obs.Counter
	bytes     *obs.Gauge // used, set under mu

	lookups  atomic.Int64
	peeks    atomic.Int64
	peekHits atomic.Int64
}

type centry struct {
	key   string
	val   any
	size  int64
	done  bool // lookup finished (guarded by Cache.mu)
	err   error
	ready chan struct{} // closed when done; fields are immutable after
}

// NewCache returns a cache bounded to maxBytes of accounted artifact
// size over the optional disk tier, counting into rec (a private
// Recorder when nil). maxBytes ≤ 0 disables memory storage: every lookup
// goes to the disk tier or builds (still single-flighted for concurrent
// identical requests).
func NewCache(maxBytes int64, disk *DiskTier, rec *obs.Recorder) *Cache {
	if rec == nil {
		rec = obs.New()
	}
	c := &Cache{
		maxBytes:  maxBytes,
		disk:      disk,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      rec.Counter(CtrCacheHit),
		misses:    rec.Counter(CtrCacheMiss),
		evictions: rec.Counter(CtrCacheEvict),
		bytes:     rec.Gauge(GaugeCacheBytes),
	}
	if disk != nil {
		c.diskHits = rec.Counter(CtrCacheDisk)
	}
	return c
}

// GetOrBuild returns the artifact cached under key in memory or on disk,
// or runs build to create it. build returns the artifact and its
// accounted byte size; a built artifact is also written to the disk tier.
func (c *Cache) GetOrBuild(key string, build func() (any, int64, error)) (any, Outcome, error) {
	c.lookups.Add(1)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*centry)
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			c.misses.Inc()
			return nil, OutcomeMiss, e.err
		}
		c.hits.Inc()
		return e.val, OutcomeHit, nil
	}
	e := &centry{key: key, ready: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.items[key] = el
	c.mu.Unlock()

	out := OutcomeDisk
	v, size, ok := c.disk.load(key)
	var err error
	if !ok {
		out = OutcomeMiss
		if v, size, err = build(); err == nil {
			c.disk.store(key, v)
		}
	}

	c.mu.Lock()
	e.done = true
	if err != nil {
		e.err, v = err, nil
		c.removeLocked(el, e)
	} else {
		e.val, e.size = v, size
		if c.maxBytes <= 0 || size > c.maxBytes {
			// Larger than the whole budget (or storage disabled): the
			// artifact could never be reused, so it is not admitted —
			// and not counted as an eviction, since it was never in.
			c.removeLocked(el, e)
		} else {
			c.used += size
			c.evictLocked()
			c.bytes.Set(float64(c.used))
		}
	}
	c.mu.Unlock()
	close(e.ready)

	if out == OutcomeDisk {
		c.diskHits.Inc()
	} else {
		c.misses.Inc()
	}
	return v, out, err
}

// Peek returns the artifact under key from memory or the disk tier
// without building, waiting on an in-flight lookup, or counting toward
// the lookup conservation law (peeks have their own counters). The
// degrade path uses it to check for a servable fallback artifact while
// the server is shedding — a peek must never trigger the expensive work
// admission just refused.
func (c *Cache) Peek(key string) (any, Outcome, bool) {
	c.peeks.Add(1)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		if e := el.Value.(*centry); e.done && e.err == nil {
			c.ll.MoveToFront(el)
			c.mu.Unlock()
			c.peekHits.Add(1)
			return e.val, OutcomeHit, true
		}
	}
	c.mu.Unlock()
	v, _, ok := c.disk.load(key)
	if !ok {
		return nil, OutcomeMiss, false
	}
	c.peekHits.Add(1)
	return v, OutcomeDisk, true
}

// removeLocked takes el out of the primary index without touching byte
// accounting (its size was never added). Waiters still hold e and read
// its fields after ready closes.
func (c *Cache) removeLocked(el *list.Element, e *centry) {
	if cur, ok := c.items[e.key]; ok && cur == el {
		delete(c.items, e.key)
		c.ll.Remove(el)
	}
}

// evictLocked drops least-recently-used completed entries until the byte
// budget holds. In-flight lookups are never evicted (their size is
// unknown and waiters hold their entry). Evicted artifacts need no side
// copy: every built artifact is already in the disk tier, when there is
// one, and a rebuild reproduces it exactly when there is not.
func (c *Cache) evictLocked() {
	el := c.ll.Back()
	for c.used > c.maxBytes && el != nil {
		prev := el.Prev()
		e := el.Value.(*centry)
		if e.done {
			delete(c.items, e.key)
			c.ll.Remove(el)
			c.used -= e.size
			c.evictions.Inc()
		}
		el = prev
	}
}

// CacheStats is a point-in-time snapshot of the cache counters, the
// /healthz view of the series the cache writes.
type CacheStats struct {
	Bytes     int64 `json:"bytes"`
	Items     int   `json:"items"`
	Lookups   int64 `json:"lookups"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	DiskHits  int64 `json:"disk_hits"`
	Evictions int64 `json:"evictions"`
	Peeks     int64 `json:"peeks,omitempty"`
	PeekHits  int64 `json:"peek_hits,omitempty"`
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	bytes, items := int64(c.bytes.Value()), len(c.items)
	c.mu.Unlock()
	return CacheStats{
		Bytes:     bytes,
		Items:     items,
		Lookups:   c.lookups.Load(),
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		DiskHits:  c.diskHits.Value(),
		Evictions: c.evictions.Value(),
		Peeks:     c.peeks.Load(),
		PeekHits:  c.peekHits.Load(),
	}
}
