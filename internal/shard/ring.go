// Package shard turns the single-node density-biased sampler into a
// scatter-gather system that is bit-identical to it.
//
// The math cooperates: the normalizer k_a = Σ f(x_i)^a is a plain sum
// whose per-block partials merge exactly when re-added in block order, and
// the coin-flip pass already derives every block's RNG stream from
// (base, block index) alone. A Coordinator therefore partitions a
// dataset's scan blocks across shard workers by consistent-hash placement,
// gathers per-shard partial normalizers into the exact global k_a, ships
// (k_a, stream base) back out for the coin pass, and concatenates the
// selections in global block order — the same floats added in the same
// order and the same coins flipped from the same streams as one machine
// would, at every shard count, replica count, and worker count.
//
// Workers sit behind the Shard interface: Local runs an Executor in
// process, Client speaks the same two requests over HTTP to another
// dbsserve. Replica fan-out, hedged requests after a latency budget, and
// cross-replica fallback on failure live in the Coordinator and never
// change bytes, because every replica computes the identical answer.
package shard

import (
	"sort"

	"repro/internal/stats"
)

// vnodesPerShard is the virtual-node count per shard name. 64 keeps the
// largest/smallest ownership ratio tight enough for block placement while
// the ring stays a few KiB.
const vnodesPerShard = 64

// BlockKey places global block b of the named dataset on the ring. The key
// depends on the dataset name, not its content fingerprint, so placement
// survives appends: a new generation adds blocks without moving old ones.
func BlockKey(dataset string, b int) uint64 {
	return stats.Mix64(stats.FNV1a(dataset) ^ stats.Mix64(uint64(b)+stats.Golden))
}

type vnode struct {
	hash uint64
	node int // index into names
}

// Ring is a consistent-hash ring with virtual nodes over shard names. It
// is immutable after construction and a pure function of the (sorted)
// name set, so every coordinator that knows the same shards derives the
// same placement.
type Ring struct {
	names  []string
	vnodes []vnode // sorted by (hash, node)
}

// NewRing builds a ring over the given shard names (deduped, sorted;
// order of the argument does not matter).
func NewRing(names []string) *Ring {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	uniq := sorted[:0]
	for i, n := range sorted {
		if i == 0 || n != sorted[i-1] {
			uniq = append(uniq, n)
		}
	}
	r := &Ring{names: uniq, vnodes: make([]vnode, 0, len(uniq)*vnodesPerShard)}
	for i, n := range r.names {
		base := stats.FNV1a(n)
		for v := 0; v < vnodesPerShard; v++ {
			r.vnodes = append(r.vnodes, vnode{hash: stats.Mix64(base ^ stats.Mix64(uint64(v)*stats.Golden+stats.Golden)), node: i})
		}
	}
	sort.Slice(r.vnodes, func(a, b int) bool {
		if r.vnodes[a].hash != r.vnodes[b].hash {
			return r.vnodes[a].hash < r.vnodes[b].hash
		}
		return r.vnodes[a].node < r.vnodes[b].node
	})
	return r
}

// Names returns the ring's shard names, sorted. Callers must not mutate.
func (r *Ring) Names() []string { return r.names }

// Size returns the number of distinct shards on the ring.
func (r *Ring) Size() int { return len(r.names) }

// at finds the first vnode clockwise of key (wrapping).
func (r *Ring) at(key uint64) int {
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= key })
	if i == len(r.vnodes) {
		i = 0
	}
	return i
}

// Owner returns the index (into Names) of the shard owning key.
func (r *Ring) Owner(key uint64) int {
	if len(r.vnodes) == 0 {
		return -1
	}
	return r.vnodes[r.at(key)].node
}

// Successors returns up to n distinct shard indices starting at the owner
// of key and walking clockwise — the owner first, then the fallback
// replicas in ring order.
func (r *Ring) Successors(key uint64, n int) []int {
	if len(r.vnodes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.names) {
		n = len(r.names)
	}
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for i, steps := r.at(key), 0; steps < len(r.vnodes) && len(out) < n; steps++ {
		v := r.vnodes[(i+steps)%len(r.vnodes)]
		if !seen[v.node] {
			seen[v.node] = true
			out = append(out, v.node)
		}
	}
	return out
}
