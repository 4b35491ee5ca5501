package stats

// Golden is the SplitMix64 increment, 2^64 divided by the golden ratio:
// adding it to a counter and finalizing with Mix64 walks a full-period
// stream of well-spread words.
const Golden = 0x9e3779b97f4a7c15

// Mix64 is the SplitMix64 finalizer: a bijective avalanche function that
// turns weakly related words (seed + i·Golden, a seed xor a site hash)
// into statistically independent ones. It is the repository's one mixer:
// RNG stream derivation, fault schedules, trace IDs, shard ring placement
// and sketch rows all go through it.
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// FNV1a is the 64-bit FNV-1a hash of s, the repository's stable string
// hash: fault site names, shard names and dataset names on the ring, and
// non-hex trace IDs all hash through it.
func FNV1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
