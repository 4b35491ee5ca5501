package shard

import (
	"fmt"
	"testing"
)

func ringNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("w%d", i)
	}
	return out
}

// TestRingDeterministic: placement is a pure function of the name set —
// construction order and duplicates do not matter.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"w0", "w1", "w2"})
	b := NewRing([]string{"w2", "w0", "w1", "w1"})
	if a.Size() != 3 || b.Size() != 3 {
		t.Fatalf("sizes %d, %d; want 3", a.Size(), b.Size())
	}
	for blk := 0; blk < 500; blk++ {
		key := BlockKey("gauss", blk)
		if an, bn := a.Names()[a.Owner(key)], b.Names()[b.Owner(key)]; an != bn {
			t.Fatalf("block %d: %q vs %q", blk, an, bn)
		}
	}
}

// TestRingCoverage: with default vnodes every shard owns a reasonable
// share of blocks — no shard starves or hoards.
func TestRingCoverage(t *testing.T) {
	const blocks = 4000
	for _, n := range []int{2, 3, 8} {
		r := NewRing(ringNames(n))
		counts := make([]int, n)
		for b := 0; b < blocks; b++ {
			counts[r.Owner(BlockKey("ds", b))]++
		}
		fair := blocks / n
		for i, c := range counts {
			if c < fair/3 || c > fair*3 {
				t.Errorf("n=%d shard %d owns %d of %d blocks (fair %d)", n, i, c, blocks, fair)
			}
		}
	}
}

// TestRingStability: removing one shard only moves blocks that the removed
// shard owned — consistent hashing's defining property.
func TestRingStability(t *testing.T) {
	full := NewRing(ringNames(8))
	reduced := NewRing(ringNames(7)) // drops w7
	moved := 0
	for b := 0; b < 2000; b++ {
		key := BlockKey("ds", b)
		was := full.Names()[full.Owner(key)]
		now := reduced.Names()[reduced.Owner(key)]
		if was != "w7" && was != now {
			t.Fatalf("block %d moved %q -> %q though %q survived", b, was, now, was)
		}
		if was == "w7" {
			moved++
		}
	}
	if moved == 0 {
		t.Error("w7 owned nothing out of 2000 blocks")
	}
}

// TestRingSuccessorsDistinct: the successor walk yields distinct shards,
// owner first, and never more than exist.
func TestRingSuccessorsDistinct(t *testing.T) {
	r := NewRing(ringNames(5))
	for b := 0; b < 200; b++ {
		key := BlockKey("ds", b)
		succ := r.Successors(key, 3)
		if len(succ) != 3 {
			t.Fatalf("block %d: %d successors, want 3", b, len(succ))
		}
		if succ[0] != r.Owner(key) {
			t.Fatalf("block %d: first successor %d != owner %d", b, succ[0], r.Owner(key))
		}
		seen := map[int]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("block %d: duplicate successor %d", b, s)
			}
			seen[s] = true
		}
	}
	if got := r.Successors(BlockKey("ds", 0), 99); len(got) != 5 {
		t.Errorf("asking for 99 of 5 shards returned %d", len(got))
	}
}

// TestBlockKeyAppendStable: a block's key depends on (dataset, index)
// only, so appending generations (more blocks) never re-keys old ones,
// and distinct datasets spread differently.
func TestBlockKeyAppendStable(t *testing.T) {
	if BlockKey("a", 7) != BlockKey("a", 7) {
		t.Fatal("BlockKey not deterministic")
	}
	if BlockKey("a", 7) == BlockKey("b", 7) {
		t.Error("datasets a and b share a block key")
	}
	if BlockKey("a", 7) == BlockKey("a", 8) {
		t.Error("blocks 7 and 8 share a key")
	}
}
