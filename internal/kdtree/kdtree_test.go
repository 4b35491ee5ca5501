package kdtree

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/stats"
)

func randomPoints(n, d int, seed uint64) []geom.Point {
	rng := stats.NewRNG(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// brute-force helpers used as oracles
func bruteNearest(pts []geom.Point, q geom.Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, p := range pts {
		if d := geom.Distance(q, p); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func bruteWithin(pts []geom.Point, q geom.Point, r float64) []int {
	var out []int
	for i, p := range pts {
		if geom.Distance(q, p) <= r {
			out = append(out, i)
		}
	}
	return out
}

func TestBuildPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(nil)
}

func TestNearestMatchesBrute(t *testing.T) {
	pts := randomPoints(500, 3, 1)
	tr := Build(pts)
	rng := stats.NewRNG(2)
	for trial := 0; trial < 200; trial++ {
		q := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		gi, gd := tr.Nearest(q)
		_, wd := bruteNearest(pts, q)
		if math.Abs(gd-wd) > 1e-12 {
			t.Fatalf("trial %d: dist %v, brute %v (idx %d)", trial, gd, wd, gi)
		}
	}
}

func TestNearestExactHit(t *testing.T) {
	pts := randomPoints(100, 2, 3)
	tr := Build(pts)
	for i, p := range pts {
		gi, gd := tr.Nearest(p)
		if gd != 0 {
			t.Fatalf("point %d: self distance %v", i, gd)
		}
		if !pts[gi].Equal(p) {
			t.Fatalf("point %d: wrong hit", i)
		}
	}
}

func TestKNNMatchesBrute(t *testing.T) {
	pts := randomPoints(300, 2, 5)
	tr := Build(pts)
	rng := stats.NewRNG(6)
	for trial := 0; trial < 100; trial++ {
		q := geom.Point{rng.Float64(), rng.Float64()}
		k := 1 + rng.Intn(20)
		got := tr.KNN(q, k)
		if len(got) != k {
			t.Fatalf("KNN returned %d, want %d", len(got), k)
		}
		// distances must be sorted ascending
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatal("KNN distances not sorted")
			}
		}
		// compare against brute-force k-th distance
		all := make([]float64, len(pts))
		for i, p := range pts {
			all[i] = geom.Distance(q, p)
		}
		sort.Float64s(all)
		if math.Abs(got[k-1].Dist-all[k-1]) > 1e-12 {
			t.Fatalf("k-th distance %v, brute %v", got[k-1].Dist, all[k-1])
		}
	}
}

func TestKNNMoreThanTree(t *testing.T) {
	pts := randomPoints(5, 2, 7)
	tr := Build(pts)
	got := tr.KNN(geom.Point{0.5, 0.5}, 10)
	if len(got) != 5 {
		t.Errorf("KNN = %d results, want all 5", len(got))
	}
	if tr.KNN(geom.Point{0, 0}, 0) != nil {
		t.Error("KNN(k=0) should be nil")
	}
}

func TestWithinMatchesBrute(t *testing.T) {
	pts := randomPoints(400, 3, 8)
	tr := Build(pts)
	rng := stats.NewRNG(9)
	for trial := 0; trial < 100; trial++ {
		q := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		r := rng.Float64() * 0.5
		got := tr.Within(q, r)
		want := bruteWithin(pts, q, r)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("Within: %d vs brute %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Within sets differ")
			}
		}
	}
}

func TestWithinAppendMatchesBrute(t *testing.T) {
	pts := randomPoints(400, 3, 8)
	tr := Build(pts)
	rng := stats.NewRNG(9)
	var buf, stack []int32
	for trial := 0; trial < 100; trial++ {
		q := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		r := rng.Float64() * 0.5
		var st Stats
		buf, stack = tr.WithinAppend(q, r, buf[:0], stack, &st)
		want := bruteWithin(pts, q, r)
		got := make([]int, len(buf))
		for i, v := range buf {
			got[i] = int(v)
		}
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("WithinAppend: %d vs brute %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("WithinAppend sets differ")
			}
		}
	}
}

func TestCountWithin(t *testing.T) {
	pts := randomPoints(400, 2, 10)
	tr := Build(pts)
	rng := stats.NewRNG(11)
	for trial := 0; trial < 100; trial++ {
		q := geom.Point{rng.Float64(), rng.Float64()}
		r := rng.Float64() * 0.3
		got := tr.CountWithin(q, r, 0)
		want := len(bruteWithin(pts, q, r))
		if got != want {
			t.Fatalf("CountWithin = %d, brute %d", got, want)
		}
	}
}

func TestCountWithinLimit(t *testing.T) {
	// 100 identical points: any positive radius finds them all, but with
	// limit=5 the count must stop at 6.
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{0.5, 0.5}
	}
	tr := Build(pts)
	if got := tr.CountWithin(geom.Point{0.5, 0.5}, 0.1, 5); got != 6 {
		t.Errorf("limited count = %d, want 6", got)
	}
}

func TestDuplicatePoints(t *testing.T) {
	// Tree must handle many duplicates (zero-spread leaves).
	pts := make([]geom.Point, 0, 60)
	for i := 0; i < 50; i++ {
		pts = append(pts, geom.Point{1, 1})
	}
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Point{float64(i), 2})
	}
	tr := Build(pts)
	if got := tr.CountWithin(geom.Point{1, 1}, 0.5, 0); got != 50 {
		t.Errorf("duplicates counted %d, want 50", got)
	}
	_, d := tr.Nearest(geom.Point{1, 1.4})
	if math.Abs(d-0.4) > 1e-12 {
		t.Errorf("nearest dist %v", d)
	}
}

func TestTreeAccessors(t *testing.T) {
	pts := randomPoints(50, 4, 12)
	tr := Build(pts)
	if tr.Len() != 50 || tr.Dims() != 4 {
		t.Errorf("Len/Dims = %d/%d", tr.Len(), tr.Dims())
	}
	if !tr.Point(7).Equal(pts[7]) {
		t.Error("Point accessor broken")
	}
}

func TestHighDimensional(t *testing.T) {
	pts := randomPoints(200, 10, 13)
	tr := Build(pts)
	q := pts[42]
	gi, gd := tr.Nearest(q)
	if gd != 0 || !pts[gi].Equal(q) {
		t.Error("10-d nearest self query failed")
	}
}

// Property: for random point sets and queries, tree NN distance equals
// brute-force NN distance.
func TestPropNearestIsExact(t *testing.T) {
	rng := stats.NewRNG(14)
	f := func(seed uint16, qx, qy float64) bool {
		n := 20 + int(seed%200)
		pts := randomPoints(n, 2, uint64(seed)+100)
		tr := Build(pts)
		q := geom.Point{math.Mod(math.Abs(qx), 2), math.Mod(math.Abs(qy), 2)}
		if math.IsNaN(q[0]) || math.IsNaN(q[1]) {
			return true
		}
		_, gd := tr.Nearest(q)
		_, wd := bruteNearest(pts, q)
		return math.Abs(gd-wd) <= 1e-12
	}
	cfg := &quick.Config{MaxCount: 50, Rand: nil}
	_ = rng
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// boxOracle classifies every node against the query box [qlo, qhi] by
// brute force. A child's bounding box lies inside its parent's, so a box
// traversal reaches exactly the nodes whose own box meets the query box:
// it reports those leaves (L of them), expands those internal nodes (E),
// and visits the root plus both children of each expanded node.
func boxOracle(t *Tree, qlo, qhi []float64) (leaves map[[2]int32]bool, expanded int) {
	leaves = map[[2]int32]bool{}
	for ni, n := range t.nodes {
		meets := true
		for j := 0; j < t.dims; j++ {
			if t.lo[ni*t.dims+j] > qhi[j] || t.hi[ni*t.dims+j] < qlo[j] {
				meets = false
			}
		}
		switch {
		case !meets:
		case n.split < 0:
			leaves[[2]int32{n.start, n.end}] = true
		default:
			expanded++
		}
	}
	return leaves, expanded
}

// TestBoxTraversalStats checks BoxLeaves (the d=4 specialization and the
// generic loop) and AppendBoxLeaves against the brute-force oracle: the
// reported leaves are exactly the leaves whose box meets the query box,
// every point inside the query box lies in a reported leaf, and the
// counters obey Visited = 1 + 2E and Pruned = Visited - L - E.
func TestBoxTraversalStats(t *testing.T) {
	for _, d := range []int{4, 3} {
		pts := randomPoints(1500, d, uint64(20+d))
		tr := Build(pts)
		rng := stats.NewRNG(uint64(30 + d))
		var leaves, stack []int32
		for trial := 0; trial < 100; trial++ {
			q, radii := make(geom.Point, d), make([]float64, d)
			qlo, qhi := make([]float64, d), make([]float64, d)
			for j := range q {
				q[j] = rng.Float64()
				radii[j] = 0.3 * rng.Float64()
				qlo[j], qhi[j] = q[j]-radii[j], q[j]+radii[j]
			}
			want, expanded := boxOracle(tr, qlo, qhi)
			for _, box := range []bool{true, false} {
				var st Stats
				if box {
					leaves, stack = tr.BoxLeaves(qlo, qhi, leaves[:0], stack, &st)
				} else {
					leaves, stack = tr.AppendBoxLeaves(q, radii, leaves[:0], stack, &st)
				}
				if len(leaves) != 2*len(want) {
					t.Fatalf("d=%d box=%v: %d leaves, oracle %d", d, box, len(leaves)/2, len(want))
				}
				inLeaf := map[int32]bool{}
				for l := 0; l < len(leaves); l += 2 {
					if !want[[2]int32{leaves[l], leaves[l+1]}] {
						t.Fatalf("d=%d box=%v: leaf %v not in oracle", d, box, leaves[l:l+2])
					}
					for _, i := range tr.Indices(leaves[l], leaves[l+1]) {
						inLeaf[i] = true
					}
				}
				for i, p := range pts {
					inside := true
					for j := range p {
						if p[j] < qlo[j] || p[j] > qhi[j] {
							inside = false
						}
					}
					if inside && !inLeaf[int32(i)] {
						t.Fatalf("d=%d box=%v: point %d inside the box but in no reported leaf", d, box, i)
					}
				}
				if st.Visited != 1+2*int64(expanded) || st.Pruned != st.Visited-int64(len(want)+expanded) {
					t.Fatalf("d=%d box=%v: visited %d pruned %d, want %d and %d", d, box,
						st.Visited, st.Pruned, 1+2*expanded, 1+expanded-len(want))
				}
			}
		}
	}
}

// TestWithinAppendCounts checks WithinAppend's counters against a recursive
// walk applying the same split-plane rule: every internal node pushes its
// near child and, unless the far side is pruned, its far child, so
// Visited = 1 + 2I - Pruned for the I internal nodes reached, and the
// leaves reached account for the rest of Visited.
func TestWithinAppendCounts(t *testing.T) {
	pts := randomPoints(1500, 3, 40)
	tr := Build(pts)
	rng := stats.NewRNG(41)
	var buf, stack []int32
	for trial := 0; trial < 100; trial++ {
		q := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		r := 0.3 * rng.Float64()
		var st Stats
		buf, stack = tr.WithinAppend(q, r, buf[:0], stack, &st)
		if len(buf) != len(bruteWithin(pts, q, r)) {
			t.Fatalf("WithinAppend: %d points, brute %d", len(buf), len(bruteWithin(pts, q, r)))
		}
		var internal, leafs, pruned int64
		var walk func(ni int32)
		walk = func(ni int32) {
			n := &tr.nodes[ni]
			if n.split < 0 {
				leafs++
				return
			}
			internal++
			diff := q[n.split] - n.splitVal
			near, far := n.left, n.right
			if diff > 0 {
				near, far = n.right, n.left
			}
			walk(near)
			if diff*diff <= r*r {
				walk(far)
			} else {
				pruned++
			}
		}
		walk(0)
		if st.Pruned != pruned || st.Visited != internal+leafs || st.Visited != 1+2*internal-st.Pruned {
			t.Fatalf("visited %d pruned %d; walk: internal %d leaves %d pruned %d", st.Visited, st.Pruned, internal, leafs, pruned)
		}
	}
}
