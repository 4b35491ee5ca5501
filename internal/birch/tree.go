package birch

import (
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// pageSize is the node size in bytes, the paper's setting. It determines
// the branching factor from the entry size.
const pageSize = 1024

// Options configure a BIRCH run.
type Options struct {
	// K is the number of clusters the global phase produces. Required.
	K int

	// MemoryBudget caps the CF-tree size in bytes. When tree growth
	// exceeds it, the tree is rebuilt with a larger threshold. §4.2 sets
	// this to the byte size of the competing sample. Default 256 KiB.
	MemoryBudget int

	// OutlierFraction enables BIRCH's leaf-outlier handling: leaf
	// entries holding fewer than OutlierFraction times the average
	// entry population are discarded before the global phase (they are
	// "far fewer points than average" — noise). 0 disables it.
	OutlierFraction float64
}

// Summary describes one output cluster: BIRCH reports centers and radii
// (§4.3: "BIRCH reports cluster centers and radiuses").
type Summary struct {
	N        int
	Centroid geom.Point
	Radius   float64
}

// Result is the output of a BIRCH run.
type Result struct {
	Clusters []Summary
	// Rebuilds counts threshold-raising tree rebuilds forced by the
	// memory budget.
	Rebuilds int
	// LeafEntries is the number of CF entries feeding the global phase.
	LeafEntries int
	// Threshold is the final absorption threshold.
	Threshold float64
}

type entry struct {
	cf    CF
	child *node // nil in leaves
}

type node struct {
	leaf    bool
	entries []entry
}

type tree struct {
	root      *node
	branch    int // max entries per node
	threshold float64
	nodes     int
	dims      int
}

func newTree(dims, branch int, threshold float64) *tree {
	return &tree{
		root:      &node{leaf: true},
		branch:    branch,
		threshold: threshold,
		nodes:     1,
		dims:      dims,
	}
}

// insert adds a CF (a point's feature or a rebuilt leaf entry) to the tree.
func (t *tree) insert(cf CF) {
	split := t.insertAt(t.root, cf)
	if split != nil {
		// Root split: grow a new root referencing both halves.
		old := t.root
		t.root = &node{
			leaf: false,
			entries: []entry{
				{cf: sumNode(old), child: old},
				{cf: sumNode(split), child: split},
			},
		}
		t.nodes++
	}
}

// insertAt descends into n; a non-nil return is the sibling produced by a
// split that the caller must attach.
func (t *tree) insertAt(n *node, cf CF) *node {
	if n.leaf {
		if len(n.entries) > 0 {
			best := t.closest(n, cf)
			if n.entries[best].cf.MergedRadius(cf) <= t.threshold {
				n.entries[best].cf.Merge(cf)
				return nil
			}
		}
		n.entries = append(n.entries, entry{cf: cf})
		if len(n.entries) > t.branch {
			return t.split(n)
		}
		return nil
	}

	best := t.closest(n, cf)
	child := n.entries[best].child
	sibling := t.insertAt(child, cf)
	n.entries[best].cf.Merge(cf)
	if sibling != nil {
		n.entries[best].cf = sumNode(child)
		n.entries = append(n.entries, entry{cf: sumNode(sibling), child: sibling})
		if len(n.entries) > t.branch {
			return t.split(n)
		}
	}
	return nil
}

// closest returns the index of the entry whose centroid is nearest cf's.
func (t *tree) closest(n *node, cf CF) int {
	best, bestD := 0, math.Inf(1)
	c := cf.Centroid()
	for i := range n.entries {
		if d := sqDistToCentroid(c, &n.entries[i].cf); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// sqDistToCentroid computes ||p - LS/N||² without materializing the
// centroid — insertion spends most of its time here.
func sqDistToCentroid(p geom.Point, cf *CF) float64 {
	inv := 1 / float64(cf.N)
	var s float64
	for i, v := range p {
		d := v - cf.LS[i]*inv
		s += d * d
	}
	return s
}

// split divides n's entries between n and a new sibling, seeding with the
// farthest entry pair (by centroid distance) and assigning the rest to the
// nearer seed.
func (t *tree) split(n *node) *node {
	entries := n.entries
	s1, s2 := farthestPair(entries)
	a := make([]entry, 0, len(entries)/2+1)
	b := make([]entry, 0, len(entries)/2+1)
	c1 := entries[s1].cf.Centroid()
	c2 := entries[s2].cf.Centroid()
	for i, e := range entries {
		switch {
		case i == s1:
			a = append(a, e)
		case i == s2:
			b = append(b, e)
		default:
			c := e.cf.Centroid()
			if geom.SquaredDistance(c, c1) <= geom.SquaredDistance(c, c2) {
				a = append(a, e)
			} else {
				b = append(b, e)
			}
		}
	}
	n.entries = a
	sib := &node{leaf: n.leaf, entries: b}
	t.nodes++
	return sib
}

func farthestPair(entries []entry) (int, int) {
	bi, bj, bd := 0, 1, -1.0
	for i := range entries {
		ci := entries[i].cf.Centroid()
		for j := i + 1; j < len(entries); j++ {
			if d := sqDistToCentroid(ci, &entries[j].cf); d > bd {
				bi, bj, bd = i, j, d
			}
		}
	}
	return bi, bj
}

// sumNode returns the CF covering all entries of n.
func sumNode(n *node) CF {
	var cf CF
	for i := range n.entries {
		cf.Merge(n.entries[i].cf)
	}
	return cf
}

// leafCFs collects every leaf entry in the tree.
func (t *tree) leafCFs() []CF {
	var out []CF
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			for i := range n.entries {
				out = append(out, n.entries[i].cf)
			}
			return
		}
		for i := range n.entries {
			walk(n.entries[i].child)
		}
	}
	walk(t.root)
	return out
}

// sizeBytes estimates the tree's memory footprint as nodes × pageSize.
func (t *tree) sizeBytes(pageSize int) int { return t.nodes * pageSize }

// entryBytes returns the byte size of one CF entry in d dimensions:
// 8 bytes per LS coordinate, 8 for SS, 8 for N, 8 for the child pointer.
func entryBytes(d int) int { return 8*d + 24 }

// Cluster runs BIRCH over ds: one dataset pass builds the CF-tree under
// the memory budget (raising the threshold and rebuilding as needed), then
// the global phase agglomerates the leaf entries into K weighted clusters.
func Cluster(ds dataset.Dataset, opts Options) (*Result, error) {
	if opts.K <= 0 {
		return nil, errors.New("birch: K must be positive")
	}
	if ds.Len() == 0 {
		return nil, errors.New("birch: empty dataset")
	}
	memory := opts.MemoryBudget
	if memory == 0 {
		memory = 256 << 10
	}
	if memory <= 0 {
		return nil, errors.New("birch: MemoryBudget must be positive")
	}
	d := ds.Dims()
	branch := pageSize / entryBytes(d)
	if branch < 4 {
		branch = 4
	}

	tr := newTree(d, branch, 0) // the paper starts from threshold T = 0
	rebuilds := 0
	err := ds.Scan(func(p geom.Point) error {
		tr.insert(NewCF(p))
		if tr.sizeBytes(pageSize) > memory {
			tr = rebuild(tr, d, branch)
			rebuilds++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	leaves := tr.leafCFs()
	if opts.OutlierFraction > 0 && len(leaves) > 0 {
		total := 0
		for _, cf := range leaves {
			total += cf.N
		}
		min := opts.OutlierFraction * float64(total) / float64(len(leaves))
		kept := leaves[:0]
		for _, cf := range leaves {
			if float64(cf.N) >= min {
				kept = append(kept, cf)
			}
		}
		if len(kept) >= opts.K {
			leaves = kept
		}
	}
	sums := globalCluster(leaves, opts.K)
	return &Result{
		Clusters:    sums,
		Rebuilds:    rebuilds,
		LeafEntries: len(leaves),
		Threshold:   tr.threshold,
	}, nil
}

// rebuild raises the threshold and reinserts all leaf entries into a fresh
// tree, shrinking it. The new threshold is the larger of 1.5× the old one
// and the smallest distance between two leaf-entry centroids (so at least
// one pair becomes mergeable), with a floor for the initial T=0 case.
func rebuild(t *tree, dims, branch int) *tree {
	leaves := t.leafCFs()
	// Estimate the smallest inter-entry distance from a bounded prefix of
	// entries: a full O(m²) pair scan per rebuild would dominate runtime.
	probe := leaves
	if len(probe) > 512 {
		probe = probe[:512]
	}
	minD := math.Inf(1)
	for i := range probe {
		ci := probe[i].Centroid()
		for j := i + 1; j < len(probe); j++ {
			if d := sqDistToCentroid(ci, &probe[j]); d > 0 && d < minD {
				minD = d
			}
		}
	}
	minD = math.Sqrt(minD)
	newT := 1.5 * t.threshold
	if math.IsInf(minD, 1) {
		minD = 0
	}
	if minD > newT {
		newT = minD
	}
	if newT == 0 {
		newT = 1e-6
	}
	nt := newTree(dims, branch, newT)
	for _, cf := range leaves {
		nt.insert(cf)
	}
	return nt
}
