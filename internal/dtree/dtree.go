// Package dtree implements a CART-style binary decision-tree classifier
// over numeric attributes with per-example weights.
//
// It exists for the paper's future-work direction (§5): "several other
// important tasks, like classification, construction of decision trees …
// can potentially benefit … by the application of similar biased sampling
// techniques". A density-biased sample of a labelled dataset concentrates
// on the dense, small regions where minority classes hide; training on the
// sample with inverse-inclusion-probability weights keeps the learned tree
// an unbiased stand-in for one trained on all the data. The ext-dtree
// experiment quantifies this against uniform sampling.
package dtree

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Example is one weighted training instance.
type Example struct {
	P     geom.Point
	Label int
	// W is the example weight (1 for plain training, the inverse
	// inclusion probability for biased samples).
	W float64
}

// Stopping rules of tree induction.
const (
	// maxDepth bounds the tree height.
	maxDepth = 12
	// minLeafFrac stops splitting nodes whose total weight is at most this
	// fraction of the root weight.
	minLeafFrac = 1e-3
	// minGain stops splitting when the best split improves weighted Gini
	// impurity by less than this.
	minGain = 1e-7
)

// Tree is a trained classifier.
type Tree struct {
	root *node
	dims int
}

type node struct {
	// leaf payload
	label int
	// split payload
	dim         int
	threshold   float64
	left, right *node
}

func (n *node) isLeaf() bool { return n.left == nil }

// Train grows a tree on the weighted examples.
func Train(examples []Example) (*Tree, error) {
	if len(examples) == 0 {
		return nil, errors.New("dtree: no examples")
	}
	d := examples[0].P.Dims()
	var totW float64
	for i, e := range examples {
		if e.P.Dims() != d {
			return nil, fmt.Errorf("dtree: example %d has %d dims, want %d", i, e.P.Dims(), d)
		}
		if e.W < 0 || math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return nil, fmt.Errorf("dtree: example %d has invalid weight %v", i, e.W)
		}
		totW += e.W
	}
	if totW == 0 {
		return nil, errors.New("dtree: zero total weight")
	}
	t := &Tree{dims: d}
	work := append([]Example(nil), examples...)
	t.root = t.grow(work, 0, minLeafFrac*totW)
	return t, nil
}

// grow recursively builds the subtree for the given examples; nodes of
// weight at most minLeaf become leaves.
func (t *Tree) grow(ex []Example, depth int, minLeaf float64) *node {
	label, pure, weight := majority(ex)
	if pure || depth >= maxDepth || weight <= minLeaf {
		return &node{label: label}
	}
	dim, threshold, gain := bestSplit(ex, t.dims)
	if dim < 0 || gain < minGain {
		return &node{label: label}
	}
	// Partition in place around the threshold.
	lo, hi := 0, len(ex)
	for lo < hi {
		if ex[lo].P[dim] <= threshold {
			lo++
		} else {
			hi--
			ex[lo], ex[hi] = ex[hi], ex[lo]
		}
	}
	if lo == 0 || lo == len(ex) {
		return &node{label: label}
	}
	return &node{
		dim:       dim,
		threshold: threshold,
		left:      t.grow(ex[:lo], depth+1, minLeaf),
		right:     t.grow(ex[lo:], depth+1, minLeaf),
	}
}

// majority returns the weighted majority label, whether the node is pure,
// and the total weight.
func majority(ex []Example) (label int, pure bool, weight float64) {
	counts := map[int]float64{}
	for _, e := range ex {
		counts[e.Label] += e.W
		weight += e.W
	}
	best := math.Inf(-1)
	for lb, w := range counts {
		if w > best {
			best, label = w, lb
		}
	}
	return label, len(counts) == 1, weight
}

// bestSplit scans every dimension for the weighted-Gini-optimal binary
// split, returning (-1, 0, 0) when nothing separates the examples.
func bestSplit(ex []Example, dims int) (int, float64, float64) {
	parent := gini(ex)
	var totW float64
	for _, e := range ex {
		totW += e.W
	}
	bestDim, bestThr, bestGain := -1, 0.0, 0.0

	type lw struct {
		v  float64
		lb int
		w  float64
	}
	vals := make([]lw, len(ex))
	for dim := 0; dim < dims; dim++ {
		for i, e := range ex {
			vals[i] = lw{v: e.P[dim], lb: e.Label, w: e.W}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })

		leftCounts := map[int]float64{}
		rightCounts := map[int]float64{}
		var leftW float64
		for _, x := range vals {
			rightCounts[x.lb] += x.w
		}
		for i := 0; i < len(vals)-1; i++ {
			leftCounts[vals[i].lb] += vals[i].w
			rightCounts[vals[i].lb] -= vals[i].w
			leftW += vals[i].w
			if vals[i].v == vals[i+1].v {
				continue // no valid threshold between equal values
			}
			rightW := totW - leftW
			if leftW == 0 || rightW == 0 {
				continue
			}
			g := (leftW*giniCounts(leftCounts, leftW) + rightW*giniCounts(rightCounts, rightW)) / totW
			if gain := parent - g; gain > bestGain {
				bestGain = gain
				bestDim = dim
				bestThr = (vals[i].v + vals[i+1].v) / 2
			}
		}
	}
	return bestDim, bestThr, bestGain
}

func gini(ex []Example) float64 {
	counts := map[int]float64{}
	var tot float64
	for _, e := range ex {
		counts[e.Label] += e.W
		tot += e.W
	}
	return giniCounts(counts, tot)
}

func giniCounts(counts map[int]float64, tot float64) float64 {
	if tot == 0 {
		return 0
	}
	g := 1.0
	for _, w := range counts {
		p := w / tot
		g -= p * p
	}
	return g
}

// Predict returns the label the tree assigns to p.
func (t *Tree) Predict(p geom.Point) int {
	if p.Dims() != t.dims {
		panic("dtree: query dimension mismatch")
	}
	n := t.root
	for !n.isLeaf() {
		if p[n.dim] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}

// Accuracy returns the fraction of examples the tree labels correctly
// (unweighted — evaluation weights every test point equally).
func (t *Tree) Accuracy(pts []geom.Point, labels []int) float64 {
	if len(pts) == 0 || len(pts) != len(labels) {
		panic("dtree: Accuracy needs equal, non-empty inputs")
	}
	correct := 0
	for i, p := range pts {
		if t.Predict(p) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pts))
}

// Recall returns the fraction of test points with the given label that the
// tree retrieves — the minority-class metric of the ext-dtree experiment.
func (t *Tree) Recall(pts []geom.Point, labels []int, label int) float64 {
	total, hit := 0, 0
	for i, p := range pts {
		if labels[i] != label {
			continue
		}
		total++
		if t.Predict(p) == label {
			hit++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}
