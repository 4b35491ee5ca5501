package dtree

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
)

// axisData: label 1 iff x > 0.5 — separable by a single split.
func axisData(n int, rng *stats.RNG) []Example {
	ex := make([]Example, n)
	for i := range ex {
		p := geom.Point{rng.Float64(), rng.Float64()}
		lb := 0
		if p[0] > 0.5 {
			lb = 1
		}
		ex[i] = Example{P: p, Label: lb, W: 1}
	}
	return ex
}

// xorData: label = XOR of quadrants — needs depth ≥ 2.
func xorData(n int, rng *stats.RNG) []Example {
	ex := make([]Example, n)
	for i := range ex {
		p := geom.Point{rng.Float64(), rng.Float64()}
		lb := 0
		if (p[0] > 0.5) != (p[1] > 0.5) {
			lb = 1
		}
		ex[i] = Example{P: p, Label: lb, W: 1}
	}
	return ex
}

// shape returns the height of the subtree under n and its node count.
func shape(n *node) (depth, nodes int) {
	if n.isLeaf() {
		return 0, 1
	}
	ld, ln := shape(n.left)
	rd, rn := shape(n.right)
	return 1 + max(ld, rd), 1 + ln + rn
}

func split(ex []Example) ([]geom.Point, []int) {
	pts := make([]geom.Point, len(ex))
	labels := make([]int, len(ex))
	for i, e := range ex {
		pts[i] = e.P
		labels[i] = e.Label
	}
	return pts, labels
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("empty training set accepted")
	}
	bad := []Example{{P: geom.Point{1}, Label: 0, W: -1}}
	if _, err := Train(bad); err == nil {
		t.Error("negative weight accepted")
	}
	ragged := []Example{{P: geom.Point{1}, W: 1}, {P: geom.Point{1, 2}, W: 1}}
	if _, err := Train(ragged); err == nil {
		t.Error("ragged dims accepted")
	}
	zero := []Example{{P: geom.Point{1}, W: 0}}
	if _, err := Train(zero); err == nil {
		t.Error("zero total weight accepted")
	}
}

func TestAxisAlignedSeparable(t *testing.T) {
	rng := stats.NewRNG(1)
	train := axisData(2000, rng)
	tree, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	testPts, testLabels := split(axisData(1000, rng))
	if acc := tree.Accuracy(testPts, testLabels); acc < 0.99 {
		t.Errorf("separable accuracy = %v", acc)
	}
	if depth, _ := shape(tree.root); depth > 3 {
		t.Errorf("depth = %d for a single-split problem", depth)
	}
}

func TestXORNeedsDepth(t *testing.T) {
	rng := stats.NewRNG(2)
	train := xorData(4000, rng)
	tree, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	testPts, testLabels := split(xorData(1000, rng))
	if acc := tree.Accuracy(testPts, testLabels); acc < 0.95 {
		t.Errorf("xor accuracy = %v", acc)
	}
}

func TestPureNodeStopsEarly(t *testing.T) {
	ex := []Example{
		{P: geom.Point{0.1, 0.1}, Label: 3, W: 1},
		{P: geom.Point{0.9, 0.9}, Label: 3, W: 1},
	}
	tree, err := Train(ex)
	if err != nil {
		t.Fatal(err)
	}
	if _, nodes := shape(tree.root); nodes != 1 {
		t.Errorf("pure data grew %d nodes", nodes)
	}
	if got := tree.Predict(geom.Point{0.5, 0.5}); got != 3 {
		t.Errorf("predict = %d", got)
	}
}

func TestWeightsShiftDecision(t *testing.T) {
	// Two coincident groups with conflicting labels: the heavier label
	// must win.
	var ex []Example
	for i := 0; i < 10; i++ {
		ex = append(ex, Example{P: geom.Point{0.5, 0.5}, Label: 0, W: 1})
	}
	for i := 0; i < 5; i++ {
		ex = append(ex, Example{P: geom.Point{0.5, 0.5}, Label: 1, W: 10})
	}
	tree, err := Train(ex)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict(geom.Point{0.5, 0.5}); got != 1 {
		t.Errorf("weighted majority = %d, want 1", got)
	}
}

func TestDuplicateFeatureValues(t *testing.T) {
	// All x equal: no valid split on dim 0; dim 1 separates.
	var ex []Example
	for i := 0; i < 50; i++ {
		lb := 0
		y := float64(i) / 50
		if y > 0.5 {
			lb = 1
		}
		ex = append(ex, Example{P: geom.Point{0.5, y}, Label: lb, W: 1})
	}
	tree, err := Train(ex)
	if err != nil {
		t.Fatal(err)
	}
	pts, labels := split(ex)
	if acc := tree.Accuracy(pts, labels); acc < 1 {
		t.Errorf("training accuracy = %v", acc)
	}
}

func TestRecall(t *testing.T) {
	rng := stats.NewRNG(3)
	train := axisData(2000, rng)
	tree, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	pts, labels := split(axisData(1000, rng))
	if r := tree.Recall(pts, labels, 1); r < 0.98 {
		t.Errorf("recall = %v", r)
	}
	// Recall of a label absent from the test set is trivially 1.
	if r := tree.Recall(pts, labels, 99); r != 1 {
		t.Errorf("absent-label recall = %v", r)
	}
}

// Random labels keep every node impure, so only the depth cap stops the
// tree from growing further.
func TestMaxDepthRespected(t *testing.T) {
	rng := stats.NewRNG(4)
	ex := make([]Example, 20000)
	for i := range ex {
		ex[i] = Example{P: geom.Point{rng.Float64(), rng.Float64()}, Label: rng.Intn(2), W: 1}
	}
	tree, err := Train(ex)
	if err != nil {
		t.Fatal(err)
	}
	if depth, _ := shape(tree.root); depth != maxDepth {
		t.Errorf("depth %d, want the cap %d", depth, maxDepth)
	}
}

func TestMulticlass(t *testing.T) {
	rng := stats.NewRNG(5)
	var ex []Example
	for i := 0; i < 3000; i++ {
		p := geom.Point{rng.Float64(), rng.Float64()}
		lb := 0
		switch {
		case p[0] < 0.33:
			lb = 0
		case p[0] < 0.66:
			lb = 1
		default:
			lb = 2
		}
		ex = append(ex, Example{P: p, Label: lb, W: 1})
	}
	tree, err := Train(ex)
	if err != nil {
		t.Fatal(err)
	}
	pts, labels := split(ex)
	if acc := tree.Accuracy(pts, labels); acc < 0.98 {
		t.Errorf("3-class accuracy = %v", acc)
	}
}

// describe serializes the subtree under n: each split's dimension and
// threshold bits, each leaf's label.
func describe(n *node) string {
	if n.isLeaf() {
		return fmt.Sprintf("leaf(%d)", n.label)
	}
	return fmt.Sprintf("split(%d,%x,%s,%s)", n.dim, math.Float64bits(n.threshold), describe(n.left), describe(n.right))
}

// TestTrainDeterministic: one set of weighted examples grows one tree, run
// after run. Two groups of coincident points hold labels of exactly equal
// total weight, 3 and 5 on the left and 2, 7 and 9 on the right, so
// neither group can split and each leaf breaks a weighted tie, which goes
// to the smallest label.
func TestTrainDeterministic(t *testing.T) {
	var ex []Example
	add := func(p geom.Point, label int, ws ...float64) {
		for _, w := range ws {
			ex = append(ex, Example{P: p, Label: label, W: w})
		}
	}
	left, right := geom.Point{0.2, 0.3}, geom.Point{0.8, 0.6}
	add(left, 5, 0.5, 0.5, 0.5, 0.5, 0.5)
	add(left, 3, 1.25, 1.25)
	add(right, 9, 0.25, 0.75, 0.5)
	add(right, 2, 1, 0.5)
	add(right, 7, 0.5, 0.5, 0.5)
	var want string
	for run := 0; run < 50; run++ {
		tree, err := Train(ex)
		if err != nil {
			t.Fatal(err)
		}
		got := describe(tree.root)
		if run == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d grew %s, run 0 grew %s", run, got, want)
		}
		if l, r := tree.Predict(left), tree.Predict(right); l != 3 || r != 2 {
			t.Fatalf("run %d: tied leaves labelled %d and %d, want the smallest labels 3 and 2", run, l, r)
		}
	}
}
