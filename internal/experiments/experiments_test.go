package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
)

func quickCfg() Config { return Config{Seed: 7, Quick: true} }

func TestUnknownID(t *testing.T) {
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestIDsRegistered(t *testing.T) {
	want := []string{
		"thm1", "fig2", "fig3", "fig4a", "fig4b", "fig4c",
		"fig5a", "fig5b", "fig5c", "fig6", "fig7",
		"scale", "outliers", "geo", "samplesize",
		"ablation-kernel", "ablation-onepass", "ablation-alpha", "ablation-weights", "ablation-estimator", "ablation-partitions", "ext-dtree",
		"stream",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
		if Title(id) == "" {
			t.Errorf("id %q has empty title", id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

// A draw that diverges from its experiment's reference must fail the run,
// not become a "NO" cell in a table that still exits 0.
func TestDrawParityFailsOnDivergence(t *testing.T) {
	ref := &core.Sample{Norm: 2, Points: []dataset.WeightedPoint{{P: geom.Point{0.5}, W: 4}}}
	if cell, err := drawParity("parallel", "workers=2", ref, ref); err != nil || cell != "yes" {
		t.Fatalf("identical draw: cell %q, err %v", cell, err)
	}
	moved := &core.Sample{Norm: 2, Points: []dataset.WeightedPoint{{P: geom.Point{0.6}, W: 4}}}
	if _, err := drawParity("parallel", "workers=2", ref, moved); err == nil || !strings.Contains(err.Error(), "workers=2") {
		t.Fatalf("divergent draw: err %v, want an error naming the configuration", err)
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"hello"},
	}
	s := tb.String()
	for _, want := range []string{"demo", "a", "bb", "hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

// cell parses a numeric table cell.
func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, tb.Rows[row][col])
	}
	return v
}

func TestExpThm1(t *testing.T) {
	tb, err := Run("thm1", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Worked example row: p_min ≈ 0.233, retention ≥ 0.9.
	p := cell(t, tb, 1, 3)
	if p < 0.22 || p > 0.26 {
		t.Errorf("worked-example p_min = %v", p)
	}
	ret := cell(t, tb, 1, 7)
	if ret < 0.9 {
		t.Errorf("MC retention %v below guarantee", ret)
	}
}

func TestExpFig3Shape(t *testing.T) {
	tb, err := Run("fig3", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: biased 1000; row 1: uniform 1000; row 3: uniform 4000.
	biased := cell(t, tb, 0, 2)
	uni1k := cell(t, tb, 1, 2)
	uni4k := cell(t, tb, 3, 2)
	if biased < 4 {
		t.Errorf("biased 1000-sample found %v of 5", biased)
	}
	if uni1k >= biased {
		t.Errorf("uniform 1000 (%v) should trail biased (%v)", uni1k, biased)
	}
	if uni4k < uni1k {
		t.Errorf("uniform should improve with sample size: %v -> %v", uni1k, uni4k)
	}
}

func TestExpFig4aShape(t *testing.T) {
	tb, err := Run("fig4a", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	last := len(tb.Rows) - 1
	bsHigh := cell(t, tb, last, 1)
	rsHigh := cell(t, tb, last, 2)
	if bsHigh < 7 {
		t.Errorf("biased found %v at max noise, want ≥7", bsHigh)
	}
	if rsHigh >= bsHigh {
		t.Errorf("uniform (%v) should trail biased (%v) at max noise", rsHigh, bsHigh)
	}
}

func TestExpFig5aShape(t *testing.T) {
	tb, err := Run("fig5a", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	last := len(tb.Rows) - 1
	bs := cell(t, tb, last, 1)
	rs := cell(t, tb, last, 3)
	if bs < rs {
		t.Errorf("a=-0.5 (%v) should not trail uniform (%v) at the largest sample", bs, rs)
	}
	if bs < 7 {
		t.Errorf("a=-0.5 found %v, want ≥7 at largest sample", bs)
	}
}

func TestExpFig2Monotone(t *testing.T) {
	tb, err := Run("fig2", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Clustering time must grow with the sample size.
	c0 := cell(t, tb, 0, 4)
	c1 := cell(t, tb, len(tb.Rows)-1, 4)
	if c1 < c0 {
		t.Errorf("CURE time not increasing: %v -> %v", c0, c1)
	}
}

func TestExpOutliers(t *testing.T) {
	tb, err := Run("outliers", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		rec, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if rec < 1 {
			t.Errorf("%s: recall %v < 1", row[0], rec)
		}
		passes, _ := strconv.Atoi(row[6])
		if passes > 2 {
			t.Errorf("%s: %d detection passes, want ≤2", row[0], passes)
		}
	}
}

func TestExpGeo(t *testing.T) {
	tb, err := Run("geo", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 biased, row 1 uniform on NorthEast.
	bs := cell(t, tb, 0, 2)
	rs := cell(t, tb, 1, 2)
	if bs < 3 {
		t.Errorf("biased found %v of 3 metros", bs)
	}
	if rs >= bs {
		t.Errorf("uniform (%v) should trail biased (%v) on the metro task", rs, bs)
	}
}

func TestExpAblationWeights(t *testing.T) {
	tb, err := Run("ablation-weights", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	weighted := cell(t, tb, 0, 1)
	if weighted > 0.05 {
		t.Errorf("weighted k-means center error %v, want <0.05", weighted)
	}
}

func TestExpScaleRuns(t *testing.T) {
	tb, err := Run("scale", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestExpStreamShape(t *testing.T) {
	tb, err := Run("stream", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (one per method at the quick budget)", len(tb.Rows))
	}
	// The streaming estimators must stay competitive: every method finds
	// most of the 10 planted clusters at a 64 KiB density budget.
	for i := range tb.Rows {
		if found := cell(t, tb, i, 3); found < 6 {
			t.Errorf("%s found %v clusters, want ≥6", tb.Rows[i][0], found)
		}
	}
}

// TestExpChaosReproducible: the chaos table is a function of the seed
// alone. Its servers scan serially, so a run at -p 1 and one at -p 2
// print the same rows; with parallel block scans the seeded fault
// schedule was taken in goroutine order and the heavy row moved.
func TestExpChaosReproducible(t *testing.T) {
	var rows [2][][]string
	for i, p := range []int{1, 2} {
		tb, err := Run("chaos", Config{Seed: 1, Quick: true, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = tb.Rows
	}
	if !reflect.DeepEqual(rows[0], rows[1]) {
		t.Errorf("chaos -seed 1 rows differ:\n-p 1: %v\n-p 2: %v", rows[0], rows[1])
	}
}

func TestExpRemainingQuickProfiles(t *testing.T) {
	// Smoke-run every other experiment in quick mode: they must complete
	// and produce non-empty tables.
	for _, id := range []string{"fig4b", "fig4c", "fig5b", "fig5c", "fig6", "fig7", "samplesize", "ablation-kernel", "ablation-onepass", "ablation-alpha", "ablation-estimator", "ablation-partitions", "ext-dtree", "parallel", "chaos"} {
		id := id
		t.Run(id, func(t *testing.T) {
			tb, err := Run(id, quickCfg())
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Error("empty table")
			}
		})
	}
}
