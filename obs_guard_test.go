package repro

import (
	"os"
	"testing"

	"repro/internal/experiments"
)

// TestObsOverheadGuard is the CI guard on the observability layer's cost:
// it runs the "obs" experiment (exact draw with the Recorder disabled vs
// enabled vs traced, best-of-N, identical-sample check) and fails when the
// enabled run costs more than the budget over the disabled run, or when
// any run diverges from the reference sample. The interactive budget is 2%
// (BENCH_obs.json records the measured numbers); the guard allows 15% to
// absorb shared-CI timer noise while still catching a per-point atomic or
// an accidental always-on branch, which cost far more. Gated behind
// OBS_GUARD=1 because timing assertions are meaningless under -race or
// heavy parallel test load; verify.sh sets it.
func TestObsOverheadGuard(t *testing.T) {
	if os.Getenv("OBS_GUARD") == "" {
		t.Skip("set OBS_GUARD=1 to run the timing guard (verify.sh does)")
	}
	tb, err := experiments.Run("obs", experiments.Config{Seed: 1, Quick: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var disabled, enabled int64
	for _, b := range tb.Benchmarks {
		switch b.Name {
		case "DrawExact_obs_disabled":
			disabled = b.NsPerOp
		case "DrawExact_obs_enabled":
			enabled = b.NsPerOp
		}
	}
	if disabled == 0 || enabled == 0 {
		t.Fatalf("missing benchmark entries in %+v", tb.Benchmarks)
	}
	for _, row := range tb.Rows {
		if got := row[len(row)-1]; got != "ref" && got != "yes" {
			t.Fatalf("recorder perturbed the sample: row %v", row)
		}
	}
	const budget = 1.15
	if ratio := float64(enabled) / float64(disabled); ratio > budget {
		t.Fatalf("enabled Recorder costs %.3fx the disabled draw (budget %.2fx); disabled=%dns enabled=%dns",
			ratio, budget, disabled, enabled)
	}
}
