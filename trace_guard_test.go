package repro

import (
	"os"
	"testing"

	"repro/internal/experiments"
)

// TestTraceOverheadGuard is the CI guard on request tracing's cost: it
// runs the "obs" experiment (exact draw untraced vs recorder-only vs a
// traced Recorder logging every span occurrence, best-of-N, identical-
// sample check) and fails when the traced run costs more than the budget
// over the disabled run, or when any configuration diverges from the
// reference sample. The interactive budget is 2% (BENCH_trace.json
// records the measured numbers); the guard allows 15% to absorb shared-
// CI timer noise while still catching a per-point trace write or a
// lock on the draw hot path, which cost far more. Gated behind
// TRACE_GUARD=1 because timing assertions are meaningless under -race
// or heavy parallel test load; verify.sh sets it.
func TestTraceOverheadGuard(t *testing.T) {
	if os.Getenv("TRACE_GUARD") == "" {
		t.Skip("set TRACE_GUARD=1 to run the timing guard (verify.sh does)")
	}
	tb, err := experiments.Run("obs", experiments.Config{Seed: 1, Quick: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var disabled, traced int64
	for _, b := range tb.Benchmarks {
		switch b.Name {
		case "DrawExact_obs_disabled":
			disabled = b.NsPerOp
		case "DrawExact_obs_traced":
			traced = b.NsPerOp
		}
	}
	if disabled == 0 || traced == 0 {
		t.Fatalf("missing benchmark entries in %+v", tb.Benchmarks)
	}
	for _, row := range tb.Rows {
		if got := row[len(row)-1]; got != "ref" && got != "yes" {
			t.Fatalf("tracing perturbed the sample: row %v", row)
		}
	}
	const budget = 1.15
	if ratio := float64(traced) / float64(disabled); ratio > budget {
		t.Fatalf("traced draw costs %.3fx the untraced draw (budget %.2fx); disabled=%dns traced=%dns",
			ratio, budget, disabled, traced)
	}
}
