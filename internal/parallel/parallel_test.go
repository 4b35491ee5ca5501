package parallel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDegree(t *testing.T) {
	if got := Degree(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Degree(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Degree(-3); got != 1 {
		t.Errorf("Degree(-3) = %d, want 1", got)
	}
	if got := Degree(7); got != 7 {
		t.Errorf("Degree(7) = %d, want 7", got)
	}
}

func TestBlockArithmetic(t *testing.T) {
	cases := []struct {
		n, bs, blocks int
	}{
		{0, 10, 0},
		{1, 10, 1},
		{10, 10, 1},
		{11, 10, 2},
		{100, 10, 10},
		{5, 0, 1}, // default block size
	}
	for _, c := range cases {
		if got := NumBlocks(c.n, c.bs); got != c.blocks {
			t.Errorf("NumBlocks(%d, %d) = %d, want %d", c.n, c.bs, got, c.blocks)
		}
	}
	// Block ranges must tile [0, n) exactly.
	n, bs := 1037, 64
	covered := 0
	for b := 0; b < NumBlocks(n, bs); b++ {
		start, end := BlockRange(b, n, bs)
		if start != covered {
			t.Fatalf("block %d starts at %d, want %d", b, start, covered)
		}
		if end <= start || end > n {
			t.Fatalf("block %d has range [%d, %d)", b, start, end)
		}
		covered = end
	}
	if covered != n {
		t.Fatalf("blocks cover %d of %d items", covered, n)
	}
}

func TestDoVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		const n = 1000
		var hits [n]atomic.Int32
		err := DoObs(n, workers, nil, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestDoSerialOrder(t *testing.T) {
	var order []int
	err := DoObs(10, 1, nil, func(i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial DoObs out of order: %v", order)
		}
	}
}

func TestDoError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		err := DoObs(1000, workers, nil, func(i int) error {
			calls.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		// The error must stop scheduling well before all indices run.
		if n := calls.Load(); workers > 1 && n == 1000 {
			t.Errorf("workers=%d: error did not stop scheduling (%d calls)", workers, n)
		}
	}
}

func TestBlocksTiling(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 10_000
		var covered [n]atomic.Int32
		err := BlocksCtxObs(nil, n, 128, workers, nil, func(b, start, end int) error {
			for i := start; i < end; i++ {
				covered[i].Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range covered {
			if covered[i].Load() != 1 {
				t.Fatalf("workers=%d: item %d covered %d times", workers, i, covered[i].Load())
			}
		}
	}
}
