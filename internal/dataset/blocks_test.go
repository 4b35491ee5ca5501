package dataset

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
)

func testPoints(n, dims int) []geom.Point {
	rng := stats.NewRNG(42)
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dims)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// collectBlocks runs ScanBlocks and reassembles the points in block order.
func collectBlocks(t *testing.T, ds Dataset, blockSize, parallelism int) []geom.Point {
	t.Helper()
	nb := (ds.Len() + blockSize - 1) / blockSize
	got := make([][]geom.Point, nb)
	var mu sync.Mutex
	err := ScanBlocks(ds, ScanConfig{BlockSize: blockSize, Parallelism: parallelism}, func(block, start int, pts []geom.Point) error {
		cloned := make([]geom.Point, len(pts))
		for i, p := range pts {
			cloned[i] = p.Clone()
		}
		mu.Lock()
		got[block] = cloned
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []geom.Point
	for _, blk := range got {
		out = append(out, blk...)
	}
	return out
}

func TestScanBlocksInMemory(t *testing.T) {
	pts := testPoints(1000, 3)
	ds := MustInMemory(pts)
	for _, workers := range []int{1, 2, 8} {
		got := collectBlocks(t, ds, 64, workers)
		if len(got) != len(pts) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(pts))
		}
		for i := range got {
			if !got[i].Equal(pts[i]) {
				t.Fatalf("workers=%d: point %d = %v, want %v", workers, i, got[i], pts[i])
			}
		}
	}
}

func TestScanBlocksFileBacked(t *testing.T) {
	pts := testPoints(777, 4)
	mem := MustInMemory(pts)
	path := filepath.Join(t.TempDir(), "pts.dbs")
	if err := SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	fb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got := collectBlocks(t, fb, 100, workers)
		if len(got) != len(pts) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(pts))
		}
		for i := range got {
			if !got[i].Equal(pts[i]) {
				t.Fatalf("workers=%d: point %d = %v, want %v", workers, i, got[i], pts[i])
			}
		}
	}
}

func TestScanRangeFileBacked(t *testing.T) {
	pts := testPoints(100, 2)
	mem := MustInMemory(pts)
	path := filepath.Join(t.TempDir(), "pts.dbs")
	if err := SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	fb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []geom.Point
	if err := fb.ScanRange(17, 53, func(p geom.Point) error {
		got = append(got, p.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 36 {
		t.Fatalf("ScanRange yielded %d points, want 36", len(got))
	}
	for i, p := range got {
		if !p.Equal(pts[17+i]) {
			t.Fatalf("point %d = %v, want %v", i, p, pts[17+i])
		}
	}
	if err := fb.ScanRange(50, 40, func(geom.Point) error { return nil }); err == nil {
		t.Error("inverted range accepted")
	}
	if err := fb.ScanRange(0, 1000, func(geom.Point) error { return nil }); err == nil {
		t.Error("out-of-bounds range accepted")
	}
}

func TestScanBlocksCountsOnePass(t *testing.T) {
	pts := testPoints(300, 2)
	mem := MustInMemory(pts)
	if err := ScanBlocks(mem, ScanConfig{BlockSize: 32, Parallelism: 4}, func(int, int, []geom.Point) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if mem.Passes() != 1 {
		t.Errorf("parallel block scan counted %d passes, want 1", mem.Passes())
	}

	path := filepath.Join(t.TempDir(), "pts.dbs")
	if err := SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	fb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ScanBlocks(fb, ScanConfig{BlockSize: 32, Parallelism: 4}, func(int, int, []geom.Point) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if fb.Passes() != 1 {
		t.Errorf("file-backed block scan counted %d passes, want 1", fb.Passes())
	}
}

func TestScanBlocksStop(t *testing.T) {
	pts := testPoints(500, 2)
	mem := MustInMemory(pts)
	seen := 0
	err := ScanBlocks(mem, ScanConfig{BlockSize: 50, Parallelism: 1}, func(block, start int, blk []geom.Point) error {
		seen++
		if block == 2 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ErrStopScan leaked: %v", err)
	}
	if seen > 4 {
		t.Errorf("stop did not end the serial scan promptly (%d blocks)", seen)
	}
}

func TestScanBlocksError(t *testing.T) {
	pts := testPoints(500, 2)
	mem := MustInMemory(pts)
	wantErr := os.ErrInvalid
	for _, workers := range []int{1, 4} {
		err := ScanBlocks(mem, ScanConfig{BlockSize: 50, Parallelism: workers}, func(block, start int, blk []geom.Point) error {
			if block == 3 {
				return wantErr
			}
			return nil
		})
		if err != wantErr {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, wantErr)
		}
	}
}
