package dataset_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/stats"
)

// contractCase is one dataset under the read contract and the rows it
// must deliver.
type contractCase struct {
	name string
	ds   dataset.Dataset
	want []geom.Point
}

// contractDatasets builds every kind of dataset the repository reads,
// over the same rows: the in-memory and file-backed stores, a segmented
// file mapped and decoded (written as two segments, so reads cross a
// segment boundary), a window of each of those, and a fault wrapper that
// injects nothing.
func contractDatasets(t *testing.T) []contractCase {
	t.Helper()
	rng := stats.NewRNG(42)
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	mem := dataset.MustInMemory(pts)
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.dbs")
	if err := dataset.SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	fb, err := dataset.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "pts.seg")
	sf, err := dataset.CreateSegmented(segPath, dataset.MustInMemory(pts[:600]))
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Append(pts[600:]...); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := dataset.OpenSegmented(segPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	decoded, err := dataset.OpenSegmentedDecoded(segPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { decoded.Close() })
	if decoded.Points() != nil {
		t.Fatal("the decoded segment file is mapped")
	}

	cases := []contractCase{
		{"inmemory", mem, pts},
		{"filebacked", fb, pts},
		{"segment-mapped", mapped, pts},
		{"segment-decoded", decoded, pts},
	}
	for _, c := range cases[:4] {
		w, err := dataset.Window(c.ds, 100, 900)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, contractCase{"window-" + c.name, w, pts[100:900]})
	}
	wrapped := faults.Wrap(mem, faults.New(faults.Config{Seed: 1}).Point("scan"))
	return append(cases, contractCase{"faults", wrapped, pts})
}

func sameRows(t *testing.T, what string, got, want []geom.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("%s: row %d = %v, want %v", what, i, got[i], want[i])
			return
		}
	}
}

// TestReadContract holds every dataset to the one read contract: Scan,
// interior ScanRanges and ScanBlocks at parallelism 1 and 4 deliver the
// same rows in index order; Scan and ScanBlocks charge one pass and
// ScanRange none; ErrStopScan ends each read early with a nil error; a
// callback's own error comes back unchanged; and a range outside the
// dataset is refused.
func TestReadContract(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range contractDatasets(t) {
		t.Run(c.name, func(t *testing.T) {
			ds, n := c.ds, len(c.want)
			if ds.Len() != n || ds.Dims() != 3 {
				t.Fatalf("len/dims = %d/%d, want %d/3", ds.Len(), ds.Dims(), n)
			}
			charged := func(read func() error) int {
				t.Helper()
				before := ds.Passes()
				if err := read(); err != nil {
					t.Fatal(err)
				}
				return ds.Passes() - before
			}

			var got []geom.Point
			collect := func(p geom.Point) error {
				got = append(got, p.Clone())
				return nil
			}
			if k := charged(func() error { return dataset.Scan(ds, collect) }); k != 1 {
				t.Errorf("Scan charged %d passes, want 1", k)
			}
			sameRows(t, "Scan", got, c.want)

			for _, r := range [][2]int{{0, n}, {1, n - 1}, {n / 3, 2 * n / 3}, {n / 2, n / 2}} {
				got = nil
				if k := charged(func() error { return ds.ScanRange(r[0], r[1], collect) }); k != 0 {
					t.Errorf("ScanRange%v charged %d passes, want 0", r, k)
				}
				sameRows(t, fmt.Sprintf("ScanRange%v", r), got, c.want[r[0]:r[1]])
			}
			for _, r := range [][2]int{{n / 2, n/2 - 1}, {-1, 1}, {0, n + 1}} {
				if err := ds.ScanRange(r[0], r[1], collect); err == nil {
					t.Errorf("ScanRange%v over %d rows accepted", r, n)
				}
			}

			for _, workers := range []int{1, 4} {
				rows := make([]geom.Point, n)
				k := charged(func() error {
					return dataset.ScanBlocks(ds, dataset.ScanConfig{BlockSize: 64, Parallelism: workers}, func(_, start int, pts []geom.Point) error {
						for i, p := range pts {
							rows[start+i] = p.Clone()
						}
						return nil
					})
				})
				if k != 1 {
					t.Errorf("ScanBlocks at parallelism %d charged %d passes, want 1", workers, k)
				}
				sameRows(t, fmt.Sprintf("ScanBlocks at parallelism %d", workers), rows, c.want)
			}

			seen := 0
			stop := func(geom.Point) error {
				if seen++; seen == 3 {
					return dataset.ErrStopScan
				}
				return nil
			}
			if err := dataset.Scan(ds, stop); err != nil || seen != 3 {
				t.Errorf("stopped Scan: err %v after %d points, want nil after 3", err, seen)
			}
			seen = 0
			if err := ds.ScanRange(10, 20, stop); err != nil || seen != 3 {
				t.Errorf("stopped ScanRange: err %v after %d points, want nil after 3", err, seen)
			}
			blocks := 0
			err := dataset.ScanBlocks(ds, dataset.ScanConfig{BlockSize: 64, Parallelism: 1}, func(block, _ int, _ []geom.Point) error {
				if blocks++; block == 2 {
					return dataset.ErrStopScan
				}
				return nil
			})
			if err != nil || blocks != 3 {
				t.Errorf("stopped ScanBlocks: err %v after %d blocks, want nil after 3", err, blocks)
			}

			fail := func(geom.Point) error { return boom }
			if err := dataset.Scan(ds, fail); err != boom {
				t.Errorf("Scan returned %v, want the callback's error", err)
			}
			if err := ds.ScanRange(5, 10, fail); err != boom {
				t.Errorf("ScanRange returned %v, want the callback's error", err)
			}
			for _, workers := range []int{1, 4} {
				err := dataset.ScanBlocks(ds, dataset.ScanConfig{BlockSize: 64, Parallelism: workers}, func(block, _ int, _ []geom.Point) error {
					if block == 3 {
						return boom
					}
					return nil
				})
				if err != boom {
					t.Errorf("ScanBlocks at parallelism %d returned %v, want the callback's error", workers, err)
				}
			}
		})
	}
}
