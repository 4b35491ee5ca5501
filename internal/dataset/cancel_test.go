package dataset

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
)

// Both ScanBlocks read paths — resident subslices and decoded ranges —
// must honour Ctx and surface the typed error.
func TestScanBlocksCtxCanceled(t *testing.T) {
	pts := testPoints(1000, 2)
	mem := MustInMemory(pts)
	path := filepath.Join(t.TempDir(), "pts.dbs")
	if err := SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	fb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	datasets := map[string]Dataset{
		"inmemory":   mem,
		"filebacked": fb,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ds := range datasets {
		var blocks atomic.Int32
		err := ScanBlocks(ds, ScanConfig{BlockSize: 64, Parallelism: 4, Ctx: ctx},
			func(block, start int, blk []geom.Point) error {
				blocks.Add(1)
				return nil
			})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v does not match context.Canceled", name, err)
		}
		if n := blocks.Load(); n != 0 {
			t.Errorf("%s: %d blocks ran on a pre-canceled context", name, n)
		}
	}
}

func TestScanBlocksCtxLive(t *testing.T) {
	pts := testPoints(300, 2)
	mem := MustInMemory(pts)
	var seen atomic.Int64
	err := ScanBlocks(mem, ScanConfig{BlockSize: 64, Parallelism: 4, Ctx: context.Background()},
		func(block, start int, blk []geom.Point) error {
			seen.Add(int64(len(blk)))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen.Load() != int64(len(pts)) {
		t.Errorf("saw %d points, want %d", seen.Load(), len(pts))
	}
}
