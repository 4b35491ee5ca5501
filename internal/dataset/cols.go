package dataset

import (
	"sync"

	"repro/internal/geom"
)

// Block is one block of a columnar scan: the same points ScanBlocks would
// deliver, exposed both as the familiar row view and as D contiguous
// column slices backed by a single slab (Cols[j][i] == Points[i][j]).
// Both views (and the points inside them) are valid only during the
// callback; retain with Clone or by copying the columns.
type Block struct {
	// Index is the block's position in the fixed block layout.
	Index int
	// Start is the dataset index of the block's first point.
	Start int
	// Points is the row view: Points[i] is point Start+i.
	Points []geom.Point
	// Cols is the column view: Cols[j] holds coordinate j of every point
	// in the block, contiguous in one slab.
	Cols [][]float64
}

// colBuf is the reusable per-block column slab: dims contiguous columns
// carved from one allocation.
type colBuf struct {
	slab []float64
	cols [][]float64
}

var colBufPool = sync.Pool{New: func() interface{} { return new(colBuf) }}

func (c *colBuf) fit(n, dims int) [][]float64 {
	if cap(c.slab) < n*dims {
		c.slab = make([]float64, n*dims)
	}
	c.slab = c.slab[:n*dims]
	if cap(c.cols) < dims {
		c.cols = make([][]float64, dims)
	}
	c.cols = c.cols[:dims]
	for j := 0; j < dims; j++ {
		c.cols[j] = c.slab[j*n : (j+1)*n : (j+1)*n]
	}
	return c.cols
}

// ScanBlocksCols is ScanBlocks with a columnar callback: each block is
// delivered as a Block carrying the row view plus the transposed column
// slab. Block boundaries, ordering guarantees, pass accounting,
// cancellation, and the one-pass contract are exactly those of
// ScanBlocks — the column view is a per-block transpose into a pooled
// slab, so a scan allocates nothing in steady state. It works over any
// Dataset, including the window and generation-pinned views, which is how
// Window and GenView expose columns.
//
// Under parallelism each in-flight block owns a private slab, so fn may
// run concurrently with the same safety rules as ScanBlocks.
//
// No pipeline path calls it: the sampler and the sharded draw evaluate
// densities over the row view from ScanBlocks. It remains for the
// repository benchmark, whose dataset.scan_ms replay times it.
func ScanBlocksCols(ds Dataset, cfg ScanConfig, fn func(b Block) error) error {
	dims := ds.Dims()
	return ScanBlocks(ds, cfg, func(block, start int, pts []geom.Point) error {
		buf := colBufPool.Get().(*colBuf)
		defer colBufPool.Put(buf)
		cols := buf.fit(len(pts), dims)
		for j := 0; j < dims; j++ {
			col := cols[j]
			for i, p := range pts {
				col[i] = p[j]
			}
		}
		return fn(Block{Index: block, Start: start, Points: pts, Cols: cols})
	})
}
