package dataset

import (
	"encoding/binary"
	"math"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// FNV-1a 64-bit parameters (hash/fnv's constants, inlined so the per-block
// digests run over stack buffers without allocating hashers).
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 1099511628211
)

func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// Fingerprint computes a 64-bit content fingerprint of ds: FNV-1a digests
// over the binary codec stream (the exact little-endian bytes WriteBinary
// emits — magic, dims, count, then each point's packed float64 row), taken
// per scheduling block and chained in block order. Block boundaries depend
// only on the dataset size and parallel.DefaultBlockSize, never on the
// worker count, so the fingerprint is identical at every parallelism and
// for every Dataset implementation holding the same points in the same
// order; any single-bit perturbation of any coordinate changes it.
//
// The serving layer keys its artifact cache on this value, so two
// registrations of byte-identical data share cached estimators and
// samples. One dataset pass is consumed.
func Fingerprint(ds Dataset, parallelism int) (uint64, error) {
	dims := ds.Dims()
	n := ds.Len()
	hdr := make([]byte, 16)
	copy(hdr, binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(dims))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))

	// Each block digests its own rows and writes only its own slot; the
	// per-block digests are chained in block order afterwards. FNV-1a
	// cannot resume mid-stream across concurrent blocks, so this blocked
	// construction — not a straight hash of the file bytes — is what makes
	// the parallel scan exact.
	rowSize := 8 * dims
	blockSums := make([]uint64, parallel.NumBlocks(n, parallel.BlockSize(0)))
	err := ScanBlocks(ds, ScanConfig{Parallelism: parallelism}, func(block, start int, pts []geom.Point) error {
		h := uint64(fnvOffset64)
		buf := make([]byte, rowSize)
		for _, p := range pts {
			for j, v := range p {
				binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
			}
			h = fnv1a(h, buf)
		}
		blockSums[block] = h
		return nil
	})
	if err != nil {
		return 0, err
	}

	h := fnv1a(fnvOffset64, hdr)
	var sum [8]byte
	for _, bh := range blockSums {
		binary.LittleEndian.PutUint64(sum[:], bh)
		h = fnv1a(h, sum[:])
	}
	return h, nil
}
