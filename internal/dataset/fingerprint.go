package dataset

import (
	"encoding/binary"

	"repro/internal/geom"
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
// samples. It is a fresh fpMemo advanced over every row and finalized, so
// an appendable dataset's per-generation fingerprints agree with it by
// construction. One dataset pass is consumed.
func Fingerprint(ds Dataset, parallelism int) (uint64, error) {
	n := ds.Len()
	var m fpMemo
	if err := m.advance(ds, n, parallelism); err != nil {
		return 0, err
	}
	return finalizeFingerprint(ds.Dims(), n, m.sums), nil
}

// digestRows folds pts into the FNV-1a digest h, each row as its packed
// little-endian float64 bytes; buf holds one row.
func digestRows(h uint64, pts []geom.Point, buf []byte) uint64 {
	for _, p := range pts {
		h = fnv1a(h, putRow(buf, p))
	}
	return h
}

// finalizeFingerprint chains the codec header (magic, dims, count) and the
// per-block digests in block order into the fingerprint.
func finalizeFingerprint(dims, count int, sums []uint64) uint64 {
	h := fnv1a(fnvOffset64, binary.LittleEndian.AppendUint64(head(binaryMagic, dims), uint64(count)))
	var b [8]byte
	for _, bh := range sums {
		binary.LittleEndian.PutUint64(b[:], bh)
		h = fnv1a(h, b[:])
	}
	return h
}
