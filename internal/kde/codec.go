package kde

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Binary estimator artifact format ("DBSK1"), the disk tier's payload
// for cached estimators. Only the construction inputs are stored —
// kernel profile, centers, bandwidths and dataset size — because
// newEstimator is deterministic: the kd-tree and the flat evaluation slab
// rebuild bit-identically from them on load (pinned by
// TestEstimatorCodecRoundTrip). That keeps artifacts small (≈ ks·d·8
// bytes) and forward-portable across changes to the derived structures.
//
// Layout (little-endian, fixed-width header fields):
//
//	offset 0: magic "DBSK1" (5 bytes)
//	byte  5:  kernel name length (1 byte), then the name bytes
//	then:     uint32 dims, uint32 numCenters,
//	          uint64 n, uint32 reserved, uint32 reserved
//	then:     dims float64 bandwidths
//	then:     numCenters × dims float64 center coordinates
//
// The two reserved words held the parameters of an adaptive-bandwidth
// build that no longer exists. They are written as 0; a file with either
// non-zero describes an estimator this package cannot rebuild, so it is
// refused as corrupt rather than decoded into a different estimator.
const estimatorMagic = "DBSK1"

// maxCodecElems bounds decoded allocations so a corrupt header cannot
// ask for petabytes.
const maxCodecElems = 1 << 31

// MarshalBinary serializes the estimator's construction inputs.
func (e *Estimator) MarshalBinary() ([]byte, error) {
	name := e.kernel.Name()
	if KernelByName(name) == nil {
		return nil, fmt.Errorf("kde: kernel %q has no registered name; cannot serialize", name)
	}
	if len(name) > 255 {
		return nil, fmt.Errorf("kde: kernel name %q too long", name)
	}
	size := len(estimatorMagic) + 1 + len(name) + 4 + 4 + 8 + 4 + 4 +
		8*len(e.h) + 8*len(e.centers)*e.dims
	buf := make([]byte, 0, size)
	buf = append(buf, estimatorMagic...)
	buf = append(buf, byte(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.dims))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.centers)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.n))
	buf = binary.LittleEndian.AppendUint64(buf, 0) // the two reserved words
	for _, v := range e.h {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, c := range e.centers {
		for _, v := range c {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf, nil
}

// UnmarshalEstimator reconstructs an estimator serialized with
// MarshalBinary. The returned estimator has no recorder attached; the
// caller re-attaches one with SetRecorder.
func UnmarshalEstimator(data []byte) (*Estimator, error) {
	r := data
	take := func(n int) ([]byte, error) {
		if len(r) < n {
			return nil, errors.New("kde: truncated estimator artifact")
		}
		b := r[:n]
		r = r[n:]
		return b, nil
	}
	b, err := take(len(estimatorMagic) + 1)
	if err != nil {
		return nil, err
	}
	if string(b[:len(estimatorMagic)]) != estimatorMagic {
		return nil, fmt.Errorf("kde: bad artifact magic %q", b[:len(estimatorMagic)])
	}
	nameLen := int(b[len(estimatorMagic)])
	if b, err = take(nameLen); err != nil {
		return nil, err
	}
	kern := KernelByName(string(b))
	if kern == nil {
		return nil, fmt.Errorf("kde: artifact uses unknown kernel %q", b)
	}
	if b, err = take(4 + 4 + 8 + 4 + 4); err != nil {
		return nil, err
	}
	dims := int(binary.LittleEndian.Uint32(b[0:4]))
	numCenters := int(binary.LittleEndian.Uint32(b[4:8]))
	n := binary.LittleEndian.Uint64(b[8:16])
	if reserved := binary.LittleEndian.Uint64(b[16:24]); reserved != 0 {
		return nil, fmt.Errorf("kde: artifact reserved header words %#x are not zero", reserved)
	}
	if dims < 1 || numCenters < 1 || n == 0 || n > maxCodecElems ||
		numCenters > maxCodecElems || dims > maxCodecElems/numCenters {
		return nil, fmt.Errorf("kde: implausible artifact header (dims %d, centers %d, n %d)", dims, numCenters, n)
	}
	if b, err = take(8 * dims); err != nil {
		return nil, err
	}
	h := make([]float64, dims)
	for j := range h {
		h[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
		if !(h[j] > 0) || math.IsInf(h[j], 0) {
			return nil, fmt.Errorf("kde: artifact bandwidth %d = %v out of range", j, h[j])
		}
	}
	if b, err = take(8 * numCenters * dims); err != nil {
		return nil, err
	}
	// One backing array for all centers keeps the load allocation-lean.
	flat := make([]float64, numCenters*dims)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	centers := make([]geom.Point, numCenters)
	for i := range centers {
		centers[i] = geom.Point(flat[i*dims : (i+1)*dims : (i+1)*dims])
		if !centers[i].IsFinite() {
			return nil, fmt.Errorf("kde: artifact center %d has non-finite coordinates", i)
		}
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("kde: %d trailing bytes after estimator artifact", len(r))
	}
	return newEstimator(kern, centers, h, int(n)), nil
}
