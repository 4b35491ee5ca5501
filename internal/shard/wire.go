package shard

import (
	"fmt"
	"math"
	"strconv"
)

// Params pins the identity of one sampling run for a shard worker: which
// dataset content (name + generation + content fingerprint), which run
// parameters, which seed. A worker whose copy of the dataset does not
// match Fingerprint at Generation must refuse the request — the guard
// that turns replica divergence into a loud error instead of a silently
// wrong merge.
type Params struct {
	Dataset     string  `json:"dataset"`
	Generation  uint64  `json:"generation"`
	Fingerprint string  `json:"fingerprint"` // %016x content fingerprint at Generation
	Alpha       float64 `json:"alpha"`
	Size        int     `json:"size"`
	Kernels     int     `json:"kernels"`
	Kernel      string  `json:"kernel"`
	Seed        uint64  `json:"seed"`
	BlockSize   int     `json:"block_size,omitempty"`
}

// PartialsRequest asks a worker for the partial normalizer sums of the
// given global scan blocks. Shard names the worker the coordinator thinks
// it is talking to; a worker running with an explicit identity rejects a
// mismatch.
type PartialsRequest struct {
	Shard  string `json:"shard"`
	Params Params `json:"params"`
	Blocks []int  `json:"blocks"`
}

// PartialsResponse carries the per-block partial k_a sums, parallel to
// the request's Blocks. Each value is the hex-encoded IEEE-754 bit
// pattern of the float64 partial (EncodeF64): the merge must reproduce
// core.ExactNorm to the last bit, so the wire format is exact by
// construction rather than by trusting decimal round-trips.
type PartialsResponse struct {
	Partials []string `json:"partials"`
}

// DrawRequest asks a worker to flip the inclusion coins of the given
// global blocks against the exact global normalizer (NormBits, an
// EncodeF64 bit pattern) using the per-block streams derived from Base
// (core.DrawStreamBase).
type DrawRequest struct {
	Shard    string `json:"shard"`
	Params   Params `json:"params"`
	Blocks   []int  `json:"blocks"`
	NormBits string `json:"norm_bits"`
	Base     uint64 `json:"base"`
}

// BlockDraw is one block's selections: the sampled points (row-major
// coordinates) and their inverse-probability weights, in block index
// order. Coordinates and weights travel as JSON numbers — Go encodes
// float64 values in shortest round-trip form, so decode(encode(v)) == v
// bit-for-bit and the coordinator re-emits exactly the bytes a
// single-node response would contain.
type BlockDraw struct {
	Block     int         `json:"block"`
	Points    [][]float64 `json:"points"`
	Weights   []float64   `json:"weights"`
	Saturated int         `json:"saturated"`
}

// DrawResponse carries one BlockDraw per requested block, parallel to the
// request's Blocks.
type DrawResponse struct {
	Blocks []BlockDraw `json:"blocks"`
}

// EncodeF64 renders a float64 as the hex of its IEEE-754 bit pattern —
// the exact-by-construction wire encoding for normalizer values.
func EncodeF64(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}

// DecodeF64 inverts EncodeF64.
func DecodeF64(s string) (float64, error) {
	bits, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("shard: bad float bits %q: %v", s, err)
	}
	return math.Float64frombits(bits), nil
}
