package shard

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
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
}

// PartialsRequest asks a worker for its part of the exact draw over the
// given global scan blocks, strictly increasing: core.ProposeBlocks with
// the per-block coin streams derived from Base (core.DrawStreamBase).
// Shard names the worker the coordinator thinks it is talking to; a
// worker running with an explicit identity rejects a mismatch.
type PartialsRequest struct {
	Shard  string `json:"shard"`
	Params Params `json:"params"`
	Blocks []int  `json:"blocks"`
	Base   uint64 `json:"base"`
}

// PartialsResponse carries one BlockPartial per requested block, parallel
// to the request's Blocks.
type PartialsResponse struct {
	Blocks []BlockPartial `json:"blocks"`
}

// BlockPartial is one block's reply, a core.BlockCandidates on the wire:
// the block's partial k_a and its candidates as parallel arrays of global
// dataset index, weight and coin variate u, in increasing index order.
// Every float travels as the hex of its IEEE-754 bit pattern (EncodeF64):
// the merge must reproduce core.Draw to the last bit, so the wire format
// is exact by construction rather than by trusting decimal round-trips.
type BlockPartial struct {
	Block   int       `json:"block"`
	Partial HexFloat  `json:"partial"`
	Index   []int     `json:"index"`
	W       HexFloats `json:"w"`
	U       HexFloats `json:"u"`
}

// PartialsReply is the wire form of core.ProposeBlocks's result.
func PartialsReply(cands []core.BlockCandidates) *PartialsResponse {
	resp := &PartialsResponse{Blocks: make([]BlockPartial, len(cands))}
	for i, c := range cands {
		resp.Blocks[i] = BlockPartial{
			Block: c.Block, Partial: HexFloat(c.Partial), Index: c.Index, W: c.W, U: c.U,
		}
	}
	return resp
}

// candidates is the core form of one reply entry; the arrays are shared.
func (bp *BlockPartial) candidates() core.BlockCandidates {
	return core.BlockCandidates{
		Block: bp.Block, Partial: float64(bp.Partial), Index: bp.Index, W: bp.W, U: bp.U,
	}
}

// EncodeF64 renders a float64 as the hex of its IEEE-754 bit pattern —
// the exact-by-construction wire encoding for normalizer values.
func EncodeF64(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}

// HexFloat is a float64 that travels as a JSON string of EncodeF64.
type HexFloat float64

// MarshalText implements encoding.TextMarshaler.
func (h HexFloat) MarshalText() ([]byte, error) {
	return []byte(EncodeF64(float64(h))), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (h *HexFloat) UnmarshalText(b []byte) error {
	v, err := DecodeF64(string(b))
	*h = HexFloat(v)
	return err
}

// HexFloats is a []float64 that travels as a JSON array of EncodeF64
// strings.
type HexFloats []float64

// MarshalJSON implements json.Marshaler.
func (hs HexFloats) MarshalJSON() ([]byte, error) {
	ss := make([]string, len(hs))
	for i, v := range hs {
		ss[i] = EncodeF64(v)
	}
	return json.Marshal(ss)
}

// UnmarshalJSON implements json.Unmarshaler.
func (hs *HexFloats) UnmarshalJSON(data []byte) error {
	var ss []string
	if err := json.Unmarshal(data, &ss); err != nil {
		return err
	}
	out := make(HexFloats, len(ss))
	for i, s := range ss {
		v, err := DecodeF64(s)
		if err != nil {
			return err
		}
		out[i] = v
	}
	*hs = out
	return nil
}

// DecodeF64 inverts EncodeF64.
func DecodeF64(s string) (float64, error) {
	bits, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("shard: bad float bits %q: %v", s, err)
	}
	return math.Float64frombits(bits), nil
}
