package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/parallel"
)

// The request FuzzShardReply decodes every reply against: 40 points in
// blocks of 8, row i = (i, 1 + i mod 5) except row 18 = (18, 60), so that
// columnDensity weighs each row by its second coordinate and its first
// names its index, b = 10, and a group holding blocks 0, 2 and 3. Row 18's
// probability b·60/k_a clips at 1. The seed corpus holds real replies to
// this request from coreExec: at stream base 0x5eed whole, byte-cut and
// with blocks dropped, and partials-clip at base 1, which keeps row 18
// with u = 0.75, a variate the clipped coin still draws.
const (
	fuzzN         = 40
	fuzzBlockSize = 8
	fuzzSize      = 10
)

var fuzzBlocks = []int{0, 2, 3}

func fuzzData() *dataset.InMemory {
	pts := make([]geom.Point, fuzzN)
	for i := range pts {
		pts[i] = geom.Point{float64(i), float64(1 + i%5)}
	}
	pts[18][1] = 60
	return dataset.MustInMemory(pts)
}

// FuzzShardReply feeds arbitrary bytes, as a worker's reply, through the
// coordinator's decoding and validation. It may not panic; a reply that
// validates must resolve to rows of its own blocks only; and the hex
// float encoding must round-trip every bit pattern.
func FuzzShardReply(f *testing.F) {
	ds := fuzzData()
	f.Add([]byte(`{"blocks":[]}`), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, bits uint64) {
		if v, err := DecodeF64(EncodeF64(math.Float64frombits(bits))); err != nil || math.Float64bits(v) != bits {
			t.Fatalf("bits %x came back as %x (%v)", bits, math.Float64bits(v), err)
		}

		// Client.post decodes a reply with a json.Decoder.
		var pr PartialsResponse
		if json.NewDecoder(bytes.NewReader(data)).Decode(&pr) != nil || validatePartials(&pr, fuzzBlocks, fuzzN, fuzzBlockSize) != nil {
			return
		}
		cands := make([]core.BlockCandidates, len(pr.Blocks))
		partials := make([]float64, len(pr.Blocks))
		for i := range pr.Blocks {
			cands[i] = pr.Blocks[i].candidates()
			partials[i] = cands[i].Partial
		}
		norm := core.FoldNorm(partials)
		if !(norm > 0) || math.IsInf(norm, 0) {
			norm = 1
		}
		resolved, err := core.ResolveBlocks(ds, core.Options{TargetSize: fuzzSize, BlockSize: fuzzBlockSize}, norm, cands)
		if err != nil {
			t.Fatalf("a validated reply failed to resolve: %v", err)
		}
		// The sample is gathered block by block in reply order, each
		// block's rows increasing, so every kept row must be a candidate
		// of the reply, inside its own block, after the row before it.
		owner := map[int]int{}
		for _, c := range cands {
			for _, i := range c.Index {
				owner[i] = c.Block
			}
		}
		prev := -1
		for _, wp := range resolved.Points {
			i := int(wp.P[0])
			b, ok := owner[i]
			start, end := parallel.BlockRange(b, fuzzN, fuzzBlockSize)
			if !ok || i <= prev || i < start || i >= end || !wp.P.Equal(ds.Points()[i]) {
				t.Fatalf("resolved to row %v, not the next candidate row of its own block", wp.P)
			}
			prev = i
		}
	})
}
