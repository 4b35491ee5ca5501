// Package stream provides bounded-memory density estimation over a
// stream of points: a Count-Min sketch of grid-cell occupancy (optionally
// averaged over shifted grids, after Wells & Ting's averaged shifted
// histograms) that maintains cell counts and the density field f in one
// forward pass with O(width × depth) memory.
package stream

import (
	"fmt"

	"repro/internal/stats"
)

// CMSketch is a Count-Min sketch over uint64 keys. Count reads the
// minimum over rows, so estimates overshoot only by hash collisions,
// never undershoot.
type CMSketch struct {
	width, depth int
	rows         [][]int64
	seeds        []uint64
}

// NewCMSketch returns a sketch of depth rows × width counters. The row
// seeds derive deterministically from seed, so two sketches built with the
// same shape and seed are interchangeable.
func NewCMSketch(width, depth int, seed uint64) (*CMSketch, error) {
	if width < 1 || depth < 1 {
		return nil, fmt.Errorf("stream: sketch shape %dx%d invalid", width, depth)
	}
	s := &CMSketch{
		width: width,
		depth: depth,
		rows:  make([][]int64, depth),
		seeds: make([]uint64, depth),
	}
	x := seed
	for r := 0; r < depth; r++ {
		s.rows[r] = make([]int64, width)
		x += stats.Golden
		s.seeds[r] = stats.Mix64(x)
	}
	return s, nil
}

func (s *CMSketch) pos(row int, key uint64) int {
	return int(stats.Mix64(key^s.seeds[row]) % uint64(s.width))
}

// Add increments key's counter in every row.
func (s *CMSketch) Add(key uint64) {
	for r := 0; r < s.depth; r++ {
		s.rows[r][s.pos(r, key)]++
	}
}

// Count estimates key's multiplicity: the minimum over rows, never an
// undercount of the true multiplicity.
func (s *CMSketch) Count(key uint64) int64 {
	min := s.rows[0][s.pos(0, key)]
	for r := 1; r < s.depth; r++ {
		if c := s.rows[r][s.pos(r, key)]; c < min {
			min = c
		}
	}
	return min
}

// Bytes reports the counter memory: 8 bytes × width × depth, independent
// of how many keys have been added.
func (s *CMSketch) Bytes() int { return 8 * s.width * s.depth }
