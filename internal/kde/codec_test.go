package kde

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stats"
)

func codecTestData(n int, seed uint64) *dataset.InMemory {
	rng := stats.NewRNG(seed)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64(), rng.Float64() * 2, rng.NormFloat64()}
	}
	return dataset.MustInMemory(pts)
}

// TestEstimatorCodecRoundTrip pins the disk tier's core guarantee: a
// serialized estimator reconstructs bit-identically — same densities,
// same batch evaluations, same re-serialized bytes — for each kernel
// profile and bandwidth scale; the derived structures are rebuilt on load
// rather than stored.
func TestEstimatorCodecRoundTrip(t *testing.T) {
	ds := codecTestData(4000, 7)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"uniform", Options{NumKernels: 200}},
		{"gaussian", Options{NumKernels: 150, Kernel: Gaussian{}}},
		{"scaled", Options{NumKernels: 100, BandwidthScale: 1.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			est, err := Build(ds, tc.opts, stats.NewRNG(11))
			if err != nil {
				t.Fatal(err)
			}
			blob, err := est.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			got, err := UnmarshalEstimator(blob)
			if err != nil {
				t.Fatal(err)
			}
			if got.N() != est.N() || got.Dims() != est.Dims() || got.NumKernels() != est.NumKernels() {
				t.Fatalf("shape = (%d, %d, %d), want (%d, %d, %d)",
					got.N(), got.Dims(), got.NumKernels(), est.N(), est.Dims(), est.NumKernels())
			}
			// Bit-exact densities at probe points, including compact-
			// support edges.
			probe := stats.NewRNG(99)
			for i := 0; i < 200; i++ {
				q := geom.Point{probe.Float64() * 1.5, probe.Float64() * 3, probe.NormFloat64() * 2}
				dw, dg := est.Density(q), got.Density(q)
				if math.Float64bits(dw) != math.Float64bits(dg) {
					t.Fatalf("density(%v) = %x, want %x (not bit-identical)",
						q, math.Float64bits(dg), math.Float64bits(dw))
				}
			}
			// Idempotent: re-serializing the loaded estimator yields the
			// same bytes.
			blob2, err := got.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Error("re-serialized artifact differs from the original")
			}
		})
	}
}

// TestEstimatorCodecExtendAfterLoad: extending a loaded estimator matches
// extending the original exactly.
func TestEstimatorCodecExtendAfterLoad(t *testing.T) {
	ds := codecTestData(2000, 3)
	est, err := Build(ds, Options{NumKernels: 100}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := est.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalEstimator(blob)
	if err != nil {
		t.Fatal(err)
	}
	delta := []geom.Point{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}}
	e1, err := est.Extend(delta, 2100)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := loaded.Extend(delta, 2100)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{0.3, 0.4, 0.2}
	if d1, d2 := e1.Density(q), e2.Density(q); math.Float64bits(d1) != math.Float64bits(d2) {
		t.Fatalf("extended density = %v, want %v (loaded estimator extends differently)", d2, d1)
	}
}

func TestEstimatorCodecCorruption(t *testing.T) {
	est, err := Build(codecTestData(500, 1), Options{NumKernels: 50}, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := est.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("XXXXX"), blob[5:]...),
		"truncated":  blob[:len(blob)-9],
		"trailing":   append(append([]byte{}, blob...), 0),
		"bad kernel": append([]byte("DBSK1\x03zzz"), blob[len("DBSK1")+1+len("epanechnikov"):]...),
	}
	for name, data := range cases {
		if _, err := UnmarshalEstimator(data); err == nil {
			t.Errorf("%s: corrupt artifact accepted", name)
		}
	}
}

// reservedOffset returns the offset of the two reserved uint32 header words
// in a DBSK1 payload whose kernel name has the given length.
func reservedOffset(nameLen int) int {
	return len(estimatorMagic) + 1 + nameLen + 4 + 4 + 8
}

// TestEstimatorCodecRefusesAdaptiveHeader: the two reserved DBSK1 header
// words once selected an adaptive-bandwidth build whose k-NN over every
// pair of centers ran inside UnmarshalEstimator, on the request path and
// with no deadline — an 8,000-center payload with the first word at
// 0xFFFFFFFF took 22.7 s to decode on 2 vCPUs. A payload that sets either
// word must be refused.
func TestEstimatorCodecRefusesAdaptiveHeader(t *testing.T) {
	rng := stats.NewRNG(41)
	centers := make([]geom.Point, 8000)
	for i := range centers {
		centers[i] = geom.Point{rng.Float64()}
	}
	est, err := FromCenters(Epanechnikov{}, centers, []float64{0.01}, 8000)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := est.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalEstimator(blob); err != nil {
		t.Fatalf("canonical payload refused: %v", err)
	}
	off := reservedOffset(len(Epanechnikov{}.Name()))
	for _, tc := range []struct {
		name string
		at   int
	}{
		{"adaptiveK", off},
		{"buildPar", off + 4},
	} {
		bad := bytes.Clone(blob)
		binary.LittleEndian.PutUint32(bad[tc.at:], 0xFFFFFFFF)
		if _, err := UnmarshalEstimator(bad); err == nil {
			t.Errorf("payload with the %s word set decoded", tc.name)
		}
	}
}

// FuzzUnmarshalEstimator: arbitrary bytes as a DBSK1 payload must decode
// to an error, never a panic, or to an estimator that re-marshals to the
// same bytes; and no payload with a non-zero reserved header word decodes.
// The seed corpus holds one real payload, whole and truncated
// (testdata/fuzz/FuzzUnmarshalEstimator).
func FuzzUnmarshalEstimator(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		est, err := UnmarshalEstimator(data)
		if err != nil {
			return
		}
		back, err := est.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded estimator does not marshal: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("decoded estimator marshals to %d bytes differing from the %d decoded", len(back), len(data))
		}
		off := reservedOffset(int(data[len(estimatorMagic)]))
		for w := 0; w < 2; w++ {
			bad := bytes.Clone(data)
			binary.LittleEndian.PutUint32(bad[off+4*w:], 1)
			if _, err := UnmarshalEstimator(bad); err == nil {
				t.Fatalf("payload with reserved word %d set decoded", w)
			}
		}
	})
}
