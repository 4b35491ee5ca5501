package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func TestSampleCodecRoundTrip(t *testing.T) {
	s := &Sample{
		Points: []dataset.WeightedPoint{
			{P: geom.Point{1.5, -2.25, 0.125}, W: 3.5},
			{P: geom.Point{0, 1e-300, math.Pi}, W: 1},
			{P: geom.Point{-4, 4, 0.1}, W: 123.456},
		},
		Norm:       987.25,
		DataPasses: 2,
		Saturated:  7,
	}
	ns := NormState{K: 987.25, N: 100000, Kernels: 64, Drift: 0.015625}

	blob, err := MarshalSample(s, ns)
	if err != nil {
		t.Fatal(err)
	}
	gs, gns, err := UnmarshalSample(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs, s) {
		t.Errorf("sample round-trip:\n got %+v\nwant %+v", gs, s)
	}
	if gns != ns {
		t.Errorf("norm state round-trip: got %+v, want %+v", gns, ns)
	}
	// Byte-stable: serializing the decoded pair reproduces the blob.
	blob2, err := MarshalSample(gs, gns)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Error("re-serialized sample artifact differs")
	}
}

func TestSampleCodecErrors(t *testing.T) {
	if _, err := MarshalSample(nil, NormState{}); err == nil {
		t.Error("nil sample accepted")
	}
	if _, err := MarshalSample(&Sample{}, NormState{}); err == nil {
		t.Error("empty sample accepted")
	}
	mixed := &Sample{Points: []dataset.WeightedPoint{
		{P: geom.Point{1, 2}, W: 1},
		{P: geom.Point{1}, W: 1},
	}}
	if _, err := MarshalSample(mixed, NormState{}); err == nil {
		t.Error("mixed-dimension sample accepted")
	}

	good := &Sample{Points: []dataset.WeightedPoint{{P: geom.Point{1, 2}, W: 1}}}
	blob, err := MarshalSample(good, NormState{K: 1, N: 1, Kernels: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("YYYYY"), blob[5:]...),
		"truncated": blob[:len(blob)-1],
		"trailing":  append(append([]byte{}, blob...), 0xFF),
	} {
		if _, _, err := UnmarshalSample(data); err == nil {
			t.Errorf("%s: corrupt artifact accepted", name)
		}
	}
}

// FuzzUnmarshalSample: arbitrary bytes as a DBSS1 payload must decode to
// an error, never a panic, or to a (Sample, NormState) pair that
// re-marshals to the same bytes. The seed corpus holds one real payload,
// whole and truncated (testdata/fuzz/FuzzUnmarshalSample).
func FuzzUnmarshalSample(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ns, err := UnmarshalSample(data)
		if err != nil {
			return
		}
		back, err := MarshalSample(s, ns)
		if err != nil {
			t.Fatalf("decoded sample does not marshal: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("decoded sample marshals to %d bytes differing from the %d decoded", len(back), len(data))
		}
	})
}
