package dataset

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

func TestFingerprintStableAcrossWorkers(t *testing.T) {
	pts := testPoints(10_000, 3)
	mem := MustInMemory(pts)
	want, err := Fingerprint(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		before := mem.Passes()
		got, err := Fingerprint(mem, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("parallelism=%d: fingerprint %#x, serial %#x", workers, got, want)
		}
		if n := mem.Passes() - before; n != 1 {
			t.Errorf("parallelism=%d: fingerprint charged %d passes, want 1", workers, n)
		}
	}
}

func TestFingerprintSameAcrossImplementations(t *testing.T) {
	pts := testPoints(5000, 2)
	mem := MustInMemory(pts)
	path := filepath.Join(t.TempDir(), "pts.dbs")
	if err := SaveBinary(path, mem); err != nil {
		t.Fatal(err)
	}
	fb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Fingerprint(mem, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(fb, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("in-memory %#x != file-backed %#x over identical points", a, b)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	pts := testPoints(1000, 2)
	base := MustInMemory(pts)
	want, err := Fingerprint(base, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Flip the lowest mantissa bit of one coordinate in the last point.
	perturbed := make([]geom.Point, len(pts))
	for i, p := range pts {
		perturbed[i] = p.Clone()
	}
	last := perturbed[len(perturbed)-1]
	last[0] = math.Float64frombits(math.Float64bits(last[0]) ^ 1)
	got, err := Fingerprint(MustInMemory(perturbed), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got == want {
		t.Error("single-bit coordinate perturbation left the fingerprint unchanged")
	}

	// Reordering two points changes the stream, so it changes the hash.
	swapped := make([]geom.Point, len(pts))
	copy(swapped, pts)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	got, err = Fingerprint(MustInMemory(swapped), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got == want {
		t.Error("point reorder left the fingerprint unchanged")
	}

	// A prefix of the dataset hashes differently (count is in the header).
	got, err = Fingerprint(MustInMemory(pts[:len(pts)-1]), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got == want {
		t.Error("dropping a point left the fingerprint unchanged")
	}
}

// The fingerprint is defined as a digest of the binary codec stream, so it
// must agree between a dataset and its serialized round trip.
func TestFingerprintMatchesCodecRoundTrip(t *testing.T) {
	mem := MustInMemory(testPoints(700, 4))
	want, err := Fingerprint(mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, mem); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Fingerprint(back, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round-tripped fingerprint %#x, want %#x", got, want)
	}
}
