package dataset

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestBinaryRoundTrip(t *testing.T) {
	src := MustInMemory([]geom.Point{{1.5, -2.25}, {0, 3e-9}, {math.Pi, -math.E}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != src.Len() || got.Dims() != src.Dims() {
		t.Fatalf("shape %d/%d", got.Len(), got.Dims())
	}
	for i := range src.Points() {
		if !got.Points()[i].Equal(src.Points()[i]) {
			t.Errorf("point %d: %v != %v", i, got.Points()[i], src.Points()[i])
		}
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE....")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	src := MustInMemory([]geom.Point{{1, 2}, {3, 4}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, src); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestFileBackedScan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.dbs")
	src := MustInMemory([]geom.Point{{1, 2}, {3, 4}, {5, 6}})
	if err := SaveBinary(path, src); err != nil {
		t.Fatal(err)
	}
	fb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Len() != 3 || fb.Dims() != 2 {
		t.Fatalf("shape %d/%d", fb.Len(), fb.Dims())
	}
	var sum float64
	if err := Scan(fb, func(p geom.Point) error {
		sum += p[0] + p[1]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 21 {
		t.Errorf("sum = %v", sum)
	}
	if fb.Passes() != 1 {
		t.Errorf("passes = %d", fb.Passes())
	}
	// Second pass works (file reopened).
	if err := Scan(fb, func(geom.Point) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if fb.Passes() != 2 {
		t.Errorf("passes = %d", fb.Passes())
	}
}

func TestFileBackedEarlyStop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.dbs")
	if err := SaveBinary(path, MustInMemory([]geom.Point{{1}, {2}, {3}})); err != nil {
		t.Fatal(err)
	}
	fb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Scan(fb, func(geom.Point) error {
		n++
		return ErrStopScan
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("visited %d", n)
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing.dbs")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	src := MustInMemory([]geom.Point{{1.5, 2}, {-3, 0.001}})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src.Points() {
		if !got.Points()[i].Equal(src.Points()[i]) {
			t.Errorf("point %d mismatch", i)
		}
	}
}

func TestReadCSVSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n1,2\n\n3,4\n"
	ds, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Errorf("len = %d", ds.Len())
	}
}

func TestReadCSVBadField(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("1,abc\n")); err == nil {
		t.Error("bad field accepted")
	}
}
