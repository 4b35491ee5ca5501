package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// writeFile is a tiny helper for handcrafting malformed dataset files.
func writeFile(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.dbs")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenFileTruncatedHeader(t *testing.T) {
	path := writeFile(t, []byte("DBS1\x02\x00"))
	if _, err := OpenFile(path); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestOpenFileBadMagic(t *testing.T) {
	hdr := make([]byte, 16)
	copy(hdr, "NOPE")
	binary.LittleEndian.PutUint32(hdr[4:8], 2)
	binary.LittleEndian.PutUint64(hdr[8:16], 1)
	if _, err := OpenFile(writeFile(t, hdr)); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestOpenFileMalformedShape(t *testing.T) {
	for _, tc := range []struct {
		name        string
		dims, count uint64
	}{
		{"zero dims", 0, 10},
		{"zero count", 2, 0},
	} {
		hdr := make([]byte, 16)
		copy(hdr, binaryMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(tc.dims))
		binary.LittleEndian.PutUint64(hdr[8:16], tc.count)
		if _, err := OpenFile(writeFile(t, hdr)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestReadBinaryImplausibleDims(t *testing.T) {
	hdr := make([]byte, 16)
	copy(hdr, binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], 1<<20)
	binary.LittleEndian.PutUint64(hdr[8:16], 1)
	if _, err := ReadBinary(bytes.NewReader(hdr)); err == nil {
		t.Error("implausible dims accepted")
	}
}

// A 16-byte upload whose header claims 2^40 points must fail on its first
// missing row without reserving memory for the claimed count: sizing the
// point slice from the header asked for 24 TiB, and a 2^30 claim ended a
// serving process with a fatal out-of-memory no handler can recover.
func TestReadBinaryHugeCountHeader(t *testing.T) {
	hdr := make([]byte, 16)
	copy(hdr, binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], 1)
	binary.LittleEndian.PutUint64(hdr[8:16], 1<<40)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("16-byte body claiming 2^40 points accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Errorf("decoding a 16-byte body allocated %d bytes, want < 8 MiB", grew)
	}
}

// A header that promises more rows than the file holds must fail the pass,
// not silently deliver a short dataset — on the streaming scan and on the
// concurrent range scan alike.
func TestFileBackedTruncatedRows(t *testing.T) {
	mem := MustInMemory([]geom.Point{{1, 2}, {3, 4}, {5, 6}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, mem); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, buf.Bytes()[:buf.Len()-8])
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatalf("header itself is intact, open should succeed: %v", err)
	}
	if err := Scan(fb, func(geom.Point) error { return nil }); err == nil {
		t.Error("Scan completed over truncated rows")
	}
	if err := fb.ScanRange(0, fb.Len(), func(geom.Point) error { return nil }); err == nil {
		t.Error("ScanRange completed over truncated rows")
	}
	if err := ScanBlocks(fb, ScanConfig{BlockSize: 2, Parallelism: 4}, func(int, int, []geom.Point) error { return nil }); err == nil {
		t.Error("ScanBlocks completed over truncated rows")
	}
}

func TestAppendValidation(t *testing.T) {
	mem := MustInMemory([]geom.Point{{1, 2}})
	if err := mem.Append(geom.Point{3, 4, 5}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := mem.Append(geom.Point{math.NaN(), 0}); err == nil {
		t.Error("non-finite coordinate accepted")
	}
	// Validation is all-or-nothing: a valid point ahead of an invalid one
	// must not land.
	if err := mem.Append(geom.Point{3, 4}, geom.Point{5}); err == nil {
		t.Error("batch with invalid tail accepted")
	}
	if mem.Len() != 1 {
		t.Errorf("len = %d after rejected appends, want 1", mem.Len())
	}
	if err := mem.Append(geom.Point{3, 4}); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 2 {
		t.Errorf("len = %d after valid append, want 2", mem.Len())
	}
}
