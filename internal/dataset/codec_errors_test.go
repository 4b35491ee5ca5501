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
	if _, err := Open(path); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestOpenFileBadMagic(t *testing.T) {
	hdr := make([]byte, 16)
	copy(hdr, "NOPE")
	binary.LittleEndian.PutUint32(hdr[4:8], 2)
	binary.LittleEndian.PutUint64(hdr[8:16], 1)
	if _, err := Open(writeFile(t, hdr)); err == nil {
		t.Error("bad magic accepted")
	}
}

// A malformed header fails at Open, and a 16-byte file claiming 2^40 rows
// or 2^28 dims fails without allocating for the claim (TestReadBinary-
// HugeCountHeader is the same rule for uploads).
func TestOpenFileMalformedShape(t *testing.T) {
	for _, tc := range []struct {
		name        string
		dims, count uint64
	}{
		{"zero dims", 0, 10},
		{"zero count", 2, 0},
		{"2^40 rows", 1, 1 << 40},
		{"2^28 dims", 1 << 28, 1},
	} {
		hdr := make([]byte, 16)
		copy(hdr, binaryMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(tc.dims))
		binary.LittleEndian.PutUint64(hdr[8:16], tc.count)
		path := writeFile(t, hdr)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Open(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
			t.Errorf("%s: opening a 16-byte file allocated %d bytes, want < 8 MiB", tc.name, grew)
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

// A header that promises more rows than the file holds must fail at Open,
// the way a DBS2 file cut mid-segment does, not open and then fail (or
// silently deliver a short dataset) on the first pass that reaches the
// missing rows.
func TestFileBackedTruncatedRows(t *testing.T) {
	mem := MustInMemory([]geom.Point{{1, 2}, {3, 4}, {5, 6}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, mem); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{8, 1} {
		path := writeFile(t, buf.Bytes()[:buf.Len()-cut])
		if ds, err := Open(path); err == nil {
			t.Errorf("DBS1 file cut %d bytes short of its 3 rows opened with %d rows", cut, ds.Len())
		}
	}
}

// OpenSegmented refuses a DBS1 file: Open reads a DBS1 file's declared
// rows only, so a segment appended behind its header would be dropped.
func TestOpenSegmentedRefusesDBS1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pts.dbs")
	if err := SaveBinary(path, MustInMemory([]geom.Point{{1, 2}})); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(path); err == nil {
		t.Error("OpenSegmented opened a DBS1 file")
	}
	ds, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.(Appendable); ok {
		t.Error("a DBS1 file opened Appendable")
	}
	if _, ok := ds.(Sliceable); ok {
		t.Error("a DBS1 file opened Sliceable")
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
