package dataset

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// FuzzReadUpload feeds the same arbitrary bytes to both upload decoders
// the serving layer exposes (POST /v1/datasets and both append routes).
// Neither may panic or exhaust memory, and whatever they accept must be
// exactly what a round trip writes back:
//
//   - a ReadBinary success re-encodes with WriteBinary to a prefix of the
//     input (the header's shape and every coordinate's bit pattern; bytes
//     past the last row are ignored);
//   - a ReadCSV success survives WriteCSV then ReadCSV with bit-identical
//     points.
//
// The seed corpus (testdata/fuzz/FuzzReadUpload) holds a valid DBS1 body,
// a truncated one, a 16-byte header claiming 2^40 points, a valid CSV
// file and a ragged one.
func FuzzReadUpload(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bounds one execution's work; it also keeps every re-encoded CSV
		// line (at most 25 bytes per field, against 2 in the input) within
		// ReadCSV's 1 MiB line limit.
		if len(data) > 64<<10 {
			return
		}
		if ds, err := ReadBinary(bytes.NewReader(data)); err == nil {
			var out bytes.Buffer
			if err := WriteBinary(&out, ds); err != nil {
				t.Fatalf("WriteBinary of a decoded body: %v", err)
			}
			if !bytes.HasPrefix(data, out.Bytes()) {
				t.Fatalf("DBS1 round trip: re-encoding (%d bytes) is not a prefix of the %d-byte input", out.Len(), len(data))
			}
		}
		ds, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, ds); err != nil {
			t.Fatalf("WriteCSV of a decoded body: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-reading WriteCSV output: %v", err)
		}
		a, b := ds.Points(), back.Points()
		if len(a) != len(b) {
			t.Fatalf("CSV round trip: %d points, then %d", len(a), len(b))
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				t.Fatalf("CSV round trip: point %d has %d dims, then %d", i, len(a[i]), len(b[i]))
			}
			for j := range a[i] {
				if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
					t.Fatalf("CSV round trip: point %d dim %d: %v became %v", i, j, a[i][j], b[i][j])
				}
			}
		}
	})
}

// FuzzOpenDataset writes arbitrary bytes to a file and opens it with Open,
// the one reader of both file formats. Open must not panic, and what it
// allocates must grow with the file, never with a count its header
// claims. A file it accepts must be sound:
//
//   - 1 ≤ Dims() ≤ 65,536 and 8·Dims()·Len() ≤ the file's size;
//   - a Scan and a ScanBlocks at parallelism 2 each deliver exactly Len()
//     rows, the same rows bit for bit;
//   - a DBS1 file that ReadBinary accepts opens with ReadBinary's rows,
//     and one that ReadBinary alone refuses holds a non-finite coordinate.
//
// The seed corpus (testdata/fuzz/FuzzOpenDataset) holds a DBS1 file and a
// two-segment DBS2 file, each whole and cut mid-row, and a 16-byte DBS1
// header claiming 2^40 rows.
func FuzzOpenDataset(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		path := filepath.Join(t.TempDir(), "fuzz.dbs")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ds, err := Open(path)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("opening a %d-byte file allocated %d bytes", len(data), grew)
		}
		mem, rerr := ReadBinary(bytes.NewReader(data))
		if err != nil {
			if rerr == nil {
				t.Fatalf("ReadBinary accepts what Open refuses: %v", err)
			}
			return
		}
		if c, ok := ds.(io.Closer); ok {
			defer c.Close()
		}
		n, d := ds.Len(), ds.Dims()
		if d < 1 || d > maxDims || 8*d*n > len(data) {
			t.Fatalf("opened %d rows of %d dims from %d bytes", n, d, len(data))
		}
		var rows []geom.Point
		if err := Scan(ds, func(p geom.Point) error {
			rows = append(rows, p.Clone())
			return nil
		}); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		blocks := make([]geom.Point, n)
		delivered := 0
		if err := ScanBlocks(ds, ScanConfig{BlockSize: 64, Parallelism: 2}, func(_, start int, pts []geom.Point) error {
			for i, p := range pts {
				blocks[start+i] = p.Clone()
			}
			return nil
		}); err != nil {
			t.Fatalf("ScanBlocks: %v", err)
		}
		for _, p := range blocks {
			if p != nil {
				delivered++
			}
		}
		if len(rows) != n || delivered != n {
			t.Fatalf("Len %d, Scan delivered %d rows, ScanBlocks %d", n, len(rows), delivered)
		}
		sameBits(t, "ScanBlocks", blocks, rows)
		if string(data[:4]) != binaryMagic {
			return
		}
		if rerr == nil {
			sameBits(t, "ReadBinary", mem.Points(), rows)
			return
		}
		for _, p := range rows {
			if !p.IsFinite() {
				return
			}
		}
		t.Fatalf("ReadBinary refuses a DBS1 file Open accepts with finite rows: %v", rerr)
	})
}

// sameBits fails unless got and want hold the same rows bit for bit.
func sameBits(t *testing.T, what string, got, want []geom.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d dims, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: row %d dim %d = %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}
