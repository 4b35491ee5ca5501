package dataset

import (
	"bytes"
	"math"
	"testing"
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
