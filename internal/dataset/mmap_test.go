package dataset

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

// openBoth opens the same segmented file twice: once normally (mapped
// where the platform supports it) and once with mmap forced off, so tests
// can prove the two read paths byte-identical.
func openBoth(t *testing.T, path string) (mapped, decoded *SegmentFile) {
	t.Helper()
	mapped, err := OpenSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	mmapDisabled = true
	defer func() { mmapDisabled = false }()
	decoded, err = OpenSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { decoded.Close() })
	if decoded.Points() != nil {
		t.Fatal("mmapDisabled open still produced a mapping")
	}
	return mapped, decoded
}

func scanAll(t *testing.T, ds Dataset) []geom.Point {
	t.Helper()
	var out []geom.Point
	if err := Scan(ds, func(p geom.Point) error {
		out = append(out, p.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSegmentMmapDecodeParity(t *testing.T) {
	pts := testPoints(513, 3)
	path := filepath.Join(t.TempDir(), "seg.dbs")
	sf, err := CreateSegmented(path, MustInMemory(pts[:300]))
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Append(pts[300:]...); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}

	mapped, decoded := openBoth(t, path)
	if mmapSupported && mapped.Points() == nil {
		t.Fatal("platform supports mmap but the file is not mapped")
	}
	a, b := scanAll(t, mapped), scanAll(t, decoded)
	if len(a) != len(pts) || len(b) != len(pts) {
		t.Fatalf("lens %d/%d, want %d", len(a), len(b), len(pts))
	}
	for i := range pts {
		if !a[i].Equal(pts[i]) || !b[i].Equal(pts[i]) {
			t.Fatalf("point %d: mapped %v decoded %v want %v", i, a[i], b[i], pts[i])
		}
	}

	// The content fingerprint must not depend on the read path.
	fa, err := Fingerprint(mapped, 2)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Fingerprint(decoded, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("fingerprint mapped %016x != decoded %016x", fa, fb)
	}
}

func TestSegmentMmapAppendRemap(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	pts := testPoints(400, 2)
	path := filepath.Join(t.TempDir(), "seg.dbs")
	sf, err := CreateSegmented(path, MustInMemory(pts[:100]))
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()

	// Pin the pre-append snapshot; it must stay valid across remaps.
	before := sf.Points()
	if before == nil {
		t.Fatal("initial open not mapped")
	}
	if len(before) != 100 {
		t.Fatalf("snapshot len %d, want 100", len(before))
	}

	for _, chunk := range [][]geom.Point{pts[100:250], pts[250:]} {
		if err := sf.Append(chunk...); err != nil {
			t.Fatal(err)
		}
	}
	after := sf.Points()
	if len(after) != len(pts) {
		t.Fatalf("after appends: mapped %d rows, want %d", len(after), len(pts))
	}
	for i := range pts {
		if !after[i].Equal(pts[i]) {
			t.Fatalf("point %d = %v, want %v", i, after[i], pts[i])
		}
	}
	// The old mapping must not have been unmapped by the remaps: reading
	// through the pinned snapshot is still safe and still correct.
	for i := range before {
		if !before[i].Equal(pts[i]) {
			t.Fatalf("pinned snapshot point %d = %v, want %v", i, before[i], pts[i])
		}
	}
}

func TestSegmentTruncatedFileNotMapped(t *testing.T) {
	// A file truncated mid-segment must fail to open — on both paths.
	pts := testPoints(64, 2)
	path := filepath.Join(t.TempDir(), "seg.dbs")
	sf, err := CreateSegmented(path, MustInMemory(pts))
	if err != nil {
		t.Fatal(err)
	}
	sf.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-8); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(path); err == nil {
		t.Fatal("truncated file opened")
	}
	mmapDisabled = true
	defer func() { mmapDisabled = false }()
	if _, err := OpenSegmented(path); err == nil {
		t.Fatal("truncated file opened on the decode path")
	}
}

func TestSegmentCloseSemantics(t *testing.T) {
	pts := testPoints(50, 2)
	path := filepath.Join(t.TempDir(), "seg.dbs")
	sf, err := CreateSegmented(path, MustInMemory(pts))
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := sf.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if sf.Points() != nil {
		t.Fatal("Points non-nil after Close")
	}
	if err := Scan(sf, func(geom.Point) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after Close: %v, want ErrClosed", err)
	}
	if err := sf.ScanRange(0, 10, func(geom.Point) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("ScanRange after Close: %v, want ErrClosed", err)
	}
	if err := sf.Append(pts[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	// Len/Dims stay answerable from the retained index.
	if sf.Len() != len(pts) || sf.Dims() != 2 {
		t.Fatalf("Len/Dims after Close = %d/%d", sf.Len(), sf.Dims())
	}
}
