package faults

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/parallel"
)

func testData(t *testing.T, n int) *dataset.InMemory {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{float64(i), float64(2 * i)}
	}
	ds, err := dataset.NewInMemory(pts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func drawKinds(seed uint64, site string, n int) []Kind {
	in := New(Config{Seed: seed, PError: 0.2, PDelay: 0.2, PPartial: 0.2, PCancel: 0.1})
	p := in.Point(site)
	out := make([]Kind, n)
	for i := range out {
		k, _, _ := p.next()
		out[i] = k
	}
	return out
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := drawKinds(42, "scan", 200)
	b := drawKinds(42, "scan", 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: %v vs %v — schedule not reproducible", i, a[i], b[i])
		}
	}
	c := drawKinds(43, "scan", 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 drew identical 200-op schedules")
	}
}

func TestSitesDrawIndependentSchedules(t *testing.T) {
	a := drawKinds(7, "scan", 200)
	b := drawKinds(7, "build", 200)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("sites scan and build drew identical 200-op schedules")
	}
}

func TestSkipExemptsEarlyOps(t *testing.T) {
	in := New(Config{Seed: 1, PError: 1, Skip: 5})
	p := in.Point("s")
	for i := 0; i < 5; i++ {
		if err := p.Check(context.Background()); err != nil {
			t.Fatalf("op %d within Skip failed: %v", i, err)
		}
	}
	if err := p.Check(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("op past Skip: err = %v, want ErrInjected", err)
	}
	if got := in.Injected(); got != 1 {
		t.Errorf("injected = %d, want 1", got)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	p := in.Point("anything")
	if p != nil {
		t.Fatal("nil injector returned a non-nil point")
	}
	if err := p.Check(context.Background()); err != nil {
		t.Fatalf("nil point Check: %v", err)
	}
	ds := testData(t, 10)
	if got := Wrap(ds, nil); got != dataset.Dataset(ds) {
		t.Error("Wrap with nil point did not return the dataset unchanged")
	}
	if in.Injected() != 0 {
		t.Error("nil injector counted injections")
	}
}

func TestInjectedErrorClassification(t *testing.T) {
	perr := (&Point{site: "s"}).errAt(KindError, 3)
	if !errors.Is(perr, ErrInjected) {
		t.Error("KindError does not match ErrInjected")
	}
	var te interface{ Temporary() bool }
	if !errors.As(perr, &te) || !te.Temporary() {
		t.Error("KindError is not Temporary")
	}
	if errors.Is(perr, parallel.ErrCanceled) {
		t.Error("KindError matches ErrCanceled")
	}
	cerr := (&Point{site: "s"}).errAt(KindCancel, 4)
	if !errors.Is(cerr, parallel.ErrCanceled) || !errors.Is(cerr, ErrInjected) {
		t.Errorf("KindCancel err = %v, want to match both ErrCanceled and ErrInjected", cerr)
	}
}

func TestWrapKeepsRangeScannerAndPasses(t *testing.T) {
	ds := testData(t, 100)
	w := Wrap(ds, New(Config{Seed: 1}).Point("scan"))
	if w.Len() != 100 || w.Dims() != 2 {
		t.Fatalf("len/dims = %d/%d, want 100/2", w.Len(), w.Dims())
	}
	// A fault-free block scan behaves exactly like the unwrapped one,
	// and the pass charge lands on the wrapped dataset.
	var n int
	err := dataset.ScanBlocks(w, dataset.ScanConfig{BlockSize: 32, Parallelism: 1}, func(block, start int, pts []geom.Point) error {
		n += len(pts)
		return nil
	})
	if err != nil || n != 100 {
		t.Fatalf("block scan: n = %d err = %v, want 100, nil", n, err)
	}
	if ds.Passes() != 1 {
		t.Errorf("underlying passes = %d, want 1", ds.Passes())
	}
}

// TestPartialScanNeverSilent drives scans under a partial-heavy schedule
// and checks the contract: a scan either delivers every point and
// returns nil, or returns an injected error — a short scan with a nil
// error would silently corrupt downstream results.
func TestPartialScanNeverSilent(t *testing.T) {
	const n = 64
	ds := testData(t, n)
	w := Wrap(ds, New(Config{Seed: 9, PPartial: 0.8}).Point("scan"))
	sawPartial := false
	for i := 0; i < 50; i++ {
		seen := 0
		err := dataset.Scan(w, func(geom.Point) error { seen++; return nil })
		switch {
		case err == nil:
			if seen != n {
				t.Fatalf("iter %d: nil error with %d/%d points — silent truncation", i, seen, n)
			}
		case errors.Is(err, ErrInjected):
			if seen >= n {
				t.Fatalf("iter %d: full scan but injected error", i)
			}
			sawPartial = true
		default:
			t.Fatalf("iter %d: unexpected error %v", i, err)
		}
	}
	if !sawPartial {
		t.Error("0.8 partial probability never fired in 50 scans")
	}
}

func TestScanRangeInjection(t *testing.T) {
	const n = 100
	w := Wrap(testData(t, n), New(Config{Seed: 3, PError: 0.5}).Point("scan"))
	failed := 0
	for i := 0; i < 40; i++ {
		seen := 0
		err := w.ScanRange(10, 60, func(geom.Point) error { seen++; return nil })
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("iter %d: unexpected error %v", i, err)
			}
			failed++
			continue
		}
		if seen != 50 {
			t.Fatalf("iter %d: clean range scan saw %d points, want 50", i, seen)
		}
	}
	if failed == 0 {
		t.Error("0.5 error probability never fired in 40 range scans")
	}
}

func TestCheckDelayHonorsContext(t *testing.T) {
	in := New(Config{Seed: 1, PDelay: 1, MaxDelay: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := in.Point("slow").Check(ctx)
	if !errors.Is(err, parallel.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled delay still took %v", elapsed)
	}
}

func TestCallbackErrorsPassThrough(t *testing.T) {
	w := Wrap(testData(t, 10), New(Config{Seed: 1, PPartial: 1}).Point("scan"))
	boom := errors.New("boom")
	err := dataset.Scan(w, func(geom.Point) error { return boom })
	// With cut 0 the injected error fires before the callback; with a
	// later cut the callback's own error must win. Either way the error
	// is never swallowed.
	if err == nil {
		t.Fatal("scan returned nil")
	}
	if !errors.Is(err, boom) && !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want boom or injected", err)
	}
}

// TestWrapOverAppendable: the wrapper is a pass-through view of a
// growing dataset. After the underlying dataset appends a generation,
// the wrapped handle reports the new length and a clean scan delivers
// every row — old and new — while faulted scans keep the
// never-silently-short contract. Windows cut over the wrapper (how the
// serving layer pins a generation) scan through the injection point too.
func TestWrapOverAppendable(t *testing.T) {
	ds := testData(t, 40)
	w := Wrap(ds, New(Config{Seed: 11, PPartial: 0.5}).Point("scan"))

	extra := make([]geom.Point, 20)
	for i := range extra {
		extra[i] = geom.Point{float64(100 + i), 0}
	}
	if err := ds.Append(extra...); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 60 {
		t.Fatalf("wrapped len = %d after append, want 60", w.Len())
	}

	sawClean, sawFault := false, false
	for i := 0; i < 50 && !(sawClean && sawFault); i++ {
		seen := 0
		err := dataset.Scan(w, func(geom.Point) error { seen++; return nil })
		switch {
		case err == nil:
			if seen != 60 {
				t.Fatalf("iter %d: nil error with %d/60 rows — silent truncation over appended data", i, seen)
			}
			sawClean = true
		case errors.Is(err, ErrInjected):
			sawFault = true
		default:
			t.Fatalf("iter %d: unexpected error %v", i, err)
		}
	}
	if !sawClean || !sawFault {
		t.Fatalf("schedule never produced both outcomes (clean=%v fault=%v)", sawClean, sawFault)
	}

	// A delta window over the wrapper: range scans hit the injection
	// point, and a clean pass sees exactly the appended rows.
	win, err := dataset.Window(w, 40, 60)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		var got []geom.Point
		err := dataset.Scan(win, func(p geom.Point) error { got = append(got, p); return nil })
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("iter %d: unexpected error %v", i, err)
			}
			continue
		}
		if len(got) != 20 || !got[0].Equal(extra[0]) || !got[19].Equal(extra[19]) {
			t.Fatalf("iter %d: clean delta scan got %d rows", i, len(got))
		}
	}
}

// TestWrapSegmentFileCloseSafety covers the mmap lifecycle under the
// wrapper: Wrap drops Sliceable (so block scans go through ScanRange, the
// decode-compatible path), scans through the wrapper match the raw file,
// and a scan after Close fails with a clean dataset.ErrClosed — never a
// read of unmapped memory.
func TestWrapSegmentFileCloseSafety(t *testing.T) {
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Point{float64(i), float64(3 * i)}
	}
	mem, err := dataset.NewInMemory(pts)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/seg.dbs"
	sf, err := dataset.CreateSegmented(path, mem)
	if err != nil {
		t.Fatal(err)
	}

	in := New(Config{Seed: 1}) // zero probabilities: wrapper only, no faults
	wrapped := Wrap(sf, in.Point("scan"))
	if _, ok := wrapped.(dataset.Sliceable); ok {
		t.Fatal("wrapper must not forward Sliceable")
	}

	got := make([]geom.Point, len(pts))
	err = dataset.ScanBlocks(wrapped, dataset.ScanConfig{BlockSize: 32, Parallelism: 1}, func(block, start int, bp []geom.Point) error {
		for i, p := range bp {
			got[start+i] = p.Clone()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if got[i] == nil || !got[i].Equal(pts[i]) {
			t.Fatalf("point %d = %v, want %v", i, got[i], pts[i])
		}
	}

	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	err = dataset.Scan(wrapped, func(geom.Point) error { return nil })
	if !errors.Is(err, dataset.ErrClosed) {
		t.Fatalf("scan after Close through wrapper: %v, want ErrClosed", err)
	}
	err = wrapped.ScanRange(0, 10, func(geom.Point) error { return nil })
	if !errors.Is(err, dataset.ErrClosed) {
		t.Fatalf("range scan after Close through wrapper: %v, want ErrClosed", err)
	}
}
