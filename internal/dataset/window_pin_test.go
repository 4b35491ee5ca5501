package dataset

import (
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
)

// TestWindowOutOfRangeLoudError: a window over a bad range must fail at
// construction with an error naming the range, never clamp silently.
func TestWindowOutOfRangeLoudError(t *testing.T) {
	ds := MustInMemory(testPoints(10, 2))
	for _, c := range []struct{ start, end int }{
		{-1, 5}, {3, 2}, {0, 11}, {11, 11},
	} {
		_, err := Window(ds, c.start, c.end)
		if err == nil {
			t.Errorf("Window(%d, %d) over 10 rows accepted", c.start, c.end)
			continue
		}
		if !strings.Contains(err.Error(), "out of") {
			t.Errorf("Window(%d, %d) error does not name the range: %v", c.start, c.end, err)
		}
	}
}

// pinCount reads the SegmentFile's outstanding pin count under its lock.
func pinCount(sf *SegmentFile) int {
	sf.mapMu.Lock()
	defer sf.mapMu.Unlock()
	return sf.pins
}

// mapsHeld reports whether the SegmentFile still holds any mappings.
func mapsHeld(sf *SegmentFile) bool {
	sf.mapMu.Lock()
	defer sf.mapMu.Unlock()
	return len(sf.maps) > 0
}

// newMappedSegment creates a mapped SegmentFile over pts, skipping the
// test when the platform cannot mmap.
func newMappedSegment(t *testing.T, pts []geom.Point) *SegmentFile {
	t.Helper()
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	path := filepath.Join(t.TempDir(), "seg.dbs")
	sf, err := CreateSegmented(path, MustInMemory(pts))
	if err != nil {
		t.Fatal(err)
	}
	if sf.Points() == nil {
		sf.Close()
		t.Skip("segment file did not map")
	}
	return sf
}

// windowThenClose builds a pinned window over sf, closes sf underneath it,
// and proves the window still reads the right rows afterwards. It returns
// nothing so the window is unreachable when it returns — the caller can
// then observe the finalizer-driven pin release.
func windowThenClose(t *testing.T, sf *SegmentFile, pts []geom.Point, start, end int) {
	t.Helper()
	w, err := Window(sf, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.(Sliceable); !ok {
		t.Fatal("window over a mapped segment is not Sliceable")
	}
	if got := pinCount(sf); got != 1 {
		t.Fatalf("pins after Window = %d, want 1", got)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	// The parent is closed: direct scans fail loudly...
	if err := Scan(sf, func(geom.Point) error { return nil }); err == nil {
		t.Fatal("scan of closed segment file succeeded")
	}
	// ...but the pin kept the mapping alive for the window.
	if !mapsHeld(sf) {
		t.Fatal("mappings released while a pinned window is live")
	}
	want := pts[start:end]
	if got := w.(Sliceable).Points(); len(got) != len(want) {
		t.Fatalf("pinned window has %d rows, want %d", len(got), len(want))
	}
	got := scanAll(t, w)
	if len(got) != len(want) {
		t.Fatalf("scan of pinned window after close: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d after close = %v, want %v", i, got[i], want[i])
		}
	}
	// The range path works too, re-offset into the window.
	var first geom.Point
	err = w.ScanRange(1, 2, func(p geom.Point) error {
		first = p.Clone()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(want[1]) {
		t.Fatalf("ScanRange(1,2) after close = %v, want %v", first, want[1])
	}
}

// TestWindowPinSurvivesClose: closing a mapped SegmentFile under a live
// window must not unmap its rows; dropping the window releases the pin and
// the deferred unmap runs.
func TestWindowPinSurvivesClose(t *testing.T) {
	pts := testPoints(600, 3)
	sf := newMappedSegment(t, pts)
	windowThenClose(t, sf, pts, 100, 500)

	// The window is unreachable now: its finalizer drops the last pin and
	// the close-deferred munmap runs.
	deadline := time.Now().Add(5 * time.Second)
	for pinCount(sf) != 0 || mapsHeld(sf) {
		if time.Now().After(deadline) {
			t.Fatalf("pin not released after GC: pins=%d mapsHeld=%v", pinCount(sf), mapsHeld(sf))
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestWindowCloseRace hammers reads of a pinned window while the parent
// closes concurrently (run under -race): every read must see the correct
// rows throughout — before, during, and after the close — because the pin
// defers the munmap, and the pin/close handshake itself must be clean.
func TestWindowCloseRace(t *testing.T) {
	pts := testPoints(800, 2)
	sf := newMappedSegment(t, pts)
	defer sf.Close() // idempotent; the race closes it first

	const start, end = 50, 750
	w, err := Window(sf, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.(Sliceable); !ok {
		t.Fatal("window over a mapped segment is not Sliceable")
	}
	want := pts[start:end]

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Alternate the slice path and the scan path.
				if i%2 == 0 {
					got := w.(Sliceable).Points()
					probe := (r*131 + i*17) % len(want)
					if !got[probe].Equal(want[probe]) {
						errs <- errRowMismatch(probe)
						return
					}
				} else {
					n := 0
					err := Scan(w, func(p geom.Point) error {
						if !p.Equal(want[n]) {
							return errRowMismatch(n)
						}
						n++
						return nil
					})
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}

	time.Sleep(2 * time.Millisecond)
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !mapsHeld(sf) {
		t.Fatal("mappings released while the pinned window is still live")
	}
}

type errRowMismatch int

func (e errRowMismatch) Error() string { return "pinned window row mismatch" }
