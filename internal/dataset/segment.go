package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/geom"
)

// Segmented file format: an append-friendly variant of the DBS1 codec.
// Instead of one global count in the header, the file is a sequence of
// length-prefixed segments, so Append writes a new segment at the end of
// the file without rewriting anything — the on-disk analogue of
// InMemory's generations (segment g holds exactly generation g's delta).
//
//	offset 0: magic "DBS2" (4 bytes)
//	offset 4: uint32 dims
//	then one or more segments, each:
//	    uint64 count (> 0)
//	    count*dims float64s, row major
//
// A DBS1 file is the same layout with one segment, so one index parser
// (openFile) reads both. Readers scan all segments; a file ending
// mid-segment (a torn append, a truncated copy) fails to open rather than
// silently dropping rows.

// SegmentFile is an Appendable Dataset streaming from a binary file; Open
// hides Append, and never maps, when the file is DBS1. Every unmapped scan
// opens a private handle; the segment index is held behind an atomic
// snapshot, so appends never disturb in-flight scans and a scan started
// before an append keeps its prefix.
//
// On platforms with mmap support the file is memory-mapped read-only and
// SegmentFile additionally implements Sliceable: Points returns row views
// aliasing the page cache, so block scans are zero-copy — no decode pass,
// no per-open allocation. Every row in the DBS2 format sits at an 8-byte
// aligned offset (the header and each segment prefix are 8-byte multiples),
// which is what makes the reinterpretation sound. When mapping is
// unavailable (platform, alignment, or any mmap failure) Points returns
// nil and every reader falls back to the decode path with identical
// results.
//
// Close releases the mappings. The caller must guarantee no scan is in
// flight and no earlier Points slice is still referenced — the serving
// registry's refcount provides exactly that — after which reads and
// appends fail with ErrClosed.
type SegmentFile struct {
	path   string
	dims   int
	passes atomic.Int64

	mu    sync.Mutex // serializes Append
	state atomic.Pointer[segState]

	mapMu  sync.Mutex // guards maps, closed, and pins
	maps   [][]byte   // every live mapping; appends remap, Close frees all
	closed bool
	pins   int // outstanding PinPoints holds; Close defers munmap while > 0

	fp fpMemo
}

// mmapDisabled forces the decode path when set; it exists so tests can
// exercise fallback behavior and prove it byte-identical to the mapped
// path.
var mmapDisabled bool

// ErrClosed is returned by reads and appends on a SegmentFile after Close.
var ErrClosed = errors.New("dataset: use after Close")

// segState is an immutable snapshot of the segment index. counts[g] is
// the cumulative row count through segment g; offs[g] is the byte offset
// of segment g's first row (just past its count prefix). pts, when
// non-nil, holds one row view per point aliasing the current memory
// mapping; it is built before the snapshot is published and never mutated
// after.
type segState struct {
	counts []int
	offs   []int64
	pts    []geom.Point
}

func (st *segState) total() int { return st.counts[len(st.counts)-1] }

// first is the index of segment g's first row.
func (st *segState) first(g int) int {
	if g == 0 {
		return 0
	}
	return st.counts[g-1]
}

// CreateSegmented writes ds into a new segmented file at path (one pass,
// one segment) and returns it opened.
func CreateSegmented(path string, ds Dataset) (*SegmentFile, error) {
	if err := saveFile(path, segmentMagic, ds); err != nil {
		return nil, err
	}
	return OpenSegmented(path)
}

// openFile is the one index parser of both file formats. It applies
// readHead's check, then checks that every declared row is present: a
// DBS1 file is one segment, and the bytes after its declared rows are
// ignored as ReadBinary ignores them; a DBS2 file is segments up to its
// last byte, and one cut mid-prefix or mid-segment is an error. What it
// allocates grows with the file's segments, never with a count it
// declares. A DBS2 file is memory-mapped where the platform allows; a
// DBS1 file never is.
func openFile(path string) (sf *SegmentFile, dbs1 bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, false, err
	}
	b := make([]byte, 16)
	if _, err := f.ReadAt(b, 0); err != nil {
		return nil, false, fmt.Errorf("dataset: %s: reading header: %w", path, err)
	}
	magic, dims, count, err := readHead(b)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	rowSize := int64(8 * dims)
	st := &segState{}
	for off := int64(8); ; {
		rows := int64(count) * rowSize
		if rows > size-off-8 {
			return nil, false, fmt.Errorf("dataset: %s: truncated mid-segment: segment at offset %d declares %d rows but only %d bytes follow",
				path, off, count, size-off-8)
		}
		st.counts = append(st.counts, st.first(len(st.counts))+count)
		st.offs = append(st.offs, off+8)
		off += 8 + rows
		if magic == binaryMagic || off == size {
			break
		}
		if _, err := f.ReadAt(b[:8], off); err != nil {
			return nil, false, fmt.Errorf("dataset: %s: truncated segment prefix at offset %d: %w", path, off, err)
		}
		if count, err = readCount(b[:8], dims); err != nil {
			return nil, false, fmt.Errorf("%s: %w at offset %d", path, err, off)
		}
	}
	sf = &SegmentFile{path: path, dims: dims}
	if magic == segmentMagic {
		sf.mapSegments(st)
	}
	sf.state.Store(st)
	return sf, magic == binaryMagic, nil
}

// Open opens a binary dataset file of either format through openFile. A
// DBS2 file opens as an appendable *SegmentFile. A DBS1 file opens as its
// one unmapped segment behind a view exposing only the Dataset methods,
// so it is neither Appendable nor Sliceable: it never grows and is never
// resident.
func Open(path string) (Dataset, error) {
	sf, dbs1, err := openFile(path)
	if err != nil {
		return nil, err
	}
	if dbs1 {
		return readOnly{sf}, nil
	}
	return sf, nil
}

// readOnly exposes only the Dataset methods of the dataset it wraps.
type readOnly struct{ Dataset }

// OpenSegmented opens a DBS2 file as an appendable SegmentFile. It
// refuses a DBS1 file: Open reads a DBS1 file's declared rows only, so a
// segment appended behind its header would be silently dropped.
func OpenSegmented(path string) (*SegmentFile, error) {
	sf, dbs1, err := openFile(path)
	if err == nil && dbs1 {
		return nil, fmt.Errorf("dataset: %s: a DBS1 file cannot be opened for appending", path)
	}
	return sf, err
}

// mapSegments memory-maps the file's validated extent and fills st.pts
// with row views aliasing the mapping, in dataset order. It is called on
// a snapshot that has not been published yet, so st is still private to
// the caller. On any failure — platform, alignment, a file shorter than
// the index promises — st.pts stays nil and readers use the decode path.
func (sf *SegmentFile) mapSegments(st *segState) {
	if mmapDisabled || !mmapSupported {
		return
	}
	for _, off := range st.offs {
		if off%8 != 0 {
			// Never reinterpret unaligned bytes as float64s. The DBS2
			// layout keeps every offset 8-aligned; this guards corrupt or
			// future-variant files.
			return
		}
	}
	last := len(st.counts) - 1
	need := st.offs[last] + int64(st.counts[last]-st.first(last))*int64(8*sf.dims)

	f, err := os.Open(sf.path)
	if err != nil {
		return
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil || size < need {
		f.Close()
		return
	}
	data, err := mmapFile(f, need)
	f.Close()
	if err != nil {
		return
	}
	sf.mapMu.Lock()
	if sf.closed {
		sf.mapMu.Unlock()
		munmapFile(data)
		return
	}
	sf.maps = append(sf.maps, data)
	sf.mapMu.Unlock()

	pts := make([]geom.Point, 0, st.total())
	for g, off := range st.offs {
		rows := st.counts[g] - len(pts)
		floats := unsafe.Slice((*float64)(unsafe.Pointer(&data[off])), rows*sf.dims)
		for r := 0; r < rows; r++ {
			pts = append(pts, floats[r*sf.dims:(r+1)*sf.dims:(r+1)*sf.dims])
		}
	}
	st.pts = pts
}

// Points implements Sliceable when the file is memory-mapped: row views
// straight into the page cache, a stable snapshot exactly like InMemory's
// (an append publishes a longer slice; it never mutates this one). It
// returns nil when the file is not mapped, which block scans treat as
// "use the decode path".
func (sf *SegmentFile) Points() []geom.Point { return sf.state.Load().pts }

// PinPoints implements PinnedSliceable: the current mapped snapshot with a
// pin held against unmapping, so a window view handed out before Close
// never reads released memory. The pin is taken atomically with the closed
// check; a closed or unmapped file returns (nil, nil) and holds nothing.
// release is idempotent; the last release after Close performs the
// deferred munmap.
func (sf *SegmentFile) PinPoints() ([]geom.Point, func()) {
	sf.mapMu.Lock()
	defer sf.mapMu.Unlock()
	if sf.closed {
		return nil, nil
	}
	pts := sf.state.Load().pts
	if pts == nil {
		return nil, nil
	}
	sf.pins++
	var once sync.Once
	return pts, func() { once.Do(sf.unpin) }
}

// unpin drops one pin; if the file was closed while pins were outstanding,
// the last unpin releases the mappings Close deferred.
func (sf *SegmentFile) unpin() {
	sf.mapMu.Lock()
	sf.pins--
	var maps [][]byte
	if sf.closed && sf.pins == 0 {
		maps = sf.maps
		sf.maps = nil
	}
	sf.mapMu.Unlock()
	for _, m := range maps {
		munmapFile(m)
	}
}

// Close marks the dataset closed — subsequent scans and appends fail with
// ErrClosed — and unmaps every mapping the file holds once no PinPoints
// hold is outstanding. With pins outstanding (a live window view), the
// mappings survive until the last release so pinned readers never touch
// unmapped memory; everything else observes the closed state immediately.
// Close is idempotent.
func (sf *SegmentFile) Close() error {
	sf.mapMu.Lock()
	already := sf.closed
	sf.closed = true
	var maps [][]byte
	if sf.pins == 0 {
		maps = sf.maps
		sf.maps = nil
	}
	sf.mapMu.Unlock()
	if already {
		return nil
	}
	old := sf.state.Load()
	sf.state.Store(&segState{counts: old.counts, offs: old.offs})
	var err error
	for _, m := range maps {
		if e := munmapFile(m); e != nil && err == nil {
			err = e
		}
	}
	return err
}

func (sf *SegmentFile) isClosed() bool {
	sf.mapMu.Lock()
	defer sf.mapMu.Unlock()
	return sf.closed
}

// Append writes pts as a new segment at the end of the file and publishes
// the grown index. Appends are serialized; scans (which snapshot the
// index) are never blocked, and a scan in flight keeps the length it
// started with. On a write error the file is truncated back to its prior
// size so it stays openable.
func (sf *SegmentFile) Append(pts ...geom.Point) error {
	if len(pts) == 0 {
		return errors.New("dataset: empty append")
	}
	if err := checkPoints(pts, sf.dims); err != nil {
		return err
	}
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.isClosed() {
		return ErrClosed
	}

	f, err := os.OpenFile(sf.path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	oldSize, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if err := writeSegment(f, nil, MustInMemory(pts)); err != nil {
		// Roll the file back so a torn segment never becomes persistent.
		f.Truncate(oldSize)
		return err
	}

	old := sf.state.Load()
	st := &segState{
		counts: append(slices.Clip(old.counts), old.total()+len(pts)),
		offs:   append(slices.Clip(old.offs), oldSize+8),
	}
	// Remap the grown file before publishing. The previous mapping stays
	// alive (sf.maps) until Close, so row views handed out from the old
	// snapshot remain valid for readers that pinned it.
	sf.mapSegments(st)
	sf.state.Store(st)
	return nil
}

// ScanRange implements Dataset with a private handle per call. The range
// is resolved against the index snapshot at call time.
func (sf *SegmentFile) ScanRange(start, end int, fn func(p geom.Point) error) error {
	st := sf.state.Load()
	if err := checkRange(start, end, st.total()); err != nil {
		return err
	}
	if start == end {
		return nil
	}
	if pts := st.pts; pts != nil {
		// Mapped: serve the rows straight from the page cache. Decoded and
		// mapped reads see the same little-endian float64 bytes, so the two
		// paths are byte-identical.
		return eachPoint(pts[start:end], fn)
	}
	if sf.isClosed() {
		return ErrClosed
	}
	f, err := os.Open(sf.path)
	if err != nil {
		return err
	}
	defer f.Close()
	rowSize := 8 * sf.dims
	row := make([]byte, rowSize)
	p := make(geom.Point, sf.dims)

	// First segment whose cumulative count exceeds start.
	seg := sort.SearchInts(st.counts, start+1)
	for i := start; i < end; {
		stop := min(end, st.counts[seg])
		if _, err := f.Seek(st.offs[seg]+int64((i-st.first(seg))*rowSize), io.SeekStart); err != nil {
			return err
		}
		br := bufio.NewReaderSize(f, min((stop-i)*rowSize, 1<<20))
		for ; i < stop; i++ {
			if _, err := io.ReadFull(br, row); err != nil {
				return fmt.Errorf("dataset: %s: point %d: %w", sf.path, i, err)
			}
			getRow(p, row)
			if err := fn(p); err != nil {
				return stopToNil(err)
			}
		}
		seg++
	}
	return nil
}

// Len implements Dataset (the current snapshot's total).
func (sf *SegmentFile) Len() int { return sf.state.Load().total() }

// Dims implements Dataset.
func (sf *SegmentFile) Dims() int { return sf.dims }

// Passes implements Dataset.
func (sf *SegmentFile) Passes() int { return int(sf.passes.Load()) }

// AddPass implements Dataset.
func (sf *SegmentFile) AddPass() { sf.passes.Add(1) }

// Generation implements Appendable: segment g holds generation g's delta.
func (sf *SegmentFile) Generation() uint64 {
	return uint64(len(sf.state.Load().counts) - 1)
}

// GenLen implements Appendable. It panics when g exceeds the current
// generation.
func (sf *SegmentFile) GenLen(g uint64) int {
	counts := sf.state.Load().counts
	if g >= uint64(len(counts)) {
		panic(fmt.Sprintf("dataset: generation %d beyond current %d", g, len(counts)-1))
	}
	return counts[g]
}

// GenFingerprint implements Appendable; see InMemory.GenFingerprint.
func (sf *SegmentFile) GenFingerprint(g uint64, parallelism int) (uint64, error) {
	return sf.fp.at(sf, g, parallelism)
}
