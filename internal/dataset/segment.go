package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
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
// Readers scan all segments; a file ending mid-segment (a torn append, a
// truncated copy) fails to open rather than silently dropping rows.
const segmentMagic = "DBS2"

// SegmentFile is an Appendable Dataset streaming from a segmented binary
// file. Like FileBacked, every scan opens a private handle; the segment
// index is held behind an atomic snapshot, so appends never disturb
// in-flight scans and a scan started before an append keeps its prefix.
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

// CreateSegmented writes ds into a new segmented file at path (one pass,
// one segment) and returns it opened.
func CreateSegmented(path string, ds Dataset) (*SegmentFile, error) {
	if ds.Len() == 0 {
		return nil, errors.New("dataset: empty dataset")
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	hdr := make([]byte, 16)
	copy(hdr, segmentMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(ds.Dims()))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(ds.Len()))
	if _, err := bw.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	buf := make([]byte, 8*ds.Dims())
	err = Scan(ds, func(p geom.Point) error {
		for i, v := range p {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		_, werr := bw.Write(buf)
		return werr
	})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return OpenSegmented(path)
}

// OpenSegmented validates a segmented dataset file — magic, dims, and
// that every segment's count prefix and rows are fully present — and
// returns it as a SegmentFile. A file truncated mid-segment (or
// mid-prefix) is an error; no reader may ever silently drop a segment.
func OpenSegmented(path string) (*SegmentFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 8)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("dataset: reading header of %s: %w", path, err)
	}
	if string(hdr[:4]) != segmentMagic {
		return nil, fmt.Errorf("dataset: %s: bad magic %q", path, hdr[:4])
	}
	dims := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if dims <= 0 || dims > 1<<16 {
		return nil, fmt.Errorf("dataset: %s: implausible dims %d", path, dims)
	}
	rowSize := int64(8 * dims)

	st := &segState{}
	total := 0
	off := int64(8)
	prefix := make([]byte, 8)
	for off < size {
		if off+8 > size {
			return nil, fmt.Errorf("dataset: %s: truncated segment prefix at offset %d", path, off)
		}
		if _, err := f.ReadAt(prefix, off); err != nil {
			return nil, fmt.Errorf("dataset: %s: segment prefix at offset %d: %w", path, off, err)
		}
		count := binary.LittleEndian.Uint64(prefix)
		if count == 0 || count > uint64(math.MaxInt64/rowSize) {
			return nil, fmt.Errorf("dataset: %s: implausible segment count %d at offset %d", path, count, off)
		}
		rows := int64(count) * rowSize
		if off+8+rows > size {
			return nil, fmt.Errorf("dataset: %s: truncated mid-segment: segment at offset %d declares %d rows but the file ends %d bytes short",
				path, off, count, off+8+rows-size)
		}
		total += int(count)
		st.counts = append(st.counts, total)
		st.offs = append(st.offs, off+8)
		off += 8 + rows
	}
	if len(st.counts) == 0 {
		return nil, fmt.Errorf("dataset: %s: no segments", path)
	}
	sf := &SegmentFile{path: path, dims: dims}
	sf.mapSegments(st)
	sf.state.Store(st)
	return sf, nil
}

// mapSegments memory-maps the file's validated extent and fills st.pts
// with row views aliasing the mapping, in dataset order. It is called on
// a snapshot that has not been published yet, so st is still private to
// the caller. On any failure — platform, alignment, a file shorter than
// the index promises — st.pts stays nil and readers use the decode path.
func (sf *SegmentFile) mapSegments(st *segState) {
	if mmapDisabled || !mmapSupported || len(st.counts) == 0 {
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
	rowSize := int64(8 * sf.dims)
	last := len(st.counts) - 1
	lastRows := st.counts[last]
	if last > 0 {
		lastRows -= st.counts[last-1]
	}
	need := st.offs[last] + int64(lastRows)*rowSize

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

	pts := make([]geom.Point, st.total())
	i, segStart := 0, 0
	for g, off := range st.offs {
		rows := st.counts[g] - segStart
		floats := unsafe.Slice((*float64)(unsafe.Pointer(&data[off])), rows*sf.dims)
		for r := 0; r < rows; r++ {
			pts[i] = geom.Point(floats[r*sf.dims : (r+1)*sf.dims : (r+1)*sf.dims])
			i++
		}
		segStart = st.counts[g]
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
	bw := bufio.NewWriterSize(f, 1<<16)
	prefix := make([]byte, 8)
	binary.LittleEndian.PutUint64(prefix, uint64(len(pts)))
	_, err = bw.Write(prefix)
	if err == nil {
		buf := make([]byte, 8*sf.dims)
		for _, p := range pts {
			for i, v := range p {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
			}
			if _, err = bw.Write(buf); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		// Roll the file back so a torn segment never becomes persistent.
		f.Truncate(oldSize)
		return err
	}

	old := sf.state.Load()
	st := &segState{
		counts: make([]int, len(old.counts)+1),
		offs:   make([]int64, len(old.offs)+1),
	}
	copy(st.counts, old.counts)
	copy(st.offs, old.offs)
	st.counts[len(old.counts)] = old.total() + len(pts)
	st.offs[len(old.offs)] = oldSize + 8
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
		segStart := 0
		if seg > 0 {
			segStart = st.counts[seg-1]
		}
		segEnd := st.counts[seg]
		stop := end
		if segEnd < stop {
			stop = segEnd
		}
		if _, err := f.Seek(st.offs[seg]+int64(i-segStart)*int64(rowSize), io.SeekStart); err != nil {
			return err
		}
		bufSize := (stop - i) * rowSize
		if bufSize > 1<<20 {
			bufSize = 1 << 20
		}
		br := bufio.NewReaderSize(f, bufSize)
		for ; i < stop; i++ {
			if _, err := io.ReadFull(br, row); err != nil {
				return fmt.Errorf("dataset: %s: point %d: %w", sf.path, i, err)
			}
			for j := range p {
				p[j] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*j:]))
			}
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

// Open opens a binary dataset file of either format, sniffing the magic:
// DBS1 yields an immutable FileBacked, DBS2 an appendable SegmentFile.
func Open(path string) (Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	magic := make([]byte, 4)
	_, rerr := io.ReadFull(f, magic)
	f.Close()
	if rerr != nil {
		return nil, fmt.Errorf("dataset: reading magic of %s: %w", path, rerr)
	}
	switch string(magic) {
	case binaryMagic:
		return OpenFile(path)
	case segmentMagic:
		return OpenSegmented(path)
	default:
		return nil, fmt.Errorf("dataset: %s: bad magic %q", path, magic)
	}
}
