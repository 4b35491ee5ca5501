package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/geom"
)

// Binary file format: a fixed little-endian header followed by packed
// float64 coordinates. The format exists so the cmd/ tools can hand large
// generated datasets between processes without re-generating them, and so
// the file-backed Dataset can stream passes at disk speed the way the
// paper's sequential scans do.
//
//	offset 0: magic "DBS1" (4 bytes)
//	offset 4: uint32 dims
//	offset 8: uint64 count
//	offset 16: count*dims float64s, row major
const binaryMagic = "DBS1"

// maxReserveRows caps the point slice ReadBinary reserves before reading
// any row (4096 slice headers, 96 KiB).
const maxReserveRows = 4096

// WriteBinary streams ds into w in the binary format (one pass).
func WriteBinary(w io.Writer, ds Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ds.Dims()))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(ds.Len()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 8*ds.Dims())
	err := Scan(ds, func(p geom.Point) error {
		for i, v := range p {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		_, werr := bw.Write(buf)
		return werr
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// SaveBinary writes ds to the named file.
func SaveBinary(path string, ds Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, ds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinary loads a binary-format dataset fully into memory.
func ReadBinary(r io.Reader) (*InMemory, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	dims := int(binary.LittleEndian.Uint32(hdr[0:4]))
	count := binary.LittleEndian.Uint64(hdr[4:12])
	if dims <= 0 || dims > 1<<16 {
		return nil, fmt.Errorf("dataset: implausible dims %d", dims)
	}
	if count == 0 {
		return nil, errors.New("dataset: empty binary dataset")
	}
	// The header's count is untrusted: reserve no more rows up front than
	// a small body could fill, and let append grow the slice as rows
	// actually arrive, so a short body claiming 2^40 points fails on its
	// first missing row instead of asking for terabytes.
	pts := make([]geom.Point, 0, min(count, maxReserveRows))
	row := make([]byte, 8*dims)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, row); err != nil {
			return nil, fmt.Errorf("dataset: reading point %d: %w", i, err)
		}
		p := make(geom.Point, dims)
		for j := range p {
			p[j] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*j:]))
		}
		pts = append(pts, p)
	}
	return NewInMemory(pts)
}

// FileBacked is a Dataset that streams passes directly from a binary file,
// holding only one point in memory at a time. It models the paper's setting
// of datasets too large to materialize. Each scan opens its own handle and
// the pass counter is atomic, so one FileBacked may serve concurrent scans.
type FileBacked struct {
	path   string
	dims   int
	count  int
	passes atomic.Int64
}

// OpenFile validates the header of a binary dataset file and returns a
// FileBacked view over it.
func OpenFile(path string) (*FileBacked, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("dataset: reading header of %s: %w", path, err)
	}
	if string(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("dataset: %s: bad magic %q", path, hdr[:4])
	}
	dims := int(binary.LittleEndian.Uint32(hdr[4:8]))
	count := int(binary.LittleEndian.Uint64(hdr[8:16]))
	if dims <= 0 || count <= 0 {
		return nil, fmt.Errorf("dataset: %s: empty or malformed", path)
	}
	return &FileBacked{path: path, dims: dims, count: count}, nil
}

// ScanRange implements Dataset by opening a private handle, seeking to
// the range start, and streaming the rows through a buffered reader, so
// concurrent block scans each read ahead within their own region of the
// file instead of interleaving one-point reads.
func (fb *FileBacked) ScanRange(start, end int, fn func(p geom.Point) error) error {
	if err := checkRange(start, end, fb.count); err != nil {
		return err
	}
	if start == end {
		return nil
	}
	f, err := os.Open(fb.path)
	if err != nil {
		return err
	}
	defer f.Close()
	rowSize := 8 * fb.dims
	if _, err := f.Seek(int64(16+start*rowSize), io.SeekStart); err != nil {
		return err
	}
	bufSize := (end - start) * rowSize
	if bufSize > 1<<20 {
		bufSize = 1 << 20
	}
	br := bufio.NewReaderSize(f, bufSize)
	row := make([]byte, rowSize)
	p := make(geom.Point, fb.dims)
	for i := start; i < end; i++ {
		if _, err := io.ReadFull(br, row); err != nil {
			return fmt.Errorf("dataset: %s: point %d: %w", fb.path, i, err)
		}
		for j := range p {
			p[j] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*j:]))
		}
		if err := fn(p); err != nil {
			return stopToNil(err)
		}
	}
	return nil
}

// Len implements Dataset.
func (fb *FileBacked) Len() int { return fb.count }

// Dims implements Dataset.
func (fb *FileBacked) Dims() int { return fb.dims }

// Passes implements Dataset.
func (fb *FileBacked) Passes() int { return int(fb.passes.Load()) }

// AddPass implements Dataset.
func (fb *FileBacked) AddPass() { fb.passes.Add(1) }

// WriteCSV streams ds as comma-separated rows, one point per line, for
// interoperability with plotting tools.
func WriteCSV(w io.Writer, ds Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	err := Scan(ds, func(p geom.Point) error {
		for i, v := range p {
			if i > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		return bw.WriteByte('\n')
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses comma-separated rows into an in-memory dataset. Blank
// lines and lines starting with '#' are skipped.
func ReadCSV(r io.Reader) (*InMemory, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var pts []geom.Point
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		p := make(geom.Point, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: csv line %d field %d: %w", line, i+1, err)
			}
			p[i] = v
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewInMemory(pts)
}
