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

	"repro/internal/geom"
)

// Binary file format: a fixed little-endian header followed by packed
// float64 coordinates. The format exists so the cmd/ tools can hand large
// generated datasets between processes without re-generating them, and so
// a file-backed Dataset can stream passes at disk speed the way the
// paper's sequential scans do.
//
//	offset 0: magic "DBS1" (4 bytes)
//	offset 4: uint32 dims
//	offset 8: uint64 count
//	offset 16: count*dims float64s, row major
//
// Bytes after the declared rows are ignored. DBS2 (segment.go) is this
// layout under its own magic, with more segments allowed after the first.
const (
	binaryMagic  = "DBS1"
	segmentMagic = "DBS2"

	// maxDims bounds the dims a binary header may declare.
	maxDims = 1 << 16

	// maxReserveRows caps the point slice ReadBinary reserves before
	// reading any row (4096 slice headers, 96 KiB).
	maxReserveRows = 4096
)

// head is the 8 bytes both formats open with: the magic and the dims.
func head(magic string, dims int) []byte {
	return binary.LittleEndian.AppendUint32([]byte(magic), uint32(dims))
}

// readHead is the header check every binary reader shares, over a file's
// first 16 bytes: a DBS1 or DBS2 magic, 1 ≤ dims ≤ maxDims, and a first
// row count that readCount accepts. Whether every declared row is present
// is the caller's to check: ReadBinary reads them, Open sizes the file.
func readHead(hdr []byte) (magic string, dims, count int, err error) {
	magic = string(hdr[:4])
	if magic != binaryMagic && magic != segmentMagic {
		return "", 0, 0, fmt.Errorf("dataset: bad magic %q", hdr[:4])
	}
	dims = int(binary.LittleEndian.Uint32(hdr[4:8]))
	if dims <= 0 || dims > maxDims {
		return "", 0, 0, fmt.Errorf("dataset: implausible dims %d", dims)
	}
	count, err = readCount(hdr[8:16], dims)
	return magic, dims, count, err
}

// readCount checks one row count, DBS1's or a DBS2 segment prefix: it
// must be positive and its rows addressable in bytes.
func readCount(b []byte, dims int) (int, error) {
	count := binary.LittleEndian.Uint64(b)
	if count == 0 || count > uint64(math.MaxInt64/(8*dims)) {
		return 0, fmt.Errorf("dataset: implausible segment count %d", count)
	}
	return int(count), nil
}

// putRow encodes p into buf as packed little-endian float64s.
func putRow(buf []byte, p geom.Point) []byte {
	for i, v := range p {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// getRow decodes one packed row into p.
func getRow(p geom.Point, row []byte) {
	for j := range p {
		p[j] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*j:]))
	}
}

// writeSegment writes head, then ds as one segment: its row count and its
// rows (one pass).
func writeSegment(w io.Writer, head []byte, ds Dataset) error {
	if ds.Len() == 0 {
		return errors.New("dataset: empty dataset")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(binary.LittleEndian.AppendUint64(head, uint64(ds.Len()))); err != nil {
		return err
	}
	buf := make([]byte, 8*ds.Dims())
	err := Scan(ds, func(p geom.Point) error {
		_, werr := bw.Write(putRow(buf, p))
		return werr
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// WriteBinary streams ds into w in the DBS1 format (one pass).
func WriteBinary(w io.Writer, ds Dataset) error {
	return writeSegment(w, head(binaryMagic, ds.Dims()), ds)
}

// SaveBinary writes ds to the named file in the DBS1 format.
func SaveBinary(path string, ds Dataset) error { return saveFile(path, binaryMagic, ds) }

// saveFile writes ds to a new file at path behind the given magic, as one
// segment; on error the file is removed.
func saveFile(path, magic string, ds Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = writeSegment(f, head(magic, ds.Dims()), ds)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// ReadBinary loads a DBS1 stream fully into memory. It applies Open's
// header check, refuses a DBS2 stream, reads exactly the declared rows
// and ignores any bytes after them.
func ReadBinary(r io.Reader) (*InMemory, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	magic, dims, count, err := readHead(hdr)
	if err == nil && magic != binaryMagic {
		err = fmt.Errorf("dataset: bad magic %q", magic)
	}
	if err != nil {
		return nil, err
	}
	// The header's count is untrusted: reserve no more rows up front than
	// a small body could fill, and let append grow the slice as rows
	// actually arrive, so a short body claiming 2^40 points fails on its
	// first missing row instead of asking for terabytes.
	pts := make([]geom.Point, 0, min(count, maxReserveRows))
	row := make([]byte, 8*dims)
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(br, row); err != nil {
			return nil, fmt.Errorf("dataset: reading point %d: %w", i, err)
		}
		p := make(geom.Point, dims)
		getRow(p, row)
		pts = append(pts, p)
	}
	return NewInMemory(pts)
}

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
