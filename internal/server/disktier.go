package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kde"
)

// DiskTier is the persistent artifact tier under the in-memory LRU:
// estimator and sample artifacts (the DBSK1/DBSS1 codecs) are written
// to content-addressed files keyed on the same fingerprint|params|seed
// cache key the memory tier uses. A restarted server — or a fresh
// replica pointed at a shared directory — finds the artifact on disk
// and skips the dataset passes entirely (`X-DBS-Cache: disk`). The tier
// is the only code that knows the artifact file format. Stored densities
// (densPrefix keys) stay in memory: load never looks for them, and store
// writes no other kind than the two above.
//
// Each artifact is one file named sha256(key) + ".dbsa":
//
//	offset 0: magic "DBSA1" (5 bytes)
//	then:     uint32 key length, the key bytes (collision guard: a hash
//	          match with a different key is treated as a miss)
//	then:     the codec payload, verbatim
//
// Writes go through a temp file + rename, so readers never observe a
// partial artifact and a crash mid-write leaves only a stray .tmp that
// the next prune sweeps. A load refreshes the file's modification time,
// so pruning drops the least recently used artifacts. The tier is
// best-effort by design: every failure path (unreadable file, corrupt
// header or payload, full disk) degrades to a cache miss, never to a
// request error.
type DiskTier struct {
	dir      string
	maxBytes int64

	pruneMu sync.Mutex

	hits   atomic.Int64
	misses atomic.Int64
	stores atomic.Int64
	errs   atomic.Int64
}

const diskMagic = "DBSA1"

// NewDiskTier opens (creating if needed) the artifact directory,
// bounded to maxBytes of stored artifacts (≤ 0 means unbounded). It
// fails, naming the directory, when the directory cannot be created or
// cannot take a file — a tier that silently failed every store would
// look enabled and never serve.
func NewDiskTier(dir string, maxBytes int64) (*DiskTier, error) {
	if dir == "" {
		return nil, fmt.Errorf("server: disk tier needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: disk tier %s: %w", dir, err)
	}
	probe, err := os.CreateTemp(dir, "probe-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("server: disk tier %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return &DiskTier{dir: dir, maxBytes: maxBytes}, nil
}

func (d *DiskTier) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+".dbsa")
}

// load returns the artifact stored under key, decoded by the codec its
// payload names, with its accounted size. Any miss or failure returns
// ok=false, and a corrupt or undecodable file is deleted so the slot
// heals on the next store.
func (d *DiskTier) load(key string) (v any, size int64, ok bool) {
	if d == nil || strings.HasPrefix(key, densPrefix) {
		return nil, 0, false
	}
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			d.errs.Add(1)
		}
		d.misses.Add(1)
		return nil, 0, false
	}
	hdr := len(diskMagic) + 4
	if len(data) < hdr || string(data[:len(diskMagic)]) != diskMagic {
		d.dropCorrupt(path)
		return nil, 0, false
	}
	keyLen := int(binary.LittleEndian.Uint32(data[len(diskMagic):hdr]))
	if keyLen < 0 || len(data)-hdr < keyLen {
		d.dropCorrupt(path)
		return nil, 0, false
	}
	if string(data[hdr:hdr+keyLen]) != key {
		// sha256 collision or a foreign file: not ours.
		d.misses.Add(1)
		return nil, 0, false
	}
	if v, size, err = decodeArtifact(data[hdr+keyLen:]); err != nil {
		d.dropCorrupt(path)
		return nil, 0, false
	}
	// Refreshing the modification time is what makes pruning
	// least-recently-used; a failed refresh only makes the file an
	// earlier prune victim.
	now := time.Now()
	os.Chtimes(path, now, now)
	d.hits.Add(1)
	return v, size, true
}

// decodeArtifact picks the codec by the payload's magic: DBSK1 is an
// estimator, anything else must be a DBSS1 sample. A loaded sample is
// charged its tail bound like a built one (sampleBytes) and encodes its
// tail on its first write.
func decodeArtifact(payload []byte) (any, int64, error) {
	if bytes.HasPrefix(payload, []byte("DBSK1")) {
		est, err := kde.UnmarshalEstimator(payload)
		if err != nil {
			return nil, 0, err
		}
		return est, estimatorBytes(est), nil
	}
	sm, ns, err := core.UnmarshalSample(payload)
	if err != nil {
		return nil, 0, err
	}
	return &sampleArtifact{s: sm, ns: ns}, sampleBytes(sm), nil
}

func (d *DiskTier) dropCorrupt(path string) {
	d.errs.Add(1)
	d.misses.Add(1)
	os.Remove(path)
}

// store persists a built artifact under key (atomically, via temp +
// rename) and prunes the directory back under budget. Best-effort:
// encoding and I/O failures are counted and cost only a future rebuild.
// Values of other types (the cache is generic) are not persisted.
func (d *DiskTier) store(key string, v any) {
	if d == nil {
		return
	}
	var payload []byte
	var err error
	switch art := v.(type) {
	case *kde.Estimator:
		payload, err = art.MarshalBinary()
	case *sampleArtifact:
		payload, err = core.MarshalSample(art.s, art.ns)
	default:
		return
	}
	if err == nil {
		err = d.write(key, payload)
	}
	if err != nil {
		d.errs.Add(1)
		return
	}
	d.stores.Add(1)
	d.prune()
}

// write files the payload under key's DBSA1 header via temp + rename.
func (d *DiskTier) write(key string, payload []byte) error {
	buf := make([]byte, 0, len(diskMagic)+4+len(key)+len(payload))
	buf = append(buf, diskMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = append(buf, payload...)

	tmp, err := os.CreateTemp(d.dir, "artifact-*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(buf)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), d.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// prune deletes least-recently-used artifacts first (by modification
// time, which load refreshes) until the directory fits the byte budget,
// and sweeps abandoned temp files as it goes.
func (d *DiskTier) prune() {
	if d.maxBytes <= 0 {
		return
	}
	d.pruneMu.Lock()
	defer d.pruneMu.Unlock()
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		d.errs.Add(1)
		return
	}
	type fileInfo struct {
		path  string
		size  int64
		mtime int64
	}
	var files []fileInfo
	var total int64
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		full := filepath.Join(d.dir, name)
		if filepath.Ext(name) == ".tmp" {
			os.Remove(full)
			continue
		}
		if filepath.Ext(name) != ".dbsa" {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{full, info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	if total <= d.maxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime < files[j].mtime })
	for _, f := range files {
		if total <= d.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
		}
	}
}

// DiskTierStats is the /healthz snapshot of the disk tier.
type DiskTierStats struct {
	Dir    string `json:"dir"`
	Files  int    `json:"files"`
	Bytes  int64  `json:"bytes"`
	Hits   int64  `json:"hits"`
	Misses int64  `json:"misses"`
	Stores int64  `json:"stores"`
	Errors int64  `json:"errors,omitempty"`
}

// Stats scans the directory for current occupancy and reports the
// lifetime counters.
func (d *DiskTier) Stats() DiskTierStats {
	st := DiskTierStats{
		Dir:    d.dir,
		Hits:   d.hits.Load(),
		Misses: d.misses.Load(),
		Stores: d.stores.Load(),
		Errors: d.errs.Load(),
	}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return st
	}
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".dbsa" {
			continue
		}
		if info, err := ent.Info(); err == nil {
			st.Files++
			st.Bytes += info.Size()
		}
	}
	return st
}
