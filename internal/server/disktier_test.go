package server

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestDiskTierPrunesLeastRecentlyUsed is the regression test for
// first-in-first-out pruning: a load refreshes the artifact's
// modification time, so under a two-file budget the artifact stored
// first but loaded since survives, and the one left untouched is pruned.
func TestDiskTierPrunesLeastRecentlyUsed(t *testing.T) {
	dir := t.TempDir()
	d := mustDiskTier(t, dir)
	d.store("a", testArtifact(1))
	info, err := os.Stat(d.path("a"))
	if err != nil {
		t.Fatal(err)
	}
	// Equal-shaped artifacts under equal-length keys: files of one size,
	// and room for exactly two of them.
	if d, err = NewDiskTier(dir, 2*info.Size()); err != nil {
		t.Fatal(err)
	}
	setMtime := func(key string, age time.Duration) {
		t.Helper()
		at := time.Now().Add(-age)
		if err := os.Chtimes(d.path(key), at, at); err != nil {
			t.Fatal(err)
		}
	}
	setMtime("a", 2*time.Hour)
	d.store("b", testArtifact(2))
	setMtime("b", time.Hour)
	if _, _, ok := d.load("a"); !ok {
		t.Fatal("load of a missed")
	}
	d.store("c", testArtifact(3))

	for key, want := range map[string]bool{"a": true, "b": false, "c": true} {
		_, err := os.Stat(d.path(key))
		if got := err == nil; got != want {
			t.Errorf("after pruning, %s present = %v, want %v", key, got, want)
		}
	}
}

// TestDiskTierRejectsUnusableDir: a directory that cannot be created, or
// cannot take a file, is an error naming it — never a tier that looks
// enabled and fails every store.
func TestDiskTierRejectsUnusableDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	under := filepath.Join(file, "artifacts")
	if _, err := NewDiskTier(under, 0); err == nil || !strings.Contains(err.Error(), under) {
		t.Errorf("directory under a regular file: err = %v, want an error naming %s", err, under)
	}

	t.Run("read-only", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("root bypasses directory permissions")
		}
		ro := t.TempDir()
		if err := os.Chmod(ro, 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(ro, 0o755)
		if _, err := NewDiskTier(ro, 0); err == nil || !strings.Contains(err.Error(), ro) {
			t.Errorf("read-only directory: err = %v, want an error naming %s", err, ro)
		}
	})
}

// fuzzKey is the key every FuzzDiskTierLoad input is stored under; the
// seed corpus files carry it in their DBSA1 header.
const fuzzKey = "fuzz|artifact"

// FuzzDiskTierLoad writes arbitrary bytes as the file stored under a key
// — DBSA1 header, then a DBSK1 or DBSS1 payload — and loads it. A load
// must never panic: it is a miss, or an artifact that round-trips, i.e.
// storing it again writes back the identical file. The seed corpus
// (testdata/fuzz/FuzzDiskTierLoad) holds one real estimator and one real
// sample, each whole and truncated.
func FuzzDiskTierLoad(f *testing.F) {
	d, err := NewDiskTier(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	path := d.path(fuzzKey)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		v, _, ok := d.load(fuzzKey)
		if !ok {
			return
		}
		os.Remove(path)
		d.store(fuzzKey, v)
		back, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("loaded artifact %T did not store back: %v", v, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("loaded artifact %T stores back as %d bytes differing from the %d loaded", v, len(back), len(data))
		}
	})
}
