package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test run dbsserve's main in a child process (the test
// binary re-executed with runMainEnv set), so exit paths can be checked.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

const runMainEnv = "DBSSERVE_TEST_RUN_MAIN"

// TestUnusableDiskCacheExits: a -disk-cache directory that cannot be
// created stops dbsserve with a non-zero exit naming the path, instead of
// serving with the disk tier silently off.
func TestUnusableDiskCacheExits(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "artifacts")
	// A regression would start serving; the timeout ends it as a failure.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-disk-cache", dir)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() <= 0 {
		t.Fatalf("dbsserve -disk-cache %s: err = %v, want a non-zero exit; output:\n%s", dir, err, out)
	}
	if !strings.Contains(string(out), dir) {
		t.Errorf("exit message does not name %s:\n%s", dir, out)
	}
}
