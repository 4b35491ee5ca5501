package experiments

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/synth"
)

func init() {
	register("chaos", "serving under deterministic fault injection: availability and bit-stability", chaosExp)
}

// chaosExp replays one request mix against three fault profiles — none,
// light, heavy — injected into the dataset scans and both build stages of
// an httptest server, with retry/backoff and a disk artifact tier (a
// fresh temporary directory per profile). The fault-free profile provides
// the reference bytes; for the faulted profiles the table reports how
// many requests still succeeded (and how many of those the disk tier
// served), how many were shed or failed, and how many retries and
// injected faults it took. The core serving guarantee — every successful
// response bit-identical to the fault-free run — is enforced: a
// mismatch fails the experiment, naming the profile and the seed.
//
// The servers scan serially at any cfg.Parallelism: faults.Wrap draws one
// decision per read from a per-site counter, so parallel block scans would
// take the schedule in goroutine order and the table would vary from run
// to run. The experiment measures availability, not speed.
func chaosExp(cfg Config) (*Table, error) {
	n := 40000
	rounds := 48
	if cfg.Quick {
		n = 10000
		rounds = 16
	}
	setup := stats.NewRNG(cfg.Seed)
	l := synth.EqualClusters(8, 3, n, 0.10, setup)
	ds := l.Dataset()

	// Four request identities, repeated round-robin: repeats exercise the
	// cache, and the memory budget below only fits two of them, so
	// identities evict each other and come back from the disk tier all
	// run long.
	seedOf := func(i int) uint64 { return 101 + uint64(i%4) }
	diskRoot, err := os.MkdirTemp("", "dbschaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(diskRoot)

	type tally struct {
		ok, disk, shed, failed int
		mismatch               int
		retries, injected      int64
	}
	profiles := []struct {
		name string
		fc   *faults.Config
	}{
		{"none", nil},
		{"light", &faults.Config{PError: 0.05, PDelay: 0.05, PPartial: 0.03, PCancel: 0.02, MaxDelay: 500 * time.Microsecond}},
		{"heavy", &faults.Config{PError: 0.15, PDelay: 0.10, PPartial: 0.10, PCancel: 0.05, MaxDelay: 500 * time.Microsecond}},
	}

	ref := make(map[uint64][]byte)
	tallies := make([]tally, len(profiles))
	for pi, prof := range profiles {
		var inj *faults.Injector
		if prof.fc != nil {
			fc := *prof.fc
			fc.Seed = cfg.Seed + uint64(pi)
			inj = faults.New(fc)
		}
		disk, err := server.NewDiskTier(filepath.Join(diskRoot, prof.name), 0)
		if err != nil {
			return nil, err
		}
		rec := obs.New()
		srv := server.New(server.Config{
			Parallelism:  1,
			CacheBytes:   96 << 10,
			Disk:         disk,
			Retry:        2,
			RetryBackoff: time.Millisecond,
			Deadline:     30 * time.Second,
			Faults:       inj,
			Rec:          rec,
		})
		if err := srv.Registry().RegisterDataset("bench", faults.Wrap(ds, inj.Point("dataset"))); err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())

		tl := &tallies[pi]
		for i := 0; i < rounds; i++ {
			seed := seedOf(i)
			body := fmt.Sprintf(`{"dataset":"bench","alpha":1,"size":400,"kernels":128,"seed":%d}`, seed)
			resp, err := http.Post(ts.URL+"/v1/sample", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				ts.Close()
				return nil, err
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				ts.Close()
				return nil, err
			}
			switch resp.StatusCode {
			case http.StatusOK:
				tl.ok++
				if resp.Header.Get("X-DBS-Cache") == "disk" {
					tl.disk++
				}
				if prof.fc == nil {
					ref[seed] = data
				} else if !bytes.Equal(data, ref[seed]) {
					tl.mismatch++
				}
			case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				tl.shed++
			default:
				tl.failed++
			}
		}
		ts.Close()
		tl.retries = rec.Counter(obs.CtrRetries).Value()
		tl.injected = inj.Injected()
		if prof.fc == nil && tl.ok != rounds {
			return nil, fmt.Errorf("chaos: fault-free profile had %d/%d successes", tl.ok, rounds)
		}
		if tl.mismatch > 0 {
			return nil, fmt.Errorf("chaos: profile %s, seed %d: %d of %d successful responses differ from the fault-free bytes",
				prof.name, cfg.Seed, tl.mismatch, tl.ok)
		}
	}

	t := &Table{
		Columns: []string{"profile", "requests", "ok", "disk", "shed/failed", "faults", "retries"},
		Notes: []string{
			fmt.Sprintf("POST /v1/sample, n = %d, d = 3, b = 400, 128 kernels, %d requests over 4 identities per profile", n, rounds),
			"faults injected into dataset scans and both build stages; retry = 2, disk artifact tier on (fresh per profile)",
			"scans run serially at any -p, so the fault schedule, and the table, replay from the seed",
			"every 200 response matched the fault-free profile's bytes for the same request (a mismatch fails the run)",
		},
	}
	for pi, prof := range profiles {
		tl := &tallies[pi]
		t.Rows = append(t.Rows, []string{
			prof.name,
			fmt.Sprintf("%d", rounds),
			fmt.Sprintf("%d", tl.ok),
			fmt.Sprintf("%d", tl.disk),
			fmt.Sprintf("%d", tl.shed+tl.failed),
			fmt.Sprintf("%d", tl.injected),
			fmt.Sprintf("%d", tl.retries),
		})
		t.Benchmarks = append(t.Benchmarks, BenchResult{
			Name:  "Chaos_" + prof.name + "_ok",
			Iters: tl.ok,
		})
	}
	return t, nil
}
