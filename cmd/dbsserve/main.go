// Command dbsserve serves the sampling pipeline over HTTP: a dataset
// registry, density-biased sampling, clustering, and outlier detection,
// with an artifact cache so repeat queries skip dataset passes and
// admission control so a saturated server sheds load (429) instead of
// queueing without bound. Observability (/metrics, /debug/pprof) rides on
// the same listener.
//
// Usage:
//
//	dbsserve -addr :8080 gauss=data/gauss.dbs grid=data/grid.dbs
//	dbsserve -addr :8080 -cache-bytes 67108864 -max-inflight 4 -deadline 10s
//	dbsserve -addr :8080 -tenants 'gold:weight=4,priority=high;bronze:weight=1,queue=4' \
//	         -disk-cache /var/lib/dbs/artifacts -degrade-ok
//
// Positional arguments pre-register datasets as name=path; more can be
// registered at runtime via POST /v1/datasets. SIGINT/SIGTERM begin a
// graceful drain: health flips to "draining", new pipeline requests get
// 503, and in-flight ones finish before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cacheBytes = flag.Int64("cache-bytes", 256<<20, "artifact cache budget in bytes (0 disables)")
		maxInFl    = flag.Int("max-inflight", 0, "max concurrently executing pipeline requests (0 = parallelism degree)")
		maxQueue   = flag.Int("max-queue", 0, "max requests waiting for a slot before shedding with 429 (0 = 2x max-inflight, negative = no queue)")
		deadline   = flag.Duration("deadline", 30*time.Second, "per-request deadline")
		par        = flag.Int("p", 0, "scan worker parallelism per request: 0 = all CPUs, 1 = serial (same results either way)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
		retry      = flag.Int("retry", 2, "retries per build stage on transient dataset I/O failures (0 disables)")
		stageWait  = flag.Duration("stage-timeout", 0, "per-attempt build stage timeout; blown stages retry under -retry (0 = request deadline only)")
		driftTol   = flag.Float64("drift-tol", 0, "relative drift budget for incremental builds after appends (0 = always rebuild exactly)")
		trSample   = flag.Float64("trace-sample", 0, "fraction of request traces retained in /debug/traces (0 = none, 1 = all); the decision is a pure function of the trace ID")
		slowMs     = flag.Int("slow-ms", 0, "slow-trace keeper: requests at or over this many milliseconds are always retained in /debug/traces (0 disables)")
		accessLog  = flag.String("access-log", "", "structured JSON access log destination: a file path (appended) or - for stderr (empty disables)")
		trRing     = flag.Int("trace-ring", 64, "capacity of each /debug/traces ring (recent and slow)")
		trSeed     = flag.Uint64("trace-seed", 0, "deterministic trace-ID stream seed (0 = random); set for reproducible trace IDs in tests")
		tenants    = flag.String("tenants", "", `per-tenant admission policies keyed by the X-DBS-Tenant header, as name:key=value,...;... (keys: weight, inflight, queue, priority=low|normal|high; "*" is the wildcard tenant; bare "gold:4" is weight shorthand); empty = one shared policy`)
		diskDir    = flag.String("disk-cache", "", "disk artifact tier directory: built estimators and samples persist here and survive eviction and restarts (empty disables); must be writable")
		diskBytes  = flag.Int64("disk-cache-bytes", 0, "disk artifact tier budget in bytes (0 = 4 GiB, negative = unbounded)")
		degradeOK  = flag.Bool("degrade-ok", false, "degrade ladder: answer shed or transiently failing /v1/sample requests from the cached a=0 artifact (X-DBS-Degraded: a0) when one is resident")
		shards     = flag.String("shards", "", "shard the sampling pipeline: an integer N for N in-process workers, or a comma-separated name=url list of dbsserve peers running -shard-of name (empty = single-node)")
		shardOf    = flag.String("shard-of", "", "serve as the named shard worker: only shard RPCs addressed to this name are accepted (empty = not pinned)")
		replicas   = flag.Int("replicas", 0, "replicas per block in sharded mode; failed shard RPCs fall back across them (0 = 2, capped at shard count)")
		hedgeMs    = flag.Int("hedge-ms", 0, "sharded mode latency budget: a shard RPC still pending after this many milliseconds is hedged to the next replica, first success wins (0 disables)")
		window     = flag.String("window", "", "sliding window for stream datasets (/v1/streams/{name}/append): an integer point count or a duration like 30s; queries cover only the window's rows (empty = unwindowed)")
	)
	flag.Parse()
	windowPts, windowDur, err := parseWindow(*window)
	if err != nil {
		fatal("%v", err)
	}

	shardWorkers, shardPeers, err := parseShards(*shards)
	if err != nil {
		fatal("%v", err)
	}
	cache := *cacheBytes
	if cache == 0 {
		cache = -1 // Config treats negative as disabled, zero as default.
	}
	policies, err := server.ParseTenantPolicies(*tenants)
	if err != nil {
		fatal("%v", err)
	}
	var accessW io.Writer
	if *accessLog == "-" {
		accessW = os.Stderr
	} else if *accessLog != "" {
		f, ferr := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			fatal("opening access log: %v", ferr)
		}
		defer f.Close()
		accessW = f
	}
	var disk *server.DiskTier
	if *diskDir != "" {
		budget := *diskBytes
		if budget == 0 {
			budget = 4 << 30
		}
		if disk, err = server.NewDiskTier(*diskDir, budget); err != nil {
			fatal("-disk-cache: %v", err)
		}
	}
	srv := server.New(server.Config{
		Parallelism:   *par,
		CacheBytes:    cache,
		MaxInFlight:   *maxInFl,
		MaxQueue:      *maxQueue,
		Deadline:      *deadline,
		Retry:         *retry,
		StageTimeout:  *stageWait,
		DriftTol:      *driftTol,
		Rec:           obs.New(),
		TraceSample:   *trSample,
		SlowThreshold: time.Duration(*slowMs) * time.Millisecond,
		TraceRing:     *trRing,
		TraceSeed:     *trSeed,
		AccessLog:     accessW,
		Tenants:       policies,
		DegradeOK:     *degradeOK,
		Disk:          disk,
		ShardWorkers:  shardWorkers,
		ShardPeers:    shardPeers,
		ShardReplicas: *replicas,
		ShardHedge:    time.Duration(*hedgeMs) * time.Millisecond,
		ShardOf:       *shardOf,
		WindowPoints:  windowPts,
		WindowDur:     windowDur,
	})

	for _, arg := range flag.Args() {
		name, path, ok := strings.Cut(arg, "=")
		if !ok {
			fatal("argument %q is not name=path", arg)
		}
		if err := srv.Registry().RegisterPath(name, path); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "dbsserve: registered %s -> %s\n", name, path)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dbsserve: listening on %s\n", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal("%v", err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "dbsserve: draining")
	srv.StartDraining()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fatal("shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "dbsserve: drained")
}

// parseShards reads the -shards flag: a bare integer means that many
// in-process workers; otherwise a comma-separated name=url list of HTTP
// peers. Empty means single-node.
func parseShards(s string) (workers int, peers map[string]string, err error) {
	if s == "" {
		return 0, nil, nil
	}
	if n, perr := strconv.Atoi(s); perr == nil {
		if n < 1 {
			return 0, nil, fmt.Errorf("-shards %d: want at least 1 worker", n)
		}
		return n, nil, nil
	}
	peers = make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return 0, nil, fmt.Errorf("-shards entry %q is not name=url", part)
		}
		if _, dup := peers[name]; dup {
			return 0, nil, fmt.Errorf("-shards: duplicate shard name %q", name)
		}
		peers[name] = url
	}
	return 0, peers, nil
}

func parseWindow(s string) (points int, dur time.Duration, err error) {
	if s == "" {
		return 0, 0, nil
	}
	if n, perr := strconv.Atoi(s); perr == nil {
		if n < 1 {
			return 0, 0, fmt.Errorf("-window %d: want a positive point count", n)
		}
		return n, 0, nil
	}
	d, derr := time.ParseDuration(s)
	if derr != nil {
		return 0, 0, fmt.Errorf("-window %q: want a point count or a duration like 30s", s)
	}
	if d <= 0 {
		return 0, 0, fmt.Errorf("-window %v: want a positive duration", d)
	}
	return 0, d, nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dbsserve: "+format+"\n", args...)
	os.Exit(1)
}
