// Command dbsoutlier detects DB(p,k) distance-based outliers (§3.2) in a
// binary dataset file, exactly (kd-tree) or approximately via the paper's
// density-guided two-pass algorithm, and can estimate just the outlier
// count in a single pass for parameter exploration.
//
// Usage:
//
//	dbsoutlier -in data.dbs -radius 0.05 -p 3 -method approx
//	dbsoutlier -in data.dbs -radius 0.05 -frac 0.0001 -method exact
//	dbsoutlier -in data.dbs -radius 0.05 -p 3 -method estimate
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/dataset"
	"repro/internal/kde"
	"repro/internal/obs"
	"repro/internal/outlier"
	"repro/internal/stats"
)

func main() {
	var (
		in      = flag.String("in", "", "input dataset (binary format); required")
		radius  = flag.Float64("radius", 0.05, "neighbourhood radius k")
		p       = flag.Int("p", -1, "max neighbours an outlier may have")
		frac    = flag.Float64("frac", -1, "alternatively, p as a fraction of |D|")
		method  = flag.String("method", "approx", "detection method: exact|approx|estimate")
		kernels = flag.Int("kernels", kde.DefaultNumKernels, "number of kernels (approx/estimate)")
		factor  = flag.Float64("factor", 3, "candidate threshold factor (approx)")
		par     = flag.Int("par", 0, "worker parallelism: 0 = all CPUs, 1 = serial (same outliers either way)")
		seed    = flag.Uint64("seed", 1, "random seed")
		obsf    obs.Flags
	)
	obsf.Register(flag.CommandLine)
	flag.Parse()
	if *in == "" {
		fatal("missing -in")
	}
	run, err := obsf.Start()
	if err != nil {
		run.Close()
		fatal("%v", err)
	}
	defer run.Close()
	// Ctrl-C / SIGTERM cancel the scans at block granularity instead of
	// leaving a long pass running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Open sniffs the format: DBS1 files decode block-by-block, DBS2
	// segment files are memory-mapped and scanned zero-copy.
	ds, err := dataset.Open(*in)
	if err != nil {
		fatal("%v", err)
	}
	if c, ok := ds.(io.Closer); ok {
		defer c.Close()
	}
	var prm outlier.Params
	switch {
	case *p >= 0 && *frac >= 0:
		fatal("set either -p or -frac, not both")
	case *p >= 0:
		prm = outlier.Params{K: *radius, P: *p}
	case *frac >= 0:
		prm = outlier.FromFraction(*radius, *frac, ds.Len())
	default:
		fatal("set -p or -frac")
	}
	prm.Parallelism = *par
	prm.Ctx = ctx
	prm.Obs = run.Rec
	prm.Progress = run.ProgressFunc("outlier scan")
	rng := stats.NewRNG(*seed)

	switch *method {
	case "exact":
		mem, err := dataset.Collect(ds)
		if err != nil {
			fatal("%v", err)
		}
		idx, err := outlier.Exact(mem.Points(), prm)
		if err != nil {
			fatal("%v", err)
		}
		for _, i := range idx {
			fmt.Println(mem.Points()[i])
		}
		fmt.Fprintf(os.Stderr, "exact: %d DB(p=%d, k=%g) outliers\n", len(idx), prm.P, prm.K)
	case "approx":
		est, err := kde.Build(ds, kde.Options{
			NumKernels: *kernels,
			Ctx:        ctx,
			Obs:        run.Rec,
			Progress:   run.ProgressFunc("estimator"),
		}, rng)
		if err != nil {
			fatal("building estimator: %v", err)
		}
		res, err := outlier.Approximate(ds, est, prm, outlier.ApproxOptions{CandidateFactor: *factor})
		if err != nil {
			fatal("%v", err)
		}
		for _, o := range res.Outliers {
			fmt.Println(o)
		}
		fmt.Fprintf(os.Stderr, "approx: %d outliers from %d candidates, %d data passes (+1 estimator pass)\n",
			len(res.Outliers), res.NumCandidates, res.DataPasses)
	case "estimate":
		est, err := kde.Build(ds, kde.Options{
			NumKernels: *kernels,
			Ctx:        ctx,
			Obs:        run.Rec,
			Progress:   run.ProgressFunc("estimator"),
		}, rng)
		if err != nil {
			fatal("building estimator: %v", err)
		}
		n, err := outlier.EstimateCount(ds, est, prm)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("estimated DB(p=%d, k=%g) outliers: %d (single pass)\n", prm.P, prm.K, n)
	default:
		fatal("unknown -method %q", *method)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dbsoutlier: "+format+"\n", args...)
	os.Exit(1)
}
