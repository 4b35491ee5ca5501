// Command dbsample draws a sample from a binary dataset file using
// density-biased sampling (the paper's algorithm), uniform Bernoulli
// sampling, or the Palmer-Faloutsos grid baseline, and writes the sample
// as CSV (point coordinates, with the inclusion weight in the last column
// for the biased methods).
//
// Usage:
//
//	dbsample -in data.dbs -method biased -alpha 1 -size 2000 -out sample.csv
//	dbsample -in data.dbs -method uniform -size 2000 -out sample.csv
//	dbsample -in data.dbs -method grid -alpha -0.5 -size 2000 -out sample.csv
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/gridsample"
	"repro/internal/kde"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	var (
		in      = flag.String("in", "", "input dataset (binary format); required")
		out     = flag.String("out", "", "output CSV (default stdout)")
		method  = flag.String("method", "biased", "sampling method: biased|uniform|grid")
		alpha   = flag.Float64("alpha", 1, "bias exponent a (biased) or e (grid)")
		size    = flag.Int("size", 1000, "expected sample size b")
		kernels = flag.Int("kernels", kde.DefaultNumKernels, "number of kernels (biased)")
		kernel  = flag.String("kernel", "epanechnikov", "kernel function (biased)")
		onePass = flag.Bool("onepass", false, "use the integrated one-pass variant (biased)")
		par     = flag.Int("p", 0, "worker parallelism: 0 = all CPUs, 1 = serial (same sample either way)")
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
	// Ctrl-C / SIGTERM cancel the passes at block granularity instead of
	// leaving a long scan running to completion.
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
	rng := stats.NewRNG(*seed)

	var w *bufio.Writer
	if *out == "" {
		w = bufio.NewWriter(os.Stdout)
	} else {
		f, err := os.Create(*out)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	defer w.Flush()

	writeRow := func(p geom.Point, weight float64, withWeight bool) {
		for i, v := range p {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		if withWeight {
			w.WriteByte(',')
			w.WriteString(strconv.FormatFloat(weight, 'g', -1, 64))
		}
		w.WriteByte('\n')
	}

	switch *method {
	case "biased":
		kern := kde.KernelByName(*kernel)
		if kern == nil {
			fatal("unknown kernel %q", *kernel)
		}
		est, err := kde.Build(ds, kde.Options{
			NumKernels: *kernels,
			Kernel:     kern,
			Ctx:        ctx,
			Obs:        run.Rec,
			Progress:   run.ProgressFunc("estimator"),
		}, rng)
		if err != nil {
			fatal("building estimator: %v", err)
		}
		s, err := core.Draw(ds, est, core.Options{
			Alpha:       *alpha,
			TargetSize:  *size,
			OnePass:     *onePass,
			Parallelism: *par,
			Ctx:         ctx,
			Obs:         run.Rec,
			Progress:    run.ProgressFunc("sampling"),
			VerifyNorm:  *onePass,
		}, rng)
		if err != nil {
			fatal("sampling: %v", err)
		}
		for _, wp := range s.Points {
			writeRow(wp.P, wp.W, true)
		}
		fmt.Fprintf(os.Stderr, "biased sample: %d points, a=%g, k_a=%g, %d data passes (+1 estimator pass)\n",
			len(s.Points), *alpha, s.Norm, s.DataPasses)
	case "uniform":
		pts, err := dataset.Bernoulli(ds, *size, rng)
		if err != nil {
			fatal("sampling: %v", err)
		}
		for _, p := range pts {
			writeRow(p, 0, false)
		}
		fmt.Fprintf(os.Stderr, "uniform sample: %d points, 1 data pass\n", len(pts))
	case "grid":
		bounds, err := dataset.Bounds(ds)
		if err != nil {
			fatal("%v", err)
		}
		res, err := gridsample.Draw(ds, bounds, gridsample.Options{Exponent: *alpha, TargetSize: *size}, rng)
		if err != nil {
			fatal("sampling: %v", err)
		}
		for _, wp := range res.Points {
			writeRow(wp.P, wp.W, true)
		}
		fmt.Fprintf(os.Stderr, "grid sample: %d points, e=%g, %d bucket collisions, %d data passes\n",
			len(res.Points), *alpha, res.Collisions, res.DataPasses+1)
	default:
		fatal("unknown -method %q", *method)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dbsample: "+format+"\n", args...)
	os.Exit(1)
}
