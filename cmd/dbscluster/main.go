// Command dbscluster runs end-to-end approximate clustering (§3.1): draw
// a density-biased or uniform sample from a binary dataset file, cluster
// the sample with the CURE-style hierarchical algorithm (or weighted
// k-means), and print per-cluster summaries. With -assign, every dataset
// point is labelled with its cluster and the labels written to a file.
//
// Usage:
//
//	dbscluster -in data.dbs -k 10 -alpha 1 -size 2000
//	dbscluster -in data.dbs -k 10 -method uniform -size 2000
//	dbscluster -in data.dbs -k 10 -algo kmeans -alpha -0.5 -size 2000
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/cure"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/kde"
	"repro/internal/kmeans"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	var (
		in      = flag.String("in", "", "input dataset (binary format); required")
		k       = flag.Int("k", 10, "number of clusters")
		algo    = flag.String("algo", "cure", "clustering algorithm: cure|kmeans|kmedoids")
		method  = flag.String("method", "biased", "sampling method: biased|uniform")
		alpha   = flag.Float64("alpha", 1, "bias exponent a")
		size    = flag.Int("size", 1000, "expected sample size")
		kernels = flag.Int("kernels", kde.DefaultNumKernels, "number of kernels")
		trim    = flag.Bool("trim", true, "enable CURE noise-trim phases")
		assign  = flag.String("assign", "", "write full-dataset labels to this file (cure only)")
		par     = flag.Int("p", 0, "worker parallelism: 0 = all CPUs, 1 = serial (same clustering either way)")
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
	// Ctrl-C / SIGTERM cancel the pipeline at block granularity instead of
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

	var weighted []dataset.WeightedPoint
	switch *method {
	case "biased":
		est, err := kde.Build(ds, kde.Options{
			NumKernels: *kernels,
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
			Parallelism: *par,
			Ctx:         ctx,
			Obs:         run.Rec,
			Progress:    run.ProgressFunc("sampling"),
		}, rng)
		if err != nil {
			fatal("sampling: %v", err)
		}
		weighted = s.Points
	case "uniform":
		pts, err := dataset.Bernoulli(ds, *size, rng)
		if err != nil {
			fatal("sampling: %v", err)
		}
		weighted = dataset.UniformWeighted(pts, ds.Len())
	default:
		fatal("unknown -method %q", *method)
	}
	if len(weighted) == 0 {
		fatal("empty sample")
	}
	fmt.Printf("sample: %d points (%s, a=%g)\n", len(weighted), *method, *alpha)

	switch *algo {
	case "cure":
		pts := make([]geom.Point, len(weighted))
		for i, wp := range weighted {
			pts[i] = wp.P
		}
		opts := cure.Options{K: *k, NumReps: 10, Shrink: 0.3, Parallelism: *par, Ctx: ctx, Obs: run.Rec}
		if *trim {
			opts.TrimAt, opts.TrimMinSize, opts.FinalTrimAt, opts.FinalTrimMinSize = cure.NoiseTrimSizing(len(pts), *k, 500)
		}
		clusters, err := cure.Run(pts, opts)
		if err != nil {
			fatal("clustering: %v", err)
		}
		for i, c := range clusters {
			fmt.Printf("cluster %d: %d sample points, mean %v\n", i, c.Size(), c.Mean)
			for _, r := range c.Reps {
				fmt.Printf("  rep %v\n", r)
			}
		}
		if *assign != "" {
			if err := writeAssignments(ds, clusters, *assign); err != nil {
				fatal("%v", err)
			}
			fmt.Printf("labels written to %s\n", *assign)
		}
	case "kmeans", "kmedoids":
		var res *kmeans.Result
		var err error
		if *algo == "kmeans" {
			res, err = kmeans.Run(weighted, kmeans.Options{K: *k}, rng)
		} else {
			res, err = kmeans.RunMedoids(weighted, kmeans.Options{K: *k}, rng)
		}
		if err != nil {
			fatal("clustering: %v", err)
		}
		for i, c := range res.Centers {
			fmt.Printf("center %d: %v\n", i, c)
		}
		fmt.Printf("weighted cost %.6g after %d iterations\n", res.Cost, res.Iterations)
	default:
		fatal("unknown -algo %q", *algo)
	}
}

// writeAssignments labels every dataset point by nearest representative
// in one streaming pass.
func writeAssignments(ds dataset.Dataset, clusters []cure.Cluster, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	// Assign in one pass without materializing the dataset.
	var reps []geom.Point
	var owner []int
	for ci := range clusters {
		for _, r := range clusters[ci].Reps {
			reps = append(reps, r)
			owner = append(owner, ci)
		}
	}
	err = ds.Scan(func(p geom.Point) error {
		best, bestD := 0, -1.0
		for ri, r := range reps {
			d := geom.SquaredDistance(p, r)
			if bestD < 0 || d < bestD {
				best, bestD = ri, d
			}
		}
		_, werr := fmt.Fprintln(w, owner[best])
		return werr
	})
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dbscluster: "+format+"\n", args...)
	os.Exit(1)
}
