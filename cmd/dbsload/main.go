// Command dbsload is the load generator for the serving layer. It drives
// an already-running server (e.g. dbsserve) at -addr with a configurable
// tenant mix and prints the per-tenant report as JSON:
//
//	dbsload -addr http://localhost:8080 -dataset pts \
//	        -tenants gold:closed:4,bronze:open:200 -duration 10s
//
// Each tenant entry is name:mode:rate — closed-loop rate is the worker
// count, open-loop rate is arrivals per second. Requests rotate -seeds
// distinct seeds; 1 keeps the artifact cache hot, large values force
// cold builds. The in-process sustained-load proof, the three-tenant
// WFQ/degrade/chaos experiment behind BENCH_load.json, is
// `dbsbench -exp load`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
)

func main() {
	var (
		addr     = flag.String("addr", "", "target server base URL (required)")
		duration = flag.Duration("duration", 5*time.Second, "measurement window")
		tenants  = flag.String("tenants", "gold:closed:2,bronze:open:100", "tenant mix as name:mode:rate[,...]")
		dsName   = flag.String("dataset", "pts", "dataset name on the target")
		alpha    = flag.Float64("alpha", 1, "sample alpha")
		size     = flag.Int("size", 400, "sample size b")
		kernels  = flag.Int("kernels", 128, "kernel count")
		seeds    = flag.Int("seeds", 4, "distinct seeds rotated per tenant")
	)
	flag.Parse()

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "dbsload: need -addr <server URL>; the in-process load experiment is dbsbench -exp load")
		os.Exit(2)
	}
	specs, err := parseMix(*tenants, *dsName, *alpha, *size, *kernels, *seeds)
	if err != nil {
		fatal("%v", err)
	}
	rep, err := loadgen.Run(loadgen.Options{BaseURL: strings.TrimRight(*addr, "/"), Duration: *duration, Specs: specs})
	if err != nil {
		fatal("%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal("encoding JSON: %v", err)
	}
}

// parseMix parses name:mode:rate tenant entries into loadgen specs.
func parseMix(spec, dataset string, alpha float64, size, kernels, nseeds int) ([]loadgen.TenantSpec, error) {
	if nseeds < 1 {
		return nil, fmt.Errorf("dbsload: -seeds must be >= 1")
	}
	seeds := make([]uint64, nseeds)
	for i := range seeds {
		seeds[i] = 101 + uint64(i)
	}
	var specs []loadgen.TenantSpec
	for _, ent := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(ent), ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("dbsload: tenant entry %q: want name:mode:rate", ent)
		}
		name, mode := parts[0], parts[1]
		rate, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("dbsload: tenant entry %q: bad rate %q", ent, parts[2])
		}
		ts := loadgen.TenantSpec{
			Tenant: name, Mode: mode,
			Dataset: dataset, Alpha: alpha, Size: size, Kernels: kernels, Seeds: seeds,
		}
		switch mode {
		case "closed":
			ts.Conc = int(rate)
		case "open":
			ts.RPS = rate
		default:
			return nil, fmt.Errorf("dbsload: tenant entry %q: mode must be closed or open", ent)
		}
		specs = append(specs, ts)
	}
	return specs, nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dbsload: "+format+"\n", args...)
	os.Exit(1)
}
