// Package loadgen drives a DBS server with a mixed multi-tenant
// workload and reports per-tenant latency and availability. It supports
// the two canonical generator shapes: closed-loop tenants (a fixed
// worker pool, each issuing the next request when the last completes —
// throughput self-limits under server slowdown) and open-loop tenants
// (a fixed arrival rate regardless of completions — the shape that
// actually saturates a server, since arrivals do not back off). The
// open-loop tenant is how a load test proves isolation: its arrivals
// keep coming while the closed-loop tenants' latencies show whether the
// weighted-fair scheduler protected them.
package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/stats"
)

// TenantSpec is one tenant's traffic shape against /v1/sample.
type TenantSpec struct {
	// Tenant is the X-DBS-Tenant header value ("" = default tenant).
	Tenant string
	// Mode is "closed" (Conc workers, think-time zero) or "open"
	// (RPS fixed arrivals).
	Mode string
	// Conc is the closed-loop worker count.
	Conc int
	// RPS is the open-loop arrival rate.
	RPS float64
	// Dataset, Alpha, Size, Kernels, Seeds parameterize the request
	// bodies; Seeds rotates round-robin so cache behaviour is part of
	// the spec (one seed = all hits after warmup, many = cold builds).
	Dataset string
	Alpha   float64
	Size    int
	Kernels int
	Seeds   []uint64
}

// Options configures a Run.
type Options struct {
	// BaseURL is the server under test (no trailing slash).
	BaseURL string
	// Duration is the measurement window.
	Duration time.Duration
	// Specs is the tenant mix.
	Specs []TenantSpec
}

// TenantReport is one tenant's tally over the window. Latency quantiles
// are over successful (200, including degraded) responses only; shed
// and failed requests are availability events, not latency samples.
type TenantReport struct {
	Tenant     string  `json:"tenant"`
	Mode       string  `json:"mode"`
	Sent       int64   `json:"sent"`
	OK         int64   `json:"ok"`
	Degraded   int64   `json:"degraded,omitempty"`
	Shed429    int64   `json:"shed_429,omitempty"`
	Unavail503 int64   `json:"unavail_503,omitempty"`
	Timeout504 int64   `json:"timeout_504,omitempty"`
	Errors     int64   `json:"errors,omitempty"`
	P50ms      float64 `json:"p50_ms"`
	P99ms      float64 `json:"p99_ms"`
	P999ms     float64 `json:"p999_ms"`
	// Availability counts degraded responses as available: the client
	// got a sound (coarser) answer, which is the point of the ladder.
	Availability float64 `json:"availability"`
}

// Report is the whole run.
type Report struct {
	DurationSec float64        `json:"duration_sec"`
	Tenants     []TenantReport `json:"tenants"`
}

// tally accumulates one tenant's outcomes under its own lock.
type tally struct {
	mu        sync.Mutex
	sent, ok  int64
	degraded  int64
	s429      int64
	s503      int64
	s504      int64
	errs      int64
	latencies []float64 // seconds, successes only
}

func (tl *tally) record(status int, degraded bool, d time.Duration, err error) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.sent++
	switch {
	case err != nil:
		tl.errs++
	case status == http.StatusOK:
		tl.ok++
		if degraded {
			tl.degraded++
		}
		tl.latencies = append(tl.latencies, d.Seconds())
	case status == http.StatusTooManyRequests:
		tl.s429++
	case status == http.StatusServiceUnavailable:
		tl.s503++
	case status == http.StatusGatewayTimeout:
		tl.s504++
	default:
		tl.errs++
	}
}

// Run drives the tenant mix for the window and reports per-tenant
// outcome tallies and latency quantiles.
func Run(opts Options) (*Report, error) {
	if len(opts.Specs) == 0 {
		return nil, fmt.Errorf("loadgen: no tenant specs")
	}
	client := &http.Client{Timeout: 2*opts.Duration + 10*time.Second}
	tallies := make([]*tally, len(opts.Specs))
	for i := range tallies {
		tallies[i] = &tally{}
	}

	start := time.Now()
	deadline := start.Add(opts.Duration)
	var wg sync.WaitGroup
	for i, spec := range opts.Specs {
		spec := spec
		tl := tallies[i]
		shoot := func(reqIdx int) {
			seed := spec.Seeds[reqIdx%len(spec.Seeds)]
			body := fmt.Sprintf(`{"dataset":%q,"alpha":%g,"size":%d,"kernels":%d,"seed":%d}`,
				spec.Dataset, spec.Alpha, spec.Size, spec.Kernels, seed)
			req, err := http.NewRequest(http.MethodPost, opts.BaseURL+"/v1/sample", bytes.NewReader([]byte(body)))
			if err != nil {
				tl.record(0, false, 0, err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if spec.Tenant != "" {
				req.Header.Set(server.TenantHeader, spec.Tenant)
			}
			t0 := time.Now()
			resp, err := client.Do(req)
			if err != nil {
				tl.record(0, false, 0, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			tl.record(resp.StatusCode, resp.Header.Get(server.DegradedHeader) != "", time.Since(t0), nil)
		}
		switch spec.Mode {
		case "closed":
			for w := 0; w < spec.Conc; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for n := w; time.Now().Before(deadline); n += spec.Conc {
						shoot(n)
					}
				}(w)
			}
		case "open":
			if spec.RPS <= 0 {
				return nil, fmt.Errorf("loadgen: open-loop tenant %q needs RPS > 0", spec.Tenant)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				interval := time.Duration(float64(time.Second) / spec.RPS)
				tick := time.NewTicker(interval)
				defer tick.Stop()
				var inner sync.WaitGroup
				for n := 0; ; n++ {
					if !time.Now().Before(deadline) {
						break
					}
					<-tick.C
					inner.Add(1)
					go func(n int) {
						defer inner.Done()
						shoot(n)
					}(n)
				}
				inner.Wait()
			}()
		default:
			return nil, fmt.Errorf("loadgen: tenant %q: unknown mode %q", spec.Tenant, spec.Mode)
		}
	}
	wg.Wait()

	rep := &Report{DurationSec: time.Since(start).Seconds()}
	for i, spec := range opts.Specs {
		tl := tallies[i]
		tr := TenantReport{
			Tenant: spec.Tenant, Mode: spec.Mode,
			Sent: tl.sent, OK: tl.ok, Degraded: tl.degraded,
			Shed429: tl.s429, Unavail503: tl.s503, Timeout504: tl.s504,
			Errors: tl.errs,
		}
		if len(tl.latencies) > 0 {
			tr.P50ms = stats.Quantile(tl.latencies, 0.50) * 1e3
			tr.P99ms = stats.Quantile(tl.latencies, 0.99) * 1e3
			tr.P999ms = stats.Quantile(tl.latencies, 0.999) * 1e3
		}
		if tl.sent > 0 {
			tr.Availability = float64(tl.ok) / float64(tl.sent)
		}
		rep.Tenants = append(rep.Tenants, tr)
	}
	return rep, nil
}
