// Package faults is a deterministic fault-injection layer for the
// serving pipeline. An Injector is seeded once; every injection site
// (a named Point) then draws an independent, reproducible decision
// stream: the k-th operation at site s fails, delays, truncates, or
// cancels purely as a function of (seed, hash(s), k). Re-running with
// the same seed replays the same schedule, which is what lets the chaos
// suite bisect a failing fault pattern from a single uint64.
//
// The layer is wiring, not policy: it wraps dataset.Dataset sources
// (Wrap) and guards build stages (Point.Check), and the serving layer's
// retry machinery and artifact tiers are what turn injected faults into
// bounded, observable behavior.
package faults

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// KindNone: the operation proceeds untouched.
	KindNone Kind = iota
	// KindError: the operation fails with a transient *InjectedError.
	KindError
	// KindDelay: the operation is delayed by a deterministic duration
	// up to Config.MaxDelay, then proceeds normally.
	KindDelay
	// KindPartial: a scan delivers a deterministic prefix of its points
	// and then fails — never a silent truncation, since a quietly short
	// scan would corrupt results instead of surfacing a fault.
	KindPartial
	// KindCancel: the operation fails as if its context had been
	// canceled mid-flight (the error matches parallel.ErrCanceled).
	KindCancel
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindPartial:
		return "partial"
	case KindCancel:
		return "cancel"
	default:
		return "none"
	}
}

// ErrInjected is the sentinel all injected failures match via errors.Is,
// so tests can separate scheduled faults from genuine bugs.
var ErrInjected = errors.New("faults: injected")

// InjectedError reports one scheduled fault: which site, which operation
// index, which kind. It matches ErrInjected, reports itself Temporary()
// (the retry layer's transient classification), and for KindCancel also
// matches parallel.ErrCanceled, mimicking a scan that died to a context.
type InjectedError struct {
	Site string
	Op   uint64
	Kind Kind
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected %s at %s op %d", e.Kind, e.Site, e.Op)
}

// Is matches ErrInjected.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Unwrap makes KindCancel faults match parallel.ErrCanceled, the same
// type a genuinely canceled scan returns.
func (e *InjectedError) Unwrap() error {
	if e.Kind == KindCancel {
		return parallel.ErrCanceled
	}
	return nil
}

// Temporary marks injected faults as transient for retry classification.
// KindCancel is excluded: cancellation is only retryable when the
// request itself is still live, which the retry layer checks against
// the request context, not the error.
func (e *InjectedError) Temporary() bool { return e.Kind != KindCancel }

// Config sets the per-operation fault probabilities of an Injector. The
// probabilities are cumulative slices of one uniform draw, so they must
// sum to at most 1. Zero value: no faults.
type Config struct {
	// Seed determines the entire fault schedule.
	Seed uint64
	// PError, PDelay, PPartial, PCancel are the per-operation
	// probabilities of each fault kind.
	PError   float64
	PDelay   float64
	PPartial float64
	PCancel  float64
	// MaxDelay bounds KindDelay injections (default 1ms).
	MaxDelay time.Duration
	// Skip exempts the first Skip operations at every site, e.g. to let
	// a reference artifact build cleanly before faults begin.
	Skip int
}

// Injector hands out injection Points. A nil *Injector is valid and
// injects nothing, so production wiring can pass one through untouched.
type Injector struct {
	cfg Config

	mu     sync.Mutex
	points map[string]*Point

	injected atomic.Int64
}

// New builds an Injector from cfg.
func New(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Millisecond
	}
	return &Injector{cfg: cfg, points: make(map[string]*Point)}
}

// Point returns the injection point for site, creating it on first use.
// The same site name always returns the same Point, so its operation
// counter spans the process. Nil-safe: a nil Injector returns a nil
// Point, which injects nothing.
func (in *Injector) Point(site string) *Point {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.points[site]
	if p == nil {
		p = &Point{in: in, site: site, hash: stats.FNV1a(site)}
		in.points[site] = p
	}
	return p
}

// Injected returns how many faults have fired across all sites.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	return in.injected.Load()
}

// Point is one named injection site. Each operation (a ScanRange call, a
// build attempt) draws the next decision in the site's stream.
type Point struct {
	in   *Injector
	site string
	hash uint64
	ops  atomic.Uint64

	fired    atomic.Int64 // faults of any kind this point has injected
	firedErr atomic.Int64 // ... that surfaced as errors (all but clean delays)
}

// Fired returns how many faults this point has injected (0 on nil).
// The chaos suite reconciles it against the fault events recorded in
// request traces.
func (p *Point) Fired() int64 {
	if p == nil {
		return 0
	}
	return p.fired.Load()
}

// FiredErrors returns how many injected faults surfaced as errors —
// every kind except delay (0 on nil).
func (p *Point) FiredErrors() int64 {
	if p == nil {
		return 0
	}
	return p.firedErr.Load()
}

// Site returns the point's site name ("" on nil).
func (p *Point) Site() string {
	if p == nil {
		return ""
	}
	return p.site
}

// next draws the decision for this site's next operation: the fault kind
// plus auxiliary bits (delay length, truncation fraction) and the
// operation index. Pure function of (seed, site, op index).
func (p *Point) next() (Kind, uint64, uint64) {
	if p == nil {
		return KindNone, 0, 0
	}
	op := p.ops.Add(1) - 1
	cfg := &p.in.cfg
	if op < uint64(cfg.Skip) {
		return KindNone, 0, op
	}
	h := stats.Mix64(cfg.Seed ^ p.hash ^ stats.Mix64(op+stats.Golden))
	u := float64(h>>11) / (1 << 53)
	var kind Kind
	switch {
	case u < cfg.PError:
		kind = KindError
	case u < cfg.PError+cfg.PDelay:
		kind = KindDelay
	case u < cfg.PError+cfg.PDelay+cfg.PPartial:
		kind = KindPartial
	case u < cfg.PError+cfg.PDelay+cfg.PPartial+cfg.PCancel:
		kind = KindCancel
	default:
		return KindNone, 0, op
	}
	p.in.injected.Add(1)
	p.fired.Add(1)
	if kind != KindDelay {
		p.firedErr.Add(1)
	}
	return kind, stats.Mix64(h ^ stats.Golden), op
}

// frac maps auxiliary bits onto [0, 1).
func frac(aux uint64) float64 { return float64(aux>>11) / (1 << 53) }

// delay maps auxiliary bits onto (0, MaxDelay].
func (p *Point) delay(aux uint64) time.Duration {
	d := time.Duration(frac(aux) * float64(p.in.cfg.MaxDelay))
	if d <= 0 {
		d = time.Microsecond
	}
	return d
}

func (p *Point) errAt(kind Kind, op uint64) error {
	return &InjectedError{Site: p.site, Op: op, Kind: kind}
}

// CheckPartial draws the next decision for an RPC-shaped operation whose
// response payload can be truncated in flight. It behaves like Check for
// every kind except KindPartial, which it surfaces as truncate=true with
// the schedule's deterministic truncation fraction in [0, 1) and a nil
// error: the caller is expected to deliver that prefix of its response,
// exercising the receiver's response validation (which must reject the
// short payload loudly) rather than its plain error path.
func (p *Point) CheckPartial(ctx context.Context) (fraction float64, truncate bool, err error) {
	kind, aux, op := p.next()
	switch kind {
	case KindNone:
		return 0, false, nil
	case KindDelay:
		obs.FromContext(ctx).Eventf("fault", "site=%s kind=delay op=%d", p.site, op)
		return 0, false, parallel.SleepCtx(ctx, p.delay(aux))
	case KindPartial:
		// Like delay, a truncation returns no error from this call, so it
		// must be trace-attributed here; the validation failure it provokes
		// downstream is an ordinary error with its own attribution.
		obs.FromContext(ctx).Eventf("fault", "site=%s kind=partial op=%d", p.site, op)
		return frac(aux), true, nil
	default:
		return 0, false, p.errAt(kind, op)
	}
}

// Check draws the next decision for a non-scan operation (a build stage,
// a cache fill). KindDelay sleeps then proceeds; KindPartial degenerates
// to KindError (there is no stream to truncate); a delay cut short by
// ctx reports the cancellation.
func (p *Point) Check(ctx context.Context) error {
	kind, aux, op := p.next()
	switch kind {
	case KindNone:
		return nil
	case KindDelay:
		// A clean delay is the one fault kind that never surfaces as an
		// error, so it must be trace-attributed here or it would be
		// invisible; error kinds are recorded once by the retry layer
		// from the error they return (no double counting).
		obs.FromContext(ctx).Eventf("fault", "site=%s kind=delay op=%d", p.site, op)
		return parallel.SleepCtx(ctx, p.delay(aux))
	case KindPartial:
		return p.errAt(KindError, op)
	default:
		return p.errAt(kind, op)
	}
}
