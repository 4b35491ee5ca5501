package server

import (
	"context"
	"errors"
	"io"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// isTransient classifies an error as worth retrying: injected faults,
// truncated reads, and anything self-reporting Temporary or Timeout.
// Cancellation and context errors are excluded — whether a canceled
// stage is retryable depends on whether the *request* is still live,
// which runStage checks against the request context, not the error.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, parallel.ErrCanceled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, faults.ErrInjected) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var te interface{ Temporary() bool }
	if errors.As(err, &te) && te.Temporary() {
		return true
	}
	var to interface{ Timeout() bool }
	if errors.As(err, &to) && to.Timeout() {
		return true
	}
	return false
}

// runStage runs one pipeline stage under the configured per-stage
// timeout and bounded retry policy. Each attempt gets a fresh stage
// context and first passes the fault-injection point named after the
// stage (inert unless Config.Faults is set); transient failures (and
// cancellations while the request itself is still live — a stage
// timeout or an injected cancel) back off exponentially with
// deterministic jitter derived from (seed, stage), so a replayed
// request replays its backoff schedule too. The stage callback must be
// restartable: it re-derives its RNG streams per attempt, which is what
// keeps a response built on attempt three bit-identical to one built on
// attempt one.
func (s *Server) runStage(ctx context.Context, rec *obs.Recorder, stage string, seed uint64, f func(ctx context.Context) error) error {
	attempts := s.cfg.Retry + 1
	if attempts < 1 {
		attempts = 1
	}
	hist := s.rec.Histogram(HistStageSeconds, obs.Label{Key: "stage", Value: stage})
	var rng *stats.RNG
	var err error
	for i := 0; i < attempts; i++ {
		sctx := ctx
		cancel := context.CancelFunc(nil)
		if s.cfg.StageTimeout > 0 {
			sctx, cancel = context.WithTimeout(ctx, s.cfg.StageTimeout)
		}
		// Each attempt is one span occurrence at the stage path (a
		// retried stage shows sibling attempt spans in the request
		// trace) and one stage-histogram observation on the server
		// recorder.
		t0 := time.Now()
		span := rec.StartSpan(stage)
		if err = s.cfg.Faults.Point(stage).Check(sctx); err == nil {
			err = f(sctx)
		}
		span.End()
		hist.Observe(time.Since(t0).Seconds())
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return nil
		}
		// An injected fault is attributed to the request's trace here,
		// from the error it produced — exactly once, whatever the stage
		// outcome (faults.Point.Check records only clean delays itself,
		// which never surface as errors).
		var ie *faults.InjectedError
		if errors.As(err, &ie) {
			rec.Eventf("fault", "site=%s kind=%s op=%d", ie.Site, ie.Kind, ie.Op)
		}
		if ctx.Err() != nil {
			// The request itself is dead; retrying would burn a slot on
			// work nobody can receive.
			return err
		}
		if !isTransient(err) && !errors.Is(err, parallel.ErrCanceled) {
			return err
		}
		if i == attempts-1 {
			return err
		}
		rec.Counter(obs.CtrRetries).Inc()
		if rng == nil {
			rng = stats.NewRNG(seed ^ stats.FNV1a(stage))
		}
		back := float64(s.cfg.RetryBackoff << uint(i))
		d := time.Duration((0.5 + 0.5*rng.Float64()) * back)
		rec.Eventf("retry", "stage=%s attempt=%d backoff=%s", stage, i+1, d)
		if d > 0 {
			if parallel.SleepCtx(ctx, d) != nil {
				return err
			}
		}
	}
	return err
}
