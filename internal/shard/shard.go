package shard

import (
	"context"
	"fmt"
)

// Executor is the worker-side compute surface behind a Shard: resolve the
// request's (dataset, generation, fingerprint) to a local view and
// estimator, then run the one-round primitive from internal/core. The
// serving layer implements it over its registry and artifact cache.
type Executor interface {
	Partials(ctx context.Context, req *PartialsRequest) (*PartialsResponse, error)
}

// Shard is one worker as the coordinator sees it: a name (its ring
// identity) plus the RPC. Implementations must be safe for concurrent
// calls.
type Shard interface {
	Name() string
	Executor
}

// Local is an in-process Shard: a named handle on an Executor, the
// goroutine-backed worker mode. Several Locals may share one Executor —
// the coordinator still scatters per shard, so the single process
// exercises exactly the distributed protocol.
type Local struct {
	name string
	ex   Executor
}

// NewLocal names an Executor as an in-process shard.
func NewLocal(name string, ex Executor) *Local { return &Local{name: name, ex: ex} }

// Name implements Shard.
func (l *Local) Name() string { return l.name }

// Partials implements Shard.
func (l *Local) Partials(ctx context.Context, req *PartialsRequest) (*PartialsResponse, error) {
	return l.ex.Partials(ctx, req)
}

// RPCError is one failed shard RPC attempt: which shard, which operation,
// what went wrong. It reports itself Temporary so the serving layer's
// transient classification applies (503 + Retry-After when every replica
// fails) — unless the wrapped error is a cancellation, which the error
// chain still exposes via Unwrap and which maps to 504 upstream.
type RPCError struct {
	Shard string
	Op    string
	Err   error
}

func (e *RPCError) Error() string {
	return fmt.Sprintf("shard %s: %s: %v", e.Shard, e.Op, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *RPCError) Unwrap() error { return e.Err }

// Temporary marks shard RPC failures as transient: any replica can serve
// any block, so a failed attempt is retryable by construction.
func (e *RPCError) Temporary() bool { return true }
