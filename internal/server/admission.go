package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrSaturated is returned when the in-flight limit and the wait queue are
// both full. Handlers map it to 429 Too Many Requests — the load-shedding
// contract: a saturated server answers immediately rather than queueing
// unboundedly.
var ErrSaturated = errors.New("server: saturated")

// ErrQueueExpired is returned when a queued request's deadline expires
// before a slot frees. It is distinct from ErrSaturated so clients can
// tell "the queue was full, retry soon" (429) from "the server is too
// slow for your deadline, back off" (503 + Retry-After). The error wraps
// the context cause.
var ErrQueueExpired = errors.New("server: queued request expired")

// ErrPreempted is returned to a queued low-priority request whose queue
// space was reclaimed for an arriving higher-priority one. Handlers map
// it to 429: the request was shed by policy, not by a deadline, and may
// be retried (or served degraded).
var ErrPreempted = errors.New("server: preempted by a higher-priority tenant")

// ErrDraining is returned once shutdown has begun; handlers map it to 503
// so load balancers stop routing here while in-flight requests finish.
var ErrDraining = errors.New("server: draining")

// Admission bounds the compute endpoints with per-tenant weighted-fair
// queueing: at most maxInFlight requests execute the pipeline
// concurrently, at most maxQueue more wait for a slot (bounded by their
// own deadlines), and everything beyond that is shed. The in-flight
// bound is what keeps Parallelism-wide scans from oversubscribing the
// machine: total workers ≈ maxInFlight × per-request parallelism.
//
// Every request is tagged with a start-time-fair virtual finish time
// (self-clocked fair queueing): tag = max(vtime, tenant's last tag) +
// 1/weight. A freed slot goes to the eligible queued request with the
// smallest tag, so backlogged tenants share slots in proportion to
// their weights while an idle tenant accrues no credit. Tags are fixed
// at arrival and strictly increase per tenant, so a queued request can
// only ever be overtaken by a bounded number of later arrivals (at most
// its lead in virtual time × the other tenant's weight) — the
// starvation-freedom property the regression tests pin. With a single
// tenant the schedule degenerates to exact FIFO handoff: a freed slot
// goes to the head of the wait queue, and a new arrival is never
// admitted while anyone eligible is queued.
//
// Per-tenant quotas layer on top: a tenant at its MaxInFlight cap
// queues even while global slots are free (its surplus never crowds
// others), and a tenant over its MaxQueue cap sheds its own arrivals
// without consuming shared queue space. When the shared queue is full,
// an arriving request may preempt a queued one of strictly lower
// priority (the least-entitled such waiter is shed with ErrPreempted) —
// low-priority tenants shed first under overload.
type Admission struct {
	maxInFlight int
	maxQueue    int
	policies    map[string]TenantPolicy

	mu          sync.Mutex
	inUse       int     // slots held or reserved for a granted waiter
	vtime       float64 // virtual time: largest tag ever granted
	seq         uint64  // arrival counter; breaks equal-tag ties FIFO
	queuedTotal int
	tenants     map[string]*tenantState

	draining    atomic.Bool
	inFlight    atomic.Int64
	queued      atomic.Int64
	shedFull    atomic.Int64
	shedExpired atomic.Int64
	shedPreempt atomic.Int64
}

// tenantState is one tenant's live accounting. States are created on
// first arrival and kept for the controller's life (the cardinality is
// the deployment's tenant-key space).
type tenantState struct {
	name string
	pol  TenantPolicy

	// Guarded by Admission.mu.
	lastFinish float64
	inUse      int
	queue      list.List // of *waiter, FIFO == ascending finish tags
	admitted   int64

	// Incremented outside the lock on the waiter's own goroutine.
	shedFull    atomic.Int64
	shedExpired atomic.Int64
	shedPreempt atomic.Int64
}

type grantKind uint8

const (
	grantNone grantKind = iota
	grantSlot
	grantPreempted
)

// waiter is one queued request: its tenant, its fixed virtual finish
// tag, and the buffered grant channel the dispatcher signals.
type waiter struct {
	ts     *tenantState
	finish float64
	seq    uint64         // arrival order; equal tags are served FIFO
	grant  chan grantKind // buffered 1; at most one send ever happens
}

// NewTenantAdmission returns a controller with per-tenant policies. The
// "*" entry, when present, is the policy for tenants not named
// explicitly; absent tenants otherwise get the zero policy (weight 1,
// normal priority, global bounds only).
func NewTenantAdmission(maxInFlight, maxQueue int, policies map[string]TenantPolicy) *Admission {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	pol := make(map[string]TenantPolicy, len(policies))
	for name, p := range policies {
		pol[name] = p.withDefaults()
	}
	return &Admission{
		maxInFlight: maxInFlight,
		maxQueue:    maxQueue,
		policies:    pol,
		tenants:     make(map[string]*tenantState),
	}
}

// stateLocked returns (creating on first use) tenant's state.
func (a *Admission) stateLocked(tenant string) *tenantState {
	if tenant == "" {
		tenant = DefaultTenant
	}
	ts := a.tenants[tenant]
	if ts == nil {
		pol, ok := a.policies[tenant]
		if !ok {
			pol, ok = a.policies["*"]
			if !ok {
				pol = TenantPolicy{}
			}
		}
		ts = &tenantState{name: tenant, pol: pol.withDefaults()}
		a.tenants[tenant] = ts
	}
	return ts
}

// EnterTenant admits the request under tenant's policy. queued reports
// whether the request had to wait for a slot (true even when the wait
// ended in rejection) — the signal behind the queue-wait histogram that
// drives Retry-After hints.
func (a *Admission) EnterTenant(ctx context.Context, tenant string) (release func(), queued bool, err error) {
	if a.draining.Load() {
		return nil, false, ErrDraining
	}
	a.mu.Lock()
	ts := a.stateLocked(tenant)
	prevFinish := ts.lastFinish
	start := ts.lastFinish
	if a.vtime > start {
		start = a.vtime
	}
	a.seq++
	w := &waiter{ts: ts, finish: start + 1/ts.pol.Weight, seq: a.seq, grant: make(chan grantKind, 1)}
	ts.lastFinish = w.finish
	el := ts.queue.PushBack(w)
	a.queuedTotal++
	a.dispatchLocked()
	select {
	case <-w.grant:
		// Granted without waiting: the dispatcher consumed the queue
		// entry inside the same critical section.
		a.mu.Unlock()
		a.inFlight.Add(1)
		return func() { a.release(ts) }, false, nil
	default:
	}
	// The request must wait; enforce the queue budgets. A shed rolls the
	// tenant's virtual clock back — a rejected request consumed no
	// service, so it must not push the tenant's future tags later.
	if pq := ts.pol.MaxQueue; pq > 0 && ts.queue.Len() > pq {
		a.dropWaiterLocked(el)
		ts.lastFinish = prevFinish
		a.mu.Unlock()
		a.shedFull.Add(1)
		ts.shedFull.Add(1)
		return nil, false, fmt.Errorf("%w: tenant %q queue full", ErrSaturated, ts.name)
	}
	if a.queuedTotal > a.maxQueue {
		if !a.preemptForLocked(w) {
			a.dropWaiterLocked(el)
			ts.lastFinish = prevFinish
			a.mu.Unlock()
			a.shedFull.Add(1)
			ts.shedFull.Add(1)
			return nil, false, ErrSaturated
		}
	}
	a.queued.Add(1)
	a.mu.Unlock()

	select {
	case g := <-w.grant:
		a.queued.Add(-1)
		if g == grantPreempted {
			a.shedPreempt.Add(1)
			ts.shedPreempt.Add(1)
			return nil, true, fmt.Errorf("%w: tenant %q", ErrPreempted, ts.name)
		}
		a.inFlight.Add(1)
		return func() { a.release(ts) }, true, nil
	case <-ctx.Done():
		a.mu.Lock()
		g := grantNone
		select {
		case g = <-w.grant:
			if g == grantSlot {
				// Granted concurrently with expiry: the slot is ours but
				// unwanted — pass it down the queue instead of leaking it.
				a.inUse--
				ts.inUse--
				a.dispatchLocked()
			}
		default:
			a.dropWaiterLocked(el)
		}
		a.mu.Unlock()
		a.queued.Add(-1)
		if g == grantPreempted {
			a.shedPreempt.Add(1)
			ts.shedPreempt.Add(1)
			return nil, true, fmt.Errorf("%w: tenant %q", ErrPreempted, ts.name)
		}
		a.shedExpired.Add(1)
		ts.shedExpired.Add(1)
		return nil, true, fmt.Errorf("%w: %w", ErrQueueExpired, ctx.Err())
	}
}

// dropWaiterLocked removes a still-queued waiter from its tenant queue.
func (a *Admission) dropWaiterLocked(el *list.Element) {
	w := el.Value.(*waiter)
	w.ts.queue.Remove(el)
	a.queuedTotal--
}

// dispatchLocked grants free slots to eligible waiters in virtual-time
// order: among the tenants with queued work and in-flight headroom, the
// head waiter with the smallest finish tag wins (equal tags are served
// in arrival order, so the schedule is deterministic and degenerates to
// exact FIFO for equal-rate tenants). Grant channels are buffered,
// so the send never blocks even if the waiter has already abandoned the
// queue path (that case is drained in EnterTenant's expiry arm).
func (a *Admission) dispatchLocked() {
	for a.inUse < a.maxInFlight {
		var best *waiter
		var bestEl *list.Element
		for _, ts := range a.tenants {
			if ts.queue.Len() == 0 {
				continue
			}
			if m := ts.pol.MaxInFlight; m > 0 && ts.inUse >= m {
				continue
			}
			el := ts.queue.Front()
			w := el.Value.(*waiter)
			if best == nil || w.finish < best.finish ||
				(w.finish == best.finish && w.seq < best.seq) {
				best, bestEl = w, el
			}
		}
		if best == nil {
			return
		}
		best.ts.queue.Remove(bestEl)
		a.queuedTotal--
		a.inUse++
		best.ts.inUse++
		best.ts.admitted++
		if best.finish > a.vtime {
			a.vtime = best.finish
		}
		best.grant <- grantSlot
	}
}

// preemptForLocked reclaims queue space for arriving by shedding a
// queued waiter of strictly lower priority: the lowest-priority class
// sheds first, and within it the waiter with the largest finish tag
// (the least entitled to run next). Returns false when no lower-
// priority waiter is queued.
func (a *Admission) preemptForLocked(arriving *waiter) bool {
	p := arriving.ts.pol.Priority
	var victim *waiter
	var vel *list.Element
	for _, ts := range a.tenants {
		if ts.pol.Priority >= p || ts.queue.Len() == 0 {
			continue
		}
		el := ts.queue.Back() // largest tag in this tenant's queue
		w := el.Value.(*waiter)
		if victim == nil ||
			w.ts.pol.Priority < victim.ts.pol.Priority ||
			(w.ts.pol.Priority == victim.ts.pol.Priority &&
				(w.finish > victim.finish ||
					(w.finish == victim.finish && w.seq > victim.seq))) {
			victim, vel = w, el
		}
	}
	if victim == nil {
		return false
	}
	victim.ts.queue.Remove(vel)
	a.queuedTotal--
	// The victim was its tenant's newest waiter, so rolling the tenant
	// clock back to its start tag is exact.
	victim.ts.lastFinish = victim.finish - 1/victim.ts.pol.Weight
	victim.grant <- grantPreempted
	return true
}

// release returns the caller's slot to the scheduler, which hands it to
// the smallest-tag eligible waiter or back to the free pool.
func (a *Admission) release(ts *tenantState) {
	a.inFlight.Add(-1)
	a.mu.Lock()
	a.inUse--
	ts.inUse--
	a.dispatchLocked()
	a.mu.Unlock()
}

// StartDraining flips the controller into drain mode: every subsequent
// Enter fails with ErrDraining while requests already admitted run to
// completion. It is idempotent.
func (a *Admission) StartDraining() { a.draining.Store(true) }

// Draining reports whether drain mode has begun.
func (a *Admission) Draining() bool { return a.draining.Load() }

// InFlight returns the number of admitted, unfinished requests.
func (a *Admission) InFlight() int64 { return a.inFlight.Load() }

// Queued returns the number of requests waiting for a slot.
func (a *Admission) Queued() int64 { return a.queued.Load() }

// Shed returns the total number of rejected requests: queue-full,
// queued-deadline-expired, and priority-preempted combined.
func (a *Admission) Shed() int64 {
	return a.shedFull.Load() + a.shedExpired.Load() + a.shedPreempt.Load()
}

// ShedQueueFull returns the number of requests rejected with ErrSaturated
// because slots and queue were full on arrival.
func (a *Admission) ShedQueueFull() int64 { return a.shedFull.Load() }

// ShedExpired returns the number of requests rejected with
// ErrQueueExpired because their deadline passed while queued.
func (a *Admission) ShedExpired() int64 { return a.shedExpired.Load() }

// ShedPreempted returns the number of queued requests shed with
// ErrPreempted to make room for higher-priority arrivals.
func (a *Admission) ShedPreempted() int64 { return a.shedPreempt.Load() }

// TenantStats snapshots every tenant's admission accounting, sorted by
// tenant name.
func (a *Admission) TenantStats() []TenantStats {
	a.mu.Lock()
	out := make([]TenantStats, 0, len(a.tenants))
	for _, ts := range a.tenants {
		out = append(out, TenantStats{
			Tenant:        ts.name,
			Weight:        ts.pol.Weight,
			Priority:      priorityName(ts.pol.Priority),
			InFlight:      ts.inUse,
			Queued:        ts.queue.Len(),
			Admitted:      ts.admitted,
			ShedQueueFull: ts.shedFull.Load(),
			ShedExpired:   ts.shedExpired.Load(),
			ShedPreempted: ts.shedPreempt.Load(),
		})
	}
	a.mu.Unlock()
	sortTenantStats(out)
	return out
}
