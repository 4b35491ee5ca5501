package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAdmissionBounds(t *testing.T) {
	a := NewAdmission(2, 0)
	ctx := context.Background()
	rel1, err := a.Enter(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.Enter(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 2 {
		t.Errorf("in flight = %d, want 2", got)
	}
	// Slots and queue full: immediate shed.
	if _, err := a.Enter(ctx); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	if a.Shed() != 1 {
		t.Errorf("shed = %d, want 1", a.Shed())
	}
	rel1()
	rel2()
	if got := a.InFlight(); got != 0 {
		t.Errorf("in flight after release = %d, want 0", got)
	}
	rel3, err := a.Enter(ctx)
	if err != nil {
		t.Fatalf("enter after release: %v", err)
	}
	rel3()
}

func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	a := NewAdmission(1, 1)
	rel, err := a.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		rel2, err := a.Enter(context.Background())
		if err == nil {
			rel2()
		}
		got <- err
	}()
	// Give the goroutine time to enter the queue, then free the slot.
	for a.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	rel()
	if err := <-got; err != nil {
		t.Fatalf("queued request rejected: %v", err)
	}
}

func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	a := NewAdmission(1, 1)
	rel, err := a.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = a.Enter(ctx)
	if !errors.Is(err, ErrQueueExpired) {
		t.Fatalf("err = %v, want ErrQueueExpired", err)
	}
	if errors.Is(err, ErrSaturated) {
		t.Errorf("err = %v conflates queue expiry with saturation", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v does not carry the deadline cause", err)
	}
	if a.Queued() != 0 {
		t.Errorf("queued = %d after timeout, want 0", a.Queued())
	}
	if full, exp := a.ShedQueueFull(), a.ShedExpired(); full != 0 || exp != 1 {
		t.Errorf("shed split = (full %d, expired %d), want (0, 1)", full, exp)
	}
	if a.Shed() != 1 {
		t.Errorf("shed total = %d, want 1", a.Shed())
	}
}

// TestAdmissionShedCountersSplit pins the two rejection modes to their
// own counters: queue-full arrivals land in ShedQueueFull, queued
// requests whose deadline passes land in ShedExpired.
func TestAdmissionShedCountersSplit(t *testing.T) {
	a := NewAdmission(1, 1)
	rel, err := a.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	// Fill the queue, then overflow it.
	qctx, qcancel := context.WithCancel(context.Background())
	qDone := make(chan error, 1)
	go func() {
		_, werr := a.Enter(qctx)
		qDone <- werr
	}()
	for a.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := a.Enter(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("overflow err = %v, want ErrSaturated", err)
	}
	// Expire the queued request.
	qcancel()
	if werr := <-qDone; !errors.Is(werr, ErrQueueExpired) {
		t.Fatalf("queued err = %v, want ErrQueueExpired", werr)
	}
	if full, exp := a.ShedQueueFull(), a.ShedExpired(); full != 1 || exp != 1 {
		t.Errorf("shed split = (full %d, expired %d), want (1, 1)", full, exp)
	}
	if a.Shed() != 2 {
		t.Errorf("shed total = %d, want 2", a.Shed())
	}
}

// TestAdmissionFIFOOrder queues several waiters and checks that freed
// slots are granted in arrival order.
func TestAdmissionFIFOOrder(t *testing.T) {
	a := NewAdmission(1, 4)
	hold, err := a.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	order := make(chan int, n)
	// released counts a waiter out only after its rel() has run, so the
	// drain check below cannot see the last slot still held.
	var released sync.WaitGroup
	released.Add(n)
	for i := 0; i < n; i++ {
		i := i
		gc := newGateCtx()
		go func() {
			defer released.Done()
			rel, werr := a.Enter(gc)
			if werr != nil {
				order <- -1
				return
			}
			order <- i
			rel()
		}()
		// The gate context pins each waiter's enqueue before the next
		// goroutine starts, making arrival order deterministic.
		<-gc.entered
		close(gc.gate)
	}
	hold()
	for want := 0; want < n; want++ {
		if got := <-order; got != want {
			t.Fatalf("admission order: got %d, want %d", got, want)
		}
	}
	released.Wait()
	if a.InFlight() != 0 || a.Queued() != 0 {
		t.Errorf("in flight %d queued %d after drain, want 0, 0", a.InFlight(), a.Queued())
	}
}

func TestAdmissionDraining(t *testing.T) {
	a := NewAdmission(4, 4)
	rel, err := a.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a.StartDraining()
	if !a.Draining() {
		t.Error("Draining() = false after StartDraining")
	}
	if _, err := a.Enter(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	// Admitted work finishes normally during the drain.
	rel()
	if a.InFlight() != 0 {
		t.Errorf("in flight = %d, want 0", a.InFlight())
	}
}

// NewAdmission returns a single-policy controller admitting maxInFlight
// concurrent requests with a wait queue of maxQueue (clamped to ≥ 1 and
// ≥ 0). Every tenant gets weight 1 and normal priority — pure fair
// sharing with FIFO inside each tenant.
func NewAdmission(maxInFlight, maxQueue int) *Admission {
	return NewTenantAdmission(maxInFlight, maxQueue, nil)
}

// Enter admits the request under the default tenant. On success the
// returned release must be called exactly once when the request
// finishes. Rejections: ErrDraining after StartDraining, ErrSaturated
// when slot and queue are full, ErrQueueExpired when ctx expires while
// queued.
func (a *Admission) Enter(ctx context.Context) (release func(), err error) {
	release, _, err = a.EnterTenant(ctx, DefaultTenant)
	return release, err
}
