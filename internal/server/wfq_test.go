package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// enqueueTenant starts a waiter for tenant held at the queued-but-not-
// yet-waiting instant (see gateCtx), then releases it into the normal
// wait. done yields the waiter's outcome; release is called
// automatically on success after done is signalled, and only then is
// the waiter counted out of released, so a drain check that waits on
// released cannot see the last slot still held.
func enqueueTenant(t *testing.T, a *Admission, tenant string, done chan string, released *sync.WaitGroup) {
	t.Helper()
	gc := newGateCtx()
	released.Add(1)
	go func() {
		defer released.Done()
		rel, _, werr := a.EnterTenant(gc, tenant)
		if werr != nil {
			done <- "err:" + tenant
			return
		}
		done <- tenant
		rel()
	}()
	<-gc.entered // the waiter is now in its tenant queue
	close(gc.gate)
}

// TestWFQHeavyTenantCannotStarveLightWaiter is the per-tenant version of
// the PR 4 starvation regression: a light tenant's queued waiter must be
// granted the next slot even while a heavy tenant keeps arriving. Under
// SCFQ the heavy tenant's tags strictly increase past the light waiter's
// fixed tag, so the arrival stream can never push it back. A NaN or
// infinite heavy weight from Config.Tenants counts as unset: with NaN tags
// the grant order followed map order, and at +Inf the tag step 1/w was 0
// and the light waiter was granted last.
func TestWFQHeavyTenantCannotStarveLightWaiter(t *testing.T) {
	for _, pol := range []map[string]TenantPolicy{
		nil,
		{"heavy": {Weight: math.NaN()}},
		{"heavy": {Weight: math.Inf(1)}},
	} {
		a := NewTenantAdmission(1, 16, pol, nil)
		hold, _, err := a.EnterTenant(context.Background(), "heavy")
		if err != nil {
			t.Fatal(err)
		}

		order := make(chan string, 16)
		var released sync.WaitGroup
		enqueueTenant(t, a, "light", order, &released)

		// A burst of heavy arrivals lands behind the light waiter.
		for i := 0; i < 6; i++ {
			enqueueTenant(t, a, "heavy", order, &released)
		}
		if got := a.Queued(); got != 7 {
			t.Fatalf("queued = %d, want 7", got)
		}

		hold()
		if first := <-order; first != "light" {
			t.Fatalf("policies %v: first grant went to %q, want the queued light waiter", pol, first)
		}
		for i := 0; i < 6; i++ {
			if got := <-order; got != "heavy" {
				t.Fatalf("grant %d = %q, want heavy", i+2, got)
			}
		}
		released.Wait() // each waiter names itself on order before its rel()
		if a.InFlight() != 0 || a.Queued() != 0 {
			t.Errorf("in flight %d queued %d after drain, want 0, 0", a.InFlight(), a.Queued())
		}
	}
}

// TestWFQWeightedShare pins the proportional-share schedule: with tenant
// gold at weight 3 and bronze at weight 1 both backlogged on one slot,
// every prefix of the grant order gives gold ≈ 3/4 of the slots.
func TestWFQWeightedShare(t *testing.T) {
	pol := map[string]TenantPolicy{
		"gold":   {Weight: 3},
		"bronze": {Weight: 1},
	}
	a := NewTenantAdmission(1, 64, pol, nil)
	hold, _, err := a.EnterTenant(context.Background(), "gold")
	if err != nil {
		t.Fatal(err)
	}

	const nGold, nBronze = 12, 4
	order := make(chan string, nGold+nBronze)
	var released sync.WaitGroup
	for i := 0; i < nBronze; i++ {
		enqueueTenant(t, a, "gold", order, &released)
		enqueueTenant(t, a, "gold", order, &released)
		enqueueTenant(t, a, "gold", order, &released)
		enqueueTenant(t, a, "bronze", order, &released)
	}

	hold()
	gold, bronze := 0, 0
	for k := 1; k <= nGold+nBronze; k++ {
		switch got := <-order; got {
		case "gold":
			gold++
		case "bronze":
			bronze++
		default:
			t.Fatalf("grant %d: unexpected outcome %q", k, got)
		}
		// Weighted fairness as a prefix property: gold's share of the
		// first k grants stays within one virtual-time round of 3/4·k.
		want := 3.0 * float64(k) / 4.0
		if diff := float64(gold) - want; diff > 3 || diff < -3 {
			t.Fatalf("after %d grants gold has %d slots, want %.1f±3", k, gold, want)
		}
	}
	if gold != nGold || bronze != nBronze {
		t.Fatalf("grants = (gold %d, bronze %d), want (%d, %d)", gold, bronze, nGold, nBronze)
	}
}

// TestWFQIdleTenantAccruesNoCredit: a tenant that was idle while others
// ran does not get a burst of back-to-back slots when it wakes — its
// first tag starts at current virtual time, not at its stale last tag.
func TestWFQIdleTenantAccruesNoCredit(t *testing.T) {
	a := NewTenantAdmission(1, 16, nil, nil)

	// Tenant b runs several requests while a is idle, advancing vtime.
	for i := 0; i < 5; i++ {
		rel, _, err := a.EnterTenant(context.Background(), "b")
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}

	// Now both tenants backlog on a held slot; they must alternate.
	hold, _, err := a.EnterTenant(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 8)
	var released sync.WaitGroup
	for i := 0; i < 4; i++ {
		enqueueTenant(t, a, "a", order, &released)
	}
	for i := 0; i < 4; i++ {
		enqueueTenant(t, a, "b", order, &released)
	}
	hold()
	prefixA := 0
	for k := 1; k <= 8; k++ {
		if got := <-order; got == "a" {
			prefixA++
		}
		if k == 4 && prefixA == 4 {
			t.Fatalf("tenant a drained its whole backlog before b got a slot: idle credit leaked")
		}
	}
}

// TestWFQPerTenantInFlightCap: a tenant at its in-flight quota queues
// even while global slots are free, and other tenants keep running.
func TestWFQPerTenantInFlightCap(t *testing.T) {
	pol := map[string]TenantPolicy{"capped": {MaxInFlight: 1}}
	a := NewTenantAdmission(4, 8, pol, nil)

	rel1, _, err := a.EnterTenant(context.Background(), "capped")
	if err != nil {
		t.Fatal(err)
	}
	// Second capped request must queue despite 3 free global slots.
	got := make(chan error, 1)
	go func() {
		rel, queued, werr := a.EnterTenant(context.Background(), "capped")
		if werr == nil {
			if !queued {
				werr = errors.New("admitted without queueing past the tenant cap")
			}
			rel()
		}
		got <- werr
	}()
	for a.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}

	// An uncapped tenant is unaffected by capped's backlog.
	rel2, queued, err := a.EnterTenant(context.Background(), "other")
	if err != nil || queued {
		t.Fatalf("other tenant: err=%v queued=%v, want immediate admit", err, queued)
	}
	rel2()

	rel1() // frees capped's quota; the queued request is granted
	if err := <-got; err != nil {
		t.Fatalf("queued capped request: %v", err)
	}
	if a.InFlight() != 0 || a.Queued() != 0 {
		t.Errorf("in flight %d queued %d after drain, want 0, 0", a.InFlight(), a.Queued())
	}
}

// TestWFQPerTenantQueueCap: a tenant over its own queue quota sheds its
// arrivals without consuming shared queue space.
func TestWFQPerTenantQueueCap(t *testing.T) {
	pol := map[string]TenantPolicy{"capped": {MaxQueue: 1}}
	a := NewTenantAdmission(1, 8, pol, nil)
	hold, _, err := a.EnterTenant(context.Background(), "other")
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 4)
	var released sync.WaitGroup
	enqueueTenant(t, a, "capped", order, &released)
	_, _, err = a.EnterTenant(context.Background(), "capped")
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("over-quota arrival err = %v, want ErrSaturated", err)
	}
	if !strings.Contains(err.Error(), `"capped"`) {
		t.Errorf("err %q does not name the quota'd tenant", err)
	}
	// The shared queue still has room for everyone else.
	enqueueTenant(t, a, "other", order, &released)
	if got := a.Queued(); got != 2 {
		t.Fatalf("queued = %d, want 2 (capped's quota shed must not consume shared space)", got)
	}
	hold()
	for i := 0; i < 2; i++ {
		if got := <-order; strings.HasPrefix(got, "err:") {
			t.Fatalf("queued waiter rejected: %s", got)
		}
	}
	for _, s := range a.TenantStats() {
		if s.Tenant == "capped" && s.ShedQueueFull != 1 {
			t.Errorf("capped ShedQueueFull = %d, want 1", s.ShedQueueFull)
		}
	}
}

// TestWFQPriorityPreemption: with the shared queue full, an arriving
// high-priority request preempts the queued low-priority waiter, which
// is shed with ErrPreempted; the reverse direction sheds the arrival.
func TestWFQPriorityPreemption(t *testing.T) {
	pol := map[string]TenantPolicy{
		"gold":   {Priority: PriorityHigh},
		"bronze": {Priority: PriorityLow},
	}
	a := NewTenantAdmission(1, 1, pol, nil)
	hold, _, err := a.EnterTenant(context.Background(), "gold")
	if err != nil {
		t.Fatal(err)
	}

	bronzeErr := make(chan error, 1)
	gc := newGateCtx()
	go func() {
		rel, _, werr := a.EnterTenant(gc, "bronze")
		if werr == nil {
			rel()
		}
		bronzeErr <- werr
	}()
	<-gc.entered
	close(gc.gate)
	for a.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Queue is full (1/1). An equal-priority arrival cannot preempt —
	// it sheds itself and bronze keeps its place.
	if _, _, err := a.EnterTenant(context.Background(), "bronze"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("bronze overflow err = %v, want ErrSaturated", err)
	}

	// A high-priority arrival reclaims bronze's queue slot.
	goldDone := make(chan error, 1)
	go func() {
		rel, _, werr := a.EnterTenant(context.Background(), "gold")
		if werr == nil {
			rel()
		}
		goldDone <- werr
	}()
	werr := <-bronzeErr
	if !errors.Is(werr, ErrPreempted) {
		t.Fatalf("preempted waiter err = %v, want ErrPreempted", werr)
	}
	if errors.Is(werr, ErrQueueExpired) {
		t.Errorf("err = %v conflates preemption with queue expiry", werr)
	}

	hold()
	if err := <-goldDone; err != nil {
		t.Fatalf("high-priority arrival rejected after preempting: %v", err)
	}
	if got := a.ShedPreempted(); got != 1 {
		t.Errorf("ShedPreempted = %d, want 1", got)
	}
	if a.Shed() != 2 {
		t.Errorf("Shed = %d, want 2 (1 saturated + 1 preempted)", a.Shed())
	}
	for _, s := range a.TenantStats() {
		if s.Tenant == "bronze" && s.ShedPreempted != 1 {
			t.Errorf("bronze ShedPreempted = %d, want 1", s.ShedPreempted)
		}
	}
}

// TestWFQSingleTenantIsFIFO: with one tenant the WFQ schedule must be
// indistinguishable from the old FIFO controller (the PR 4 contract).
func TestWFQSingleTenantIsFIFO(t *testing.T) {
	a := NewTenantAdmission(1, 8, nil, nil)
	hold, err := a.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 8)
	var released sync.WaitGroup
	for _, id := range []string{"default", "default", "default"} {
		enqueueTenant(t, a, id, order, &released)
	}
	hold()
	for i := 0; i < 3; i++ {
		if got := <-order; got != "default" {
			t.Fatalf("grant %d = %q, want default", i, got)
		}
	}
}

func TestParseTenantPolicies(t *testing.T) {
	got, err := ParseTenantPolicies("gold:weight=4,priority=high,inflight=8;bronze:1,priority=low,queue=2;*:weight=2")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]TenantPolicy{
		"gold":   {Weight: 4, Priority: PriorityHigh, MaxInFlight: 8},
		"bronze": {Weight: 1, Priority: PriorityLow, MaxQueue: 2},
		"*":      {Weight: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d tenants, want %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("tenant %s = %+v, want %+v", name, got[name], w)
		}
	}

	if p, err := ParseTenantPolicies(""); err != nil || p != nil {
		t.Errorf("empty spec = (%v, %v), want (nil, nil)", p, err)
	}
	for _, bad := range []string{
		"noseparator",
		"a:weight=0",
		"a:weight=x",
		"a:priority=urgent",
		"a:bogus=1",
		"a:1;a:2",
		"a:inflight=-1",
		"a:weight=NaN",
		"a:NaN",
		"a:weight=Inf",
		"a:weight=+Inf",
		"a:Inf",
		"a:weight=1e-320",
	} {
		if _, err := ParseTenantPolicies(bad); err == nil {
			t.Errorf("ParseTenantPolicies(%q) accepted invalid spec", bad)
		}
	}
}

// FuzzParseTenantPolicies feeds arbitrary -tenants specs to the parser.
// It must never panic, and what it accepts must be usable and round-trip:
// every weight unset or positive and finite with a finite reciprocal,
// quotas ≥ 0, priority low, normal or high; and the map rendered back to
// the grammar parses to the same map.
func FuzzParseTenantPolicies(f *testing.F) {
	for _, seed := range []string{
		"gold:weight=4,priority=high,inflight=8;bronze:1,priority=low,queue=2;*:weight=2",
		"a:NaN", "a:weight=+Inf", "a:weight=1e-320", "a:0x1p-3", "a:", " ; ;", "a,b=c:inflight=+3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		got, err := ParseTenantPolicies(spec)
		if err != nil {
			return
		}
		names := make([]string, 0, len(got))
		for name, p := range got {
			if p.Weight != 0 && !usableWeight(p.Weight) {
				t.Fatalf("tenant %q: accepted weight %v (1/w = %v)", name, p.Weight, 1/p.Weight)
			}
			if p.MaxInFlight < 0 || p.MaxQueue < 0 {
				t.Fatalf("tenant %q: negative quota %+v", name, p)
			}
			if p.Priority != PriorityLow && p.Priority != PriorityNormal && p.Priority != PriorityHigh {
				t.Fatalf("tenant %q: priority %d", name, p.Priority)
			}
			names = append(names, name)
		}
		sort.Strings(names)
		var spec2 strings.Builder
		for _, name := range names {
			p := got[name]
			fmt.Fprintf(&spec2, "%s:inflight=%d,queue=%d,priority=%s", name, p.MaxInFlight, p.MaxQueue, priorityName(p.Priority))
			if p.Weight != 0 {
				fmt.Fprintf(&spec2, ",weight=%s", strconv.FormatFloat(p.Weight, 'g', -1, 64))
			}
			spec2.WriteByte(';')
		}
		back, err := ParseTenantPolicies(spec2.String())
		if err != nil {
			t.Fatalf("rendered spec %q: %v", spec2.String(), err)
		}
		if len(back) != len(got) {
			t.Fatalf("rendered spec %q parsed to %d tenants, want %d", spec2.String(), len(back), len(got))
		}
		for name, p := range got {
			if q, ok := back[name]; !ok || q != p {
				t.Fatalf("tenant %q: %+v, then %+v from %q", name, p, q, spec2.String())
			}
		}
	})
}

// TestWFQWildcardPolicy: unnamed tenants inherit the "*" policy.
func TestWFQWildcardPolicy(t *testing.T) {
	pol := map[string]TenantPolicy{"*": {MaxInFlight: 1}}
	a := NewTenantAdmission(4, 4, pol, nil)
	rel, _, err := a.EnterTenant(context.Background(), "anyone")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	// Second request from the same unnamed tenant hits the wildcard cap.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := a.EnterTenant(ctx, "anyone"); !errors.Is(err, ErrQueueExpired) {
		t.Fatalf("err = %v, want ErrQueueExpired (queued on wildcard quota)", err)
	}
	// A different unnamed tenant has its own wildcard-derived quota.
	rel2, _, err := a.EnterTenant(context.Background(), "someone-else")
	if err != nil {
		t.Fatalf("distinct tenant blocked by another's wildcard quota: %v", err)
	}
	rel2()
}
