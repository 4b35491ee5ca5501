package server

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// DefaultTenant is the accounting bucket for requests that carry no
// tenant identity (no X-DBS-Tenant header). A single-tenant deployment
// therefore behaves exactly like the pre-tenant server: one queue, one
// set of quotas.
const DefaultTenant = "default"

// Tenant priorities. Under overload the controller sheds strictly by
// priority: a queued low-priority request is preempted (429) to make
// room for an arriving normal- or high-priority one, never the other
// way around. Within a priority class, weighted-fair queueing decides.
const (
	PriorityLow    = -1
	PriorityNormal = 0
	PriorityHigh   = 1
)

// TenantPolicy is one tenant's admission contract: its weighted-fair
// share of the slot pool, optional hard quotas, and its shed priority.
// The zero value is a weight-1, normal-priority tenant bounded only by
// the global limits.
type TenantPolicy struct {
	// Weight is the tenant's WFQ share (default 1). A weight-4 tenant
	// is granted four slots for every one a weight-1 tenant gets while
	// both have work queued; an idle tenant accrues no credit. A weight
	// that is not positive and finite with a finite reciprocal is unset.
	Weight float64
	// MaxInFlight caps the tenant's concurrently executing requests
	// (0 = bounded only by the global in-flight limit). A tenant at its
	// cap queues even while global slots are free — the quota isolation
	// the fairness tests pin.
	MaxInFlight int
	// MaxQueue caps the tenant's waiting requests (0 = bounded only by
	// the global queue limit). Beyond it the tenant's own arrivals are
	// shed with 429 without touching anyone else's queue space.
	MaxQueue int
	// Priority orders overload shedding: PriorityLow tenants are
	// preempted first when the global queue fills. Default
	// PriorityNormal.
	Priority int
}

func (p TenantPolicy) withDefaults() TenantPolicy {
	if !usableWeight(p.Weight) {
		p.Weight = 1
	}
	if p.MaxInFlight < 0 {
		p.MaxInFlight = 0
	}
	if p.MaxQueue < 0 {
		p.MaxQueue = 0
	}
	return p
}

// usableWeight reports whether w and its tag step 1/w are both positive
// and finite. Any other weight (NaN, infinite, or so small that 1/w
// overflows) issues tags of NaN, 0 or +Inf, out of fair order.
func usableWeight(w float64) bool {
	inv := 1 / w
	return w > 0 && inv > 0 && !math.IsInf(w, 0) && !math.IsInf(inv, 0)
}

func priorityName(p int) string {
	switch {
	case p < 0:
		return "low"
	case p > 0:
		return "high"
	default:
		return "normal"
	}
}

// ParseTenantPolicies reads the -tenants flag grammar: a semicolon-
// separated list of name:key=value,... entries, where name "*" sets the
// policy for tenants not named explicitly. Keys: weight (float),
// inflight (int), queue (int), priority (low|normal|high). A bare
// name:weight shorthand ("gold:4") is accepted.
//
//	gold:weight=4,priority=high;bronze:weight=1,priority=low;*:weight=1
func ParseTenantPolicies(spec string) (map[string]TenantPolicy, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	out := make(map[string]TenantPolicy)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, ":")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("server: -tenants entry %q is not name:settings", entry)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("server: -tenants: duplicate tenant %q", name)
		}
		var pol TenantPolicy
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, hasEq := strings.Cut(kv, "=")
			if !hasEq {
				// Bare-value shorthand: "gold:4" means weight=4.
				w, err := strconv.ParseFloat(kv, 64)
				if err != nil || !usableWeight(w) {
					return nil, fmt.Errorf("server: -tenants %s: %q is neither key=value nor a positive finite weight", name, kv)
				}
				pol.Weight = w
				continue
			}
			switch key {
			case "weight":
				w, err := strconv.ParseFloat(val, 64)
				if err != nil || !usableWeight(w) {
					return nil, fmt.Errorf("server: -tenants %s: weight %q must be a positive finite number with a finite reciprocal", name, val)
				}
				pol.Weight = w
			case "inflight":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("server: -tenants %s: inflight %q must be a non-negative integer", name, val)
				}
				pol.MaxInFlight = n
			case "queue":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("server: -tenants %s: queue %q must be a non-negative integer", name, val)
				}
				pol.MaxQueue = n
			case "priority":
				switch val {
				case "low":
					pol.Priority = PriorityLow
				case "normal":
					pol.Priority = PriorityNormal
				case "high":
					pol.Priority = PriorityHigh
				default:
					return nil, fmt.Errorf("server: -tenants %s: priority %q (want low|normal|high)", name, val)
				}
			default:
				return nil, fmt.Errorf("server: -tenants %s: unknown key %q", name, key)
			}
		}
		out[name] = pol
	}
	return out, nil
}

// TenantStats is one tenant's admission accounting snapshot, reported
// in /healthz and consumed by the dbsload SLO report.
type TenantStats struct {
	Tenant        string  `json:"tenant"`
	Weight        float64 `json:"weight"`
	Priority      string  `json:"priority"`
	InFlight      int     `json:"in_flight"`
	Queued        int     `json:"queued"`
	Admitted      int64   `json:"admitted"`
	ShedQueueFull int64   `json:"shed_queue_full,omitempty"`
	ShedExpired   int64   `json:"shed_expired,omitempty"`
	ShedPreempted int64   `json:"shed_preempted,omitempty"`
}

func sortTenantStats(ts []TenantStats) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Tenant < ts[j].Tenant })
}
