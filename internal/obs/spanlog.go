package obs

import (
	"context"
	"fmt"
	"time"
)

// MaxEvents bounds the occurrences one request's log retains; recording
// beyond it increments the snapshot's DroppedEvents instead of growing
// memory.
const MaxEvents = 512

// event is one logged occurrence: a slash path, start and end offsets
// from the recorder's start (monotonic clock readings, never wall time),
// the points attributed between them, and an optional note. Point
// annotations have start == end.
type event struct {
	path   string
	start  time.Duration
	end    time.Duration
	points int64
	note   string
}

// spanLog is the per-request occurrence log of a traced Recorder, guarded
// by the Recorder's mu.
type spanLog struct {
	id      string
	events  []event
	dropped int
	done    bool
}

// NewTraced returns a Recorder that also logs one request's occurrences
// under the trace ID id: every outermost span close (Span.End), every
// region its caller timed (Region), and every point annotation (Eventf),
// in recording order and at most MaxEvents of them. Finish seals the log
// into the /debug/traces snapshot. On a Recorder made by New, the log
// methods cost one nil check.
func NewTraced(id string) *Recorder {
	r := New()
	r.log = &spanLog{id: id}
	return r
}

// logLocked appends e unless the log is sealed or full. r.mu is held and
// r.log is non-nil.
func (r *Recorder) logLocked(e event) {
	l := r.log
	if l.done {
		return
	}
	if len(l.events) >= MaxEvents {
		l.dropped++
		return
	}
	l.events = append(l.events, e)
}

// ID returns the trace ID ("" when the Recorder keeps no log, or is nil).
func (r *Recorder) ID() string {
	if r == nil || r.log == nil {
		return ""
	}
	return r.log.id
}

// Region logs one occurrence of path that the caller timed itself, from
// start to now, with points and a formatted note (a cache lookup and its
// outcome, a registry acquire, a shard RPC attempt). It feeds the log only:
// the aggregate span tree holds pipeline stages, not per-request
// lookups. The note is formatted only on a traced Recorder.
func (r *Recorder) Region(path string, start time.Time, points int64, format string, args ...any) {
	if r == nil || r.log == nil {
		return
	}
	note := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.logLocked(event{path: path, start: start.Sub(r.start), end: r.clock().Sub(r.start), points: points, note: note})
	r.mu.Unlock()
}

// Eventf logs a point annotation (an injected fault, a retry, a pool run)
// at now. The note is formatted only on a traced Recorder.
func (r *Recorder) Eventf(path, format string, args ...any) {
	if r == nil || r.log == nil {
		return
	}
	note := fmt.Sprintf(format, args...)
	r.mu.Lock()
	at := r.clock().Sub(r.start)
	r.logLocked(event{path: path, start: at, end: at, note: note})
	r.mu.Unlock()
}

// Finish seals the log and returns the request's snapshot: no further
// occurrences are logged, spans still open count as orphans (a completed
// request should have none — asserted by the chaos suite), and the log
// is rendered into the span tree. The first call on a traced Recorder
// returns the snapshot; later calls, and any call on an untraced one,
// return an empty snapshot.
func (r *Recorder) Finish(route string, status int, cache string) Snapshot {
	if r == nil || r.log == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	l := r.log
	if l.done {
		r.mu.Unlock()
		return Snapshot{}
	}
	l.done = true
	dur := r.clock().Sub(r.start)
	orphans := 0
	for _, s := range r.spans {
		if s.open > 0 {
			orphans++
		}
	}
	r.mu.Unlock()

	snap := Snapshot{
		ID:         l.id,
		Route:      route,
		Status:     status,
		Start:      r.start,
		DurationMs: ms(dur),
		Cache:      cache,
		Orphans:    orphans,
		Dropped:    l.dropped,
		Events:     make([]EventJSON, len(l.events)),
	}
	for i, e := range l.events {
		snap.Events[i] = EventJSON{
			Path:    e.path,
			StartMs: ms(e.start),
			EndMs:   ms(e.end),
			Points:  e.points,
			Note:    e.note,
		}
	}
	snap.Spans = buildTree(l.events)
	return snap
}

// ctxKey is the private context key for a request's Recorder.
type ctxKey struct{}

// NewContext returns a context carrying r. A nil Recorder returns ctx
// unchanged, so callers can attach unconditionally.
func NewContext(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the Recorder carried by ctx, or nil. Safe on a nil
// context, for callers that hold only a context (fault points, the shard
// coordinator and its RPC client).
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}
