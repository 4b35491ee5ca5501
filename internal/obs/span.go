package obs

import (
	"strings"
	"sync/atomic"
	"time"
)

// Span is one timed node of the pipeline's stage tree. Spans are addressed
// by slash-separated paths ("draw", "draw/normalize"): StartSpan creates
// missing ancestors, and re-entering an existing path accumulates into the
// same node, so repeated stages (the two scans of a sweep, say) report
// their total. A span optionally carries the number of points it
// processed, from which the reports derive throughput.
//
// On a traced Recorder each outermost StartSpan/End pair is also one
// occurrence in the request's log (see NewTraced), so the aggregate node
// and the request snapshot come from the same open and close.
//
// A nil *Span — what a nil Recorder hands out — is a valid no-op handle.
type Span struct {
	rec    *Recorder
	path   string
	name   string // last path segment
	child  []*Span
	points atomic.Int64

	// Guarded by rec.mu.
	started time.Time
	open    int
	total   time.Duration
	openPts int64 // points total when the outermost StartSpan opened
}

// StartSpan opens (or re-opens) the span at path, creating any missing
// ancestors as unstarted nodes. Returns nil on a nil Recorder.
func (r *Recorder) StartSpan(path string) *Span {
	if r == nil || path == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spanNodeLocked(path)
	if s.open == 0 {
		s.started = r.clock()
		s.openPts = s.points.Load()
	}
	s.open++
	return s
}

// spanNodeLocked finds or creates the node (and its ancestors) for path.
func (r *Recorder) spanNodeLocked(path string) *Span {
	if r.spans == nil {
		r.spans = make(map[string]*Span)
	}
	if s := r.spans[path]; s != nil {
		return s
	}
	name := path
	var parent *Span
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		name = path[i+1:]
		parent = r.spanNodeLocked(path[:i])
	}
	s := &Span{rec: r, path: path, name: name}
	r.spans[path] = s
	if parent != nil {
		parent.child = append(parent.child, s)
	} else {
		r.roots = append(r.roots, s)
	}
	return s
}

// End closes the span, accumulating the elapsed wall time since the
// matching StartSpan; the outermost End of a traced Recorder also logs
// the occurrence with the points attributed while it was open. No-op on
// a nil handle; extra Ends are ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.open == 0 {
		return
	}
	s.open--
	if s.open == 0 {
		now := r.clock()
		s.total += now.Sub(s.started)
		if r.log != nil {
			r.logLocked(event{
				path:   s.path,
				start:  s.started.Sub(r.start),
				end:    now.Sub(r.start),
				points: s.points.Load() - s.openPts,
			})
		}
	}
}

// AddPoints attributes n processed points to the span. Safe from any
// goroutine; no-op on a nil handle.
func (s *Span) AddPoints(n int64) {
	if s == nil {
		return
	}
	s.points.Add(n)
}

// durationLocked returns the accumulated closed time of the span; an open
// span additionally counts time since it was last started. The caller
// holds the Recorder's lock.
func (s *Span) durationLocked() time.Duration {
	d := s.total
	if s.open > 0 {
		d += s.rec.clock().Sub(s.started)
	}
	return d
}
