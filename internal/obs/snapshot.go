package obs

import (
	"sort"
	"strings"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// EventJSON is the flat form of one event in a snapshot.
type EventJSON struct {
	Path    string  `json:"path"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	Points  int64   `json:"points,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// SpanJSON is one node of the rendered span tree. Containers
// synthesized for paths that never recorded an event of their own (a
// "cache" node grouping "cache/est" and "cache/sample") carry
// Synthetic: true and span their children's extent.
type SpanJSON struct {
	Name      string     `json:"name"`
	Path      string     `json:"path"`
	StartMs   float64    `json:"start_ms"`
	EndMs     float64    `json:"end_ms"`
	Points    int64      `json:"points,omitempty"`
	Note      string     `json:"note,omitempty"`
	Synthetic bool       `json:"synthetic,omitempty"`
	Children  []SpanJSON `json:"children,omitempty"`
}

// Snapshot is a completed trace, sealed by Recorder.Finish: what the
// /debug/traces ring stores and serves. Events is the flat record; Spans the same events nested
// by slash path and interval containment.
type Snapshot struct {
	ID         string      `json:"trace_id"`
	Route      string      `json:"route,omitempty"`
	Status     int         `json:"status,omitempty"`
	Start      time.Time   `json:"start"`
	DurationMs float64     `json:"duration_ms"`
	Cache      string      `json:"cache,omitempty"`
	Slow       bool        `json:"slow,omitempty"`
	Orphans    int         `json:"orphan_spans,omitempty"`
	Dropped    int         `json:"dropped_events,omitempty"`
	Events     []EventJSON `json:"events"`
	Spans      []SpanJSON  `json:"spans"`
}

// treeNode is the mutable form used while nesting events.
type treeNode struct {
	span     SpanJSON
	start    time.Duration
	end      time.Duration
	parent   *treeNode
	children []*treeNode
}

// buildTree nests events by slash path: an event's parent is the
// latest event at its parent path whose interval contains it (falling
// back to start containment, then to a synthesized container), so
// repeated stages — two scan passes, retried builds — become sibling
// occurrences rather than merged totals.
func buildTree(events []event) []SpanJSON {
	if len(events) == 0 {
		return nil
	}
	nodes := make([]*treeNode, len(events))
	for i, e := range events {
		nodes[i] = &treeNode{
			span: SpanJSON{
				Name:    lastSegment(e.path),
				Path:    e.path,
				StartMs: ms(e.start),
				EndMs:   ms(e.end),
				Points:  e.points,
				Note:    e.note,
			},
			start: e.start,
			end:   e.end,
		}
	}
	// Parents first: earlier start, and at equal starts the longer
	// (containing) interval.
	sort.SliceStable(nodes, func(i, j int) bool {
		if nodes[i].start != nodes[j].start {
			return nodes[i].start < nodes[j].start
		}
		return nodes[i].end > nodes[j].end
	})

	byPath := make(map[string][]*treeNode)
	var roots []*treeNode
	var attach func(n *treeNode)
	attach = func(n *treeNode) {
		parent := parentPath(n.span.Path)
		if parent == "" {
			roots = append(roots, n)
			byPath[n.span.Path] = append(byPath[n.span.Path], n)
			return
		}
		var best *treeNode
		for _, cand := range byPath[parent] {
			if cand.start <= n.start && cand.end >= n.end {
				best = cand
			}
		}
		if best == nil {
			for _, cand := range byPath[parent] {
				if cand.start <= n.start && cand.end >= n.start {
					best = cand
				}
			}
		}
		if best == nil {
			// Reuse an existing synthesized container at this path rather
			// than growing a sibling: real occurrences (retried stages,
			// repeated scans) stay separate, but containers that exist only
			// to group a path extend to cover every child.
			for _, cand := range byPath[parent] {
				if cand.span.Synthetic {
					best = cand
				}
			}
		}
		if best == nil {
			best = &treeNode{
				span: SpanJSON{
					Name:      lastSegment(parent),
					Path:      parent,
					StartMs:   ms(n.start),
					EndMs:     ms(n.end),
					Synthetic: true,
				},
				start: n.start,
				end:   n.end,
			}
			attach(best)
		}
		// Extend synthesized ancestors to span the new child's extent.
		for p := best; p != nil && p.span.Synthetic && p.end < n.end; p = p.parent {
			p.end = n.end
			p.span.EndMs = ms(n.end)
		}
		n.parent = best
		best.children = append(best.children, n)
		byPath[n.span.Path] = append(byPath[n.span.Path], n)
	}
	for _, n := range nodes {
		attach(n)
	}

	var render func(ns []*treeNode) []SpanJSON
	render = func(ns []*treeNode) []SpanJSON {
		out := make([]SpanJSON, len(ns))
		for i, n := range ns {
			s := n.span
			s.Children = render(n.children)
			out[i] = s
		}
		return out
	}
	return render(roots)
}

func parentPath(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return ""
}

func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
