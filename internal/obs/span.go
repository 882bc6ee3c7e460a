package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are lightweight in-process trace nodes: a Trace is one tree per
// request or job, spans nest through explicit StartChild calls or through
// context.Context propagation (ContextWithSpan / StartSpan). All methods
// are nil-receiver safe, so instrumented code paths need no "is tracing
// on" branches, and safe for concurrent use, so parallel phases of one job
// can attach children to a shared parent.
//
// Memory is bounded: each span keeps at most MaxChildren children (extra
// starts are counted, not stored), so per-trajectory-stride search spans
// cannot grow a long job's trace without limit.

// MaxChildren caps the stored children per span.
const MaxChildren = 128

// droppedSpans counts spans discarded process-wide by the MaxChildren cap.
// Per-span drops already surface in that span's snapshot, but nothing
// aggregated them, so cap-induced data loss was invisible to a scrape.
var droppedSpans atomic.Int64

// DroppedSpans reports the process-wide number of spans discarded because
// their parent hit MaxChildren (exported as obs_dropped_spans_total).
func DroppedSpans() int64 { return droppedSpans.Load() }

// Span is one timed operation in a trace tree.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time // zero while running
	children []*Span
	dropped  int
	attrs    []attr // a handful per span; a slice is far smaller than a map
}

// attr is one span attribute.
type attr struct {
	key   string
	value any
}

// Trace is a per-job/per-request span tree.
type Trace struct {
	ID   string
	root *Span
}

// NewTrace starts a trace whose root span begins now.
func NewTrace(id, rootName string) *Trace {
	return &Trace{ID: id, root: &Span{name: rootName, start: time.Now()}}
}

// Root returns the root span (nil-safe).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// End finishes the root span.
func (t *Trace) End() { t.Root().End() }

// StartChild starts a child span under s. Returns nil (safe for all Span
// methods) when s is nil or the child cap is reached — the drop is counted
// and surfaced in the snapshot.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Check the cap before allocating the child or reading the clock: a
	// long job drops most of its per-stride spans here.
	if len(s.children) >= MaxChildren {
		s.dropped++
		droppedSpans.Add(1)
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.children = append(s.children, c)
	return c
}

// End finishes the span; the first End wins, later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Set attaches (or overwrites) an attribute. Values should be JSON-encodable
// scalars; attributes are for small annotations (eval counts, model IDs),
// not payloads.
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].value = value
			return
		}
	}
	s.attrs = append(s.attrs, attr{key, value})
}

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom returns the current span of ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan starts a child of ctx's current span and returns a context
// carrying the child. With no span in ctx it returns ctx and nil — both
// safe to use unconditionally.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.StartChild(name)
	if c == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, c), c
}

// SpanSnapshot is the JSON view of one span. Times are relative to the
// trace root's start so trees are readable without clock context.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	StartMS    float64        `json:"start_ms"`
	DurationMS float64        `json:"duration_ms"`
	Running    bool           `json:"running,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Dropped    int            `json:"dropped_children,omitempty"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot renders the trace tree; running spans report their duration so
// far. Nil-safe (returns the zero snapshot).
func (t *Trace) Snapshot() SpanSnapshot {
	if t == nil || t.root == nil {
		return SpanSnapshot{}
	}
	now := time.Now()
	return t.root.snapshot(t.root.start, now)
}

func (s *Span) snapshot(origin, now time.Time) SpanSnapshot {
	s.mu.Lock()
	end := s.end
	running := end.IsZero()
	if running {
		end = now
	}
	var attrs map[string]any
	if len(s.attrs) > 0 {
		attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			attrs[a.key] = a.value
		}
	}
	children := append([]*Span(nil), s.children...)
	dropped := s.dropped
	s.mu.Unlock()

	snap := SpanSnapshot{
		Name:       s.name,
		StartMS:    float64(s.start.Sub(origin).Microseconds()) / 1e3,
		DurationMS: float64(end.Sub(s.start).Microseconds()) / 1e3,
		Running:    running,
		Attrs:      attrs,
		Dropped:    dropped,
	}
	for _, c := range children {
		snap.Children = append(snap.Children, c.snapshot(origin, now))
	}
	return snap
}
