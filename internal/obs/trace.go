package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Attr is one span attribute. Values should be strings, ints, floats or
// bools — whatever json.Marshal renders without surprises.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Span is one finished trace span. Times come from the tracer's Clock:
// real nanoseconds at the daemon/CLI boundary, constant zero under the
// no-op clock (the span sequence itself is still meaningful then).
type Span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_unix_nano"`
	End   int64  `json:"end_unix_nano"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// TraceSink is a fixed-capacity ring buffer of finished spans: cheap
// enough to leave always-on, bounded so a week-long daemon cannot grow
// without limit. Safe for concurrent use.
type TraceSink struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	full  bool
	total uint64
}

// NewTraceSink builds a sink holding the last capacity spans (<= 0
// selects 4096).
func NewTraceSink(capacity int) *TraceSink {
	if capacity <= 0 {
		capacity = 4096
	}
	return &TraceSink{buf: make([]Span, 0, capacity)}
}

// Append records one finished span, evicting the oldest when full.
func (s *TraceSink) Append(sp Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.full && len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, sp)
		if len(s.buf) == cap(s.buf) {
			s.full = true
		}
	} else {
		s.buf[s.next] = sp
		s.next = (s.next + 1) % len(s.buf)
	}
	s.total++
	s.mu.Unlock()
}

// Snapshot returns the retained spans oldest-first.
func (s *TraceSink) Snapshot() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Span, 0, len(s.buf))
	if s.full {
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
	} else {
		out = append(out, s.buf...)
	}
	return out
}

// Total counts every span ever appended, including evicted ones.
func (s *TraceSink) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// traceDump is the JSON shape of /v1/trace and -trace-out.
type traceDump struct {
	Total    uint64 `json:"total_spans"`
	Retained int    `json:"retained_spans"`
	Spans    []Span `json:"spans"`
}

// WriteJSON dumps the sink as indented JSON: total span count, retained
// count, and the retained spans oldest-first.
func (s *TraceSink) WriteJSON(w io.Writer) error {
	spans := s.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traceDump{Total: s.Total(), Retained: len(spans), Spans: spans})
}

// Tracer starts spans against a clock and delivers them to a sink. A nil
// tracer starts nil spans; ending a nil span is a no-op — instrumented
// code never branches on whether tracing is armed.
type Tracer struct {
	clock Clock
	sink  *TraceSink
}

// NewTracer builds a tracer (nil clock selects the no-op clock, nil sink
// drops spans).
func NewTracer(clock Clock, sink *TraceSink) *Tracer {
	if clock == nil {
		clock = NopClock()
	}
	return &Tracer{clock: clock, sink: sink}
}

// ActiveSpan is a started, not-yet-finished span.
type ActiveSpan struct {
	t    *Tracer
	span Span
}

// Start opens a span. Attrs attach at start; End may add more.
func (t *Tracer) Start(name string, attrs ...Attr) *ActiveSpan {
	if t == nil || t.sink == nil {
		return nil
	}
	return &ActiveSpan{t: t, span: Span{Name: name, Start: t.clock.Now(), Attrs: attrs}}
}

// End finishes the span and appends it to the sink.
func (s *ActiveSpan) End(attrs ...Attr) {
	if s == nil {
		return
	}
	s.span.End = s.t.clock.Now()
	s.span.Attrs = append(s.span.Attrs, attrs...)
	s.t.sink.Append(s.span)
}
