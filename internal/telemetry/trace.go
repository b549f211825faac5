package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one logical operation (an injection job) across layers:
// the scheduler allocates one per job and it rides down through CodeFlow
// staging, the initiator QP, the wire protocol, and the target endpoint, so
// one job's queue→validate→jit→link→write→publish path can be dumped with
// its wire verbs correlated. Zero means "untraced".
type TraceID uint64

type traceIDKey struct{}

var traceIDSeq atomic.Uint64

// NextTraceID allocates a process-unique trace ID (monotonic, never zero).
func NextTraceID() TraceID { return TraceID(traceIDSeq.Add(1)) }

// WithTraceID tags a context with a trace ID for downstream layers.
func WithTraceID(ctx context.Context, id TraceID) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom extracts the context's trace ID, or zero if untraced.
func TraceIDFrom(ctx context.Context) TraceID {
	id, _ := ctx.Value(traceIDKey{}).(TraceID)
	return id
}

// TraceEvent is one recorded span: a pipeline stage, an initiator-side wire
// verb, or a target-endpoint verb execution.
type TraceEvent struct {
	Trace TraceID       `json:"trace"`
	Layer string        `json:"layer"` // "pipeline" | "wire" | "endpoint"
	Name  string        `json:"name"`  // stage or verb name
	Node  string        `json:"node,omitempty"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Bytes int           `json:"bytes,omitempty"`
	Err   string        `json:"err,omitempty"`
}

// TraceRecorder is a bounded ring buffer of trace events. Recording is
// O(1) and allocation-free after warm-up; when the ring wraps, the oldest
// events are overwritten (Dropped counts them). All methods are safe for
// concurrent use.
type TraceRecorder struct {
	mu    sync.Mutex
	buf   []TraceEvent
	next  int
	full  bool
	total uint64
}

// DefaultTraceCapacity bounds a recorder built with capacity <= 0.
const DefaultTraceCapacity = 4096

// NewTraceRecorder returns a ring holding up to capacity events
// (DefaultTraceCapacity if capacity <= 0).
func NewTraceRecorder(capacity int) *TraceRecorder {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceRecorder{buf: make([]TraceEvent, capacity)}
}

// Record appends one event, overwriting the oldest if the ring is full.
// Events with a zero trace ID are dropped — untraced operations are the
// common case and must not wash traced jobs out of the ring.
func (t *TraceRecorder) Record(ev TraceEvent) {
	if t == nil || ev.Trace == 0 {
		return
	}
	t.mu.Lock()
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.total++
	t.mu.Unlock()
}

// Span records one completed span ending now.
func (t *TraceRecorder) Span(id TraceID, layer, name, node string, start time.Time, bytes int, err error) {
	if t != nil && id != 0 {
		t.SpanFor(id, layer, name, node, start, time.Since(start), bytes, err)
	}
}

// SpanFor records one completed span that lasted dur from start.
func (t *TraceRecorder) SpanFor(id TraceID, layer, name, node string, start time.Time, dur time.Duration, bytes int, err error) {
	if t == nil || id == 0 {
		return
	}
	ev := TraceEvent{
		Trace: id, Layer: layer, Name: name, Node: node,
		Start: start, Dur: dur, Bytes: bytes,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	t.Record(ev)
}

// Events returns every buffered event, oldest first.
func (t *TraceRecorder) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]TraceEvent(nil), t.buf[:t.next]...)
	}
	out := make([]TraceEvent, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Trace returns the buffered events of one trace ID, ordered by start time.
func (t *TraceRecorder) Trace(id TraceID) []TraceEvent {
	var out []TraceEvent
	for _, ev := range t.Events() {
		if ev.Trace == id {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Dropped reports how many events have been overwritten by ring wrap.
func (t *TraceRecorder) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(len(t.buf)) {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// WriteJSON writes the events of trace id (or all buffered events when id
// is zero) as indented JSON — the /trace body.
func (t *TraceRecorder) WriteJSON(w io.Writer, id TraceID) error {
	evs := t.Events()
	if id != 0 {
		evs = t.Trace(id)
	}
	if evs == nil {
		evs = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(evs)
}

// TraceTable renders one trace's events as a fixed-width span table with
// offsets relative to the first event — the rdxctl trace dump format.
func TraceTable(id TraceID, evs []TraceEvent) *Table {
	t := NewTable(fmt.Sprintf("trace %d", id), "offset", "layer", "name", "node", "dur", "bytes", "err")
	t0 := time.Time{}
	if len(evs) > 0 {
		t0 = evs[0].Start
	}
	for _, ev := range evs {
		bytes := ""
		if ev.Bytes > 0 {
			bytes = fmt.Sprintf("%d", ev.Bytes)
		}
		t.AddRowf(FormatDuration(ev.Start.Sub(t0)), ev.Layer, ev.Name, ev.Node,
			ev.Dur, bytes, ev.Err)
	}
	return t
}
