package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.b")
	c1.Add(3)
	if c2 := r.Counter("a.b"); c2 != c1 || c2.Value() != 3 {
		t.Fatalf("second lookup returned a different counter (value %d)", c2.Value())
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram lookup not stable")
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("rdma.qp.verbs.write").Add(7)
	r.Histogram("rdma.qp.lat.write").RecordDuration(5 * time.Microsecond)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["rdma.qp.verbs.write"] != 7 {
		t.Errorf("counter = %d, want 7", snap.Counters["rdma.qp.verbs.write"])
	}
	h := snap.Histograms["rdma.qp.lat.write"]
	if h.Count != 1 || h.P99 > h.Max || h.P50 < h.Min {
		t.Errorf("histogram summary violates invariants: %+v", h)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared").Inc()
				r.Histogram(fmt.Sprintf("h%d", g%2)).Record(int64(i))
				r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*500 {
		t.Errorf("shared counter = %d, want %d", got, 8*500)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	if TraceIDFrom(context.Background()) != 0 {
		t.Fatal("background context should be untraced")
	}
	id := NextTraceID()
	if id == 0 {
		t.Fatal("NextTraceID returned zero")
	}
	ctx := WithTraceID(context.Background(), id)
	if got := TraceIDFrom(ctx); got != id {
		t.Fatalf("TraceIDFrom = %d, want %d", got, id)
	}
	if NextTraceID() == id {
		t.Fatal("trace IDs must be unique")
	}
}

func TestTraceRecorderRing(t *testing.T) {
	rec := NewTraceRecorder(4)
	for i := 1; i <= 6; i++ {
		rec.Record(TraceEvent{Trace: TraceID(i), Name: fmt.Sprintf("e%d", i), Start: time.Now()})
	}
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	if evs[0].Trace != 3 || evs[3].Trace != 6 {
		t.Errorf("ring kept wrong window: first=%d last=%d", evs[0].Trace, evs[3].Trace)
	}
	if rec.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", rec.Dropped())
	}
}

func TestTraceRecorderFilterAndUntraced(t *testing.T) {
	rec := NewTraceRecorder(16)
	id := NextTraceID()
	base := time.Now()
	rec.Record(TraceEvent{Trace: id, Layer: "pipeline", Name: "queue", Start: base.Add(time.Millisecond)})
	rec.Record(TraceEvent{Trace: id, Layer: "wire", Name: "WRITE", Start: base})
	rec.Record(TraceEvent{Trace: id + 1000, Layer: "wire", Name: "READ", Start: base})
	rec.Record(TraceEvent{Trace: 0, Layer: "wire", Name: "untraced", Start: base})

	got := rec.Trace(id)
	if len(got) != 2 {
		t.Fatalf("Trace(%d) returned %d events, want 2", id, len(got))
	}
	if got[0].Name != "WRITE" {
		t.Errorf("events not ordered by start: %+v", got)
	}
	if len(rec.Events()) != 3 {
		t.Errorf("untraced event was recorded: %d events", len(rec.Events()))
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf, id); err != nil {
		t.Fatal(err)
	}
	var out []TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil || len(out) != 2 {
		t.Fatalf("trace JSON: err=%v len=%d", err, len(out))
	}
}

func TestTraceRecorderSpan(t *testing.T) {
	rec := NewTraceRecorder(8)
	id := NextTraceID()
	rec.Span(id, "wire", "WRITE", "n0", time.Now().Add(-time.Millisecond), 128, fmt.Errorf("boom"))
	evs := rec.Trace(id)
	if len(evs) != 1 {
		t.Fatalf("span not recorded")
	}
	ev := evs[0]
	if ev.Dur < time.Millisecond || ev.Bytes != 128 || ev.Err != "boom" || ev.Node != "n0" {
		t.Errorf("span event = %+v", ev)
	}
	var nilRec *TraceRecorder
	nilRec.Span(id, "wire", "x", "", time.Now(), 0, nil) // must not panic
	nilRec.Record(TraceEvent{Trace: id})
}

func TestTraceTableRendering(t *testing.T) {
	id := NextTraceID()
	base := time.Now()
	tbl := TraceTable(id, []TraceEvent{
		{Trace: id, Layer: "pipeline", Name: "queue", Start: base, Dur: time.Microsecond},
		{Trace: id, Layer: "wire", Name: "BATCH", Start: base.Add(time.Millisecond), Dur: 2 * time.Microsecond, Bytes: 4096},
	})
	out := tbl.String()
	for _, want := range []string{"pipeline", "queue", "wire", "BATCH", "4096"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("trace table missing %q:\n%s", want, out)
		}
	}
}
