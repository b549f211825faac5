package rdma

import (
	"context"
	"testing"
	"time"

	"rdx/internal/mem"
	"rdx/internal/telemetry"
)

func TestOpNameLabels(t *testing.T) {
	for op, want := range map[uint8]string{
		OpRead: "read", OpWrite: "write", OpCAS: "cas",
		OpFetchAdd: "fetch_add", OpWriteImm: "write_imm",
		OpQueryMRs: "query_mrs", OpBatch: "batch",
	} {
		if got := OpName(op); got != want {
			t.Errorf("OpName(%d) = %q, want %q", op, got, want)
		}
	}
	if got := OpName(0xEE); got != "unknown" {
		t.Errorf("OpName(0xEE) = %q", got)
	}
}

// TestNilWireMetricsSafe pins the no-op contract: every record helper must
// be callable on a nil receiver (uninstrumented QPs and endpoints).
func TestNilWireMetricsSafe(t *testing.T) {
	var m *WireMetrics
	m.verbDone(OpWrite, 10, 5, nil)
	m.served(OpRead, 10, 5, 5, nil)
	m.sent(3)
	m.timedOut()
	m.reconnected()
	m.replayed()
	m.doorbellFired()
}

// reconnects installs wire metrics on r and returns a reader of its
// rdma.qp.reconnects counter: the successful redials since the call.
func reconnects(r *ReconnQP) func() uint64 {
	reg := telemetry.NewRegistry()
	r.SetInstruments(NewWireMetrics(reg, "rdma.qp"), nil, "n")
	return reg.Counter("rdma.qp.reconnects").Value
}

// TestWireMetricsAccumulateAcrossReconnect is the no-double-count guarantee:
// instruments are registry-owned and shared by every QP generation behind a
// ReconnQP, so a mid-stream connection kill must neither reset the counters
// nor record any completion twice — the verb counter and its latency
// histogram stay in lockstep across the redial.
func TestWireMetricsAccumulateAcrossReconnect(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewWireMetrics(reg, "rdma.qp")
	_, mr, d, r := reconnRig(t, 1<<16)
	r.SetInstruments(m, nil, "n")

	if err := r.WriteCtx(context.Background(), mr.RKey, 0, []byte("one")); err != nil {
		t.Fatal(err)
	}
	d.last().Kill()
	if err := r.WriteCtx(context.Background(), mr.RKey, 64, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCtx(context.Background(), mr.RKey, 128, []byte("three")); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["rdma.qp.reconnects"]; got != 1 {
		t.Fatalf("reconnects = %d, want 1 (the test needs exactly one)", got)
	}
	// Three writes succeeded across two generations; the one that straddled
	// the kill may additionally have completed with a transport error before
	// its replay. A generation that reset its instruments would report < 3.
	writes := snap.Counters["rdma.qp.verbs.write"]
	if writes < 3 {
		t.Errorf("verbs.write = %d, want >= 3 (counter reset across reconnect?)", writes)
	}
	if errs := snap.Counters["rdma.qp.errors"]; writes-errs != 3 {
		t.Errorf("successful writes = %d (verbs %d - errors %d), want exactly 3",
			writes-errs, writes, errs)
	}
	// Each completion records into the histogram exactly once: count drift
	// in either direction means double-counting or dropped samples.
	if h := snap.Histograms["rdma.qp.lat.write"]; h.Count != writes {
		t.Errorf("lat.write count = %d, verbs.write = %d; must match", h.Count, writes)
	}
	if got := snap.Counters["rdma.qp.bytes_out"]; got == 0 {
		t.Error("bytes_out = 0 after three writes")
	}
}

// TestEndpointServedMetricsAndTrace drives one traced verb through a live
// endpoint and checks the service-side accounting: the endpoint's registry
// counts the verb, and its trace recorder tags the span with the trace ID
// the initiator put on the wire.
func TestEndpointServedMetricsAndTrace(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTraceRecorder(16)
	arena := mem.NewArena(1 << 12)
	ep := NewEndpoint(arena, nil)
	ep.SetInstruments(NewWireMetrics(reg, "ep"), tr, "node-under-test")
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	fab := NewFabric()
	l, err := fab.Listen("n")
	if err != nil {
		t.Fatal(err)
	}
	go ep.Serve(l)
	conn, err := fab.Dial("n")
	if err != nil {
		t.Fatal(err)
	}
	qp := NewQP(conn)
	t.Cleanup(func() {
		qp.Close()
		ep.Close()
	})

	trace := telemetry.NextTraceID()
	ctx := telemetry.WithTraceID(context.Background(), trace)
	if err := qp.WriteCtx(ctx, mr.RKey, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// The endpoint records after replying, so give its goroutine a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(tr.Trace(trace)) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if got := reg.Snapshot().Counters["ep.verbs.write"]; got != 1 {
		t.Errorf("endpoint verbs.write = %d, want 1", got)
	}
	evs := tr.Trace(trace)
	if len(evs) != 1 || evs[0].Layer != "endpoint" || evs[0].Name != "write" {
		t.Fatalf("trace events = %+v, want one endpoint write span", evs)
	}
	if evs[0].Node != "node-under-test" {
		t.Errorf("span node = %q", evs[0].Node)
	}
}
