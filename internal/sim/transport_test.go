package sim

import (
	"errors"
	"testing"

	"rdx/internal/faultnet"
	"rdx/internal/mem"
	"rdx/internal/rdma"
)

// transportFixture wires one endpoint host exposing a 128-byte PermAll MR
// and runs fn as a single proc under a deterministic schedule. What verbs
// DO is the endpoint's business (conformance_test.go); these tests cover
// what the simulator adds — faults and step accounting.
func transportFixture(t *testing.T, fn func(n *Net, qp *QP, rkey uint32)) *Result {
	t.Helper()
	s := New(Config{Det: true})
	n := NewNet(s)
	ep := rdma.NewEndpoint(mem.NewArena(128), nil)
	defer ep.Close()
	mr, err := ep.RegisterMR("m", 0, 128, rdma.PermAll)
	if err != nil {
		t.Fatal(err)
	}
	n.AddHost("h", ep)
	qp := n.QP("c", "h")
	done := false
	s.Spawn("proc", func() {
		fn(n, qp, mr.RKey)
		done = true
	})
	res := s.Run()
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if !done {
		t.Fatal("proc did not run to completion")
	}
	return res
}

// TestTransportCutHeal: a cut link fails verbs with faultnet.ErrInjected;
// healing restores it.
func TestTransportCutHeal(t *testing.T) {
	transportFixture(t, func(n *Net, qp *QP, rkey uint32) {
		n.Cut("c", "h")
		if err := qp.WriteCtx(nil, rkey, 0, []byte{1}); !errors.Is(err, faultnet.ErrInjected) {
			t.Errorf("cut write: got %v, want ErrInjected", err)
		}
		n.Heal("c", "h")
		if err := qp.WriteCtx(nil, rkey, 0, []byte{1}); err != nil {
			t.Errorf("healed write: %v", err)
		}
	})
}

// TestTransportSever: a severed initiator fails permanently — Heal does
// not resurrect it.
func TestTransportSever(t *testing.T) {
	transportFixture(t, func(n *Net, qp *QP, rkey uint32) {
		n.Sever("c")
		if !n.Severed("c") {
			t.Error("Severed not reported")
		}
		if _, err := qp.ReadCtx(nil, rkey, 0, 8); !errors.Is(err, faultnet.ErrInjected) {
			t.Errorf("severed read: got %v, want ErrInjected", err)
		}
		n.Heal("c", "h")
		if _, err := qp.FetchAddCtx(nil, rkey, 0, 1); !errors.Is(err, faultnet.ErrInjected) {
			t.Errorf("severed fetch-add after heal: got %v, want ErrInjected", err)
		}
	})
}

// TestTransportDuplicateWrite: the duplicate-delivery fault applies the
// next WRITE twice and is then consumed; plain WRITEs are idempotent so
// memory is unchanged, and subsequent writes are delivered once.
func TestTransportDuplicateWrite(t *testing.T) {
	transportFixture(t, func(n *Net, qp *QP, rkey uint32) {
		n.DuplicateNextWrite("c", "h")
		if err := qp.WriteCtx(nil, rkey, 0, []byte{0xAA}); err != nil {
			t.Errorf("duplicated write: %v", err)
		}
		b, err := qp.ReadCtx(nil, rkey, 0, 1)
		if err != nil || b[0] != 0xAA {
			t.Errorf("read back %v, %v", b, err)
		}
		n.mu.Lock()
		pendingDup := n.dupNext[linkKey("c", "h")]
		n.mu.Unlock()
		if pendingDup {
			t.Error("duplicate flag not consumed by the WRITE")
		}
	})
}

// TestTransportBatchSingleStep: a WriteBatch fires as one schedule step.
func TestTransportBatchSingleStep(t *testing.T) {
	res := transportFixture(t, func(n *Net, qp *QP, rkey uint32) {
		err := qp.WriteBatchCtx(nil, []rdma.BatchOp{
			{RKey: rkey, Addr: 0, Data: []byte{1}},
			{RKey: rkey, Addr: 8, Data: []byte{2}},
			{RKey: rkey, Addr: 16, Data: []byte{3}},
		})
		if err != nil {
			t.Errorf("batch: %v", err)
		}
	})
	if res.Steps != 1 {
		t.Fatalf("3-op batch took %d steps, want 1", res.Steps)
	}
}
