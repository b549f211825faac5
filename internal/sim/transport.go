package sim

import (
	"context"
	"fmt"
	"sync"

	"rdx/internal/faultnet"
	"rdx/internal/mem"
	"rdx/internal/rdma"
)

// Net is the step-controlled in-memory fabric: named hosts are real
// rdma.Endpoints, and every verb issued through a QP parks as a schedule
// step. What a verb DOES when its step fires is the endpoint's own
// executor (rdma.Endpoint.Local) — rkey resolution against the MR table as
// it is at fire time (so a rotation revokes in-flight stale verbs exactly
// like ibv_rereg_mr does on real hardware), permission and bounds checks,
// atomics, batch flush, chain stepping, doorbells and the typed-error
// taxonomy are the shipped ones, not a model of them. The simulator adds
// only scheduling and faults.
//
// Faults reuse faultnet's vocabulary: a cut or severed link fails verbs
// with an error wrapping faultnet.ErrInjected (a net.Error, Temporary) —
// so the typed-error classification in the code under test behaves exactly
// as it does over the TCP transport.
type Net struct {
	s *Scheduler

	mu      sync.Mutex
	hosts   map[string]rdma.Verbs
	cuts    map[string]bool // "initiator|host" → link partitioned
	severed map[string]bool // initiator killed (permanent)
	dupNext map[string]bool // "initiator|host" → duplicate the next WRITE delivery
}

// NewNet builds a fabric bound to s.
func NewNet(s *Scheduler) *Net {
	return &Net{
		s:       s,
		hosts:   map[string]rdma.Verbs{},
		cuts:    map[string]bool{},
		severed: map[string]bool{},
		dupNext: map[string]bool{},
	}
}

// AddHost registers ep as the named host. The endpoint needs no listener:
// fired verbs run on it in-process.
func (n *Net) AddHost(name string, ep *rdma.Endpoint) {
	n.mu.Lock()
	n.hosts[name] = ep.Local()
	n.mu.Unlock()
}

func linkKey(initiator, host string) string { return initiator + "|" + host }

// Cut partitions the initiator→host link: fired verbs fail injected until
// Heal.
func (n *Net) Cut(initiator, host string) {
	n.mu.Lock()
	n.cuts[linkKey(initiator, host)] = true
	n.mu.Unlock()
}

// Heal restores a Cut link.
func (n *Net) Heal(initiator, host string) {
	n.mu.Lock()
	delete(n.cuts, linkKey(initiator, host))
	n.mu.Unlock()
}

// Severed reports whether the initiator has been killed.
func (n *Net) Severed(initiator string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.severed[initiator]
}

// Sever kills an initiator permanently: every verb from any of its QPs
// fails injected from the next fire on (the leader-kill fault).
func (n *Net) Sever(initiator string) {
	n.mu.Lock()
	n.severed[initiator] = true
	n.mu.Unlock()
}

// DuplicateNextWrite makes the next WRITE fired on initiator→host apply
// twice — modeling an RC retransmission of an already-applied WRITE
// (atomics are PSN-protected on real fabrics and are never duplicated).
// The initiator observes a single completion; the invariant suite is what
// proves the protocol is idempotent under the duplicate.
func (n *Net) DuplicateNextWrite(initiator, host string) {
	n.mu.Lock()
	n.dupNext[linkKey(initiator, host)] = true
	n.mu.Unlock()
}

// QP opens a queue pair from initiator to host. The returned Verbs parks
// every operation as a schedule step.
func (n *Net) QP(initiator, host string) *QP {
	return &QP{net: n, initiator: initiator, host: host}
}

// QP is a sim queue pair implementing rdma.Verbs.
type QP struct {
	net       *Net
	initiator string
	host      string
}

var _ rdma.Verbs = (*QP)(nil)

// gate returns the host's issuer after fault checks, at fire time.
func (q *QP) gate() (rdma.Verbs, error) {
	n := q.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.severed[q.initiator] {
		return nil, fmt.Errorf("sim: initiator %q severed: %w", q.initiator, faultnet.ErrInjected)
	}
	if n.cuts[linkKey(q.initiator, q.host)] {
		return nil, fmt.Errorf("sim: link %s→%s partitioned: %w", q.initiator, q.host, faultnet.ErrInjected)
	}
	h := n.hosts[q.host]
	if h == nil {
		return nil, fmt.Errorf("sim: unknown host %q: %w", q.host, faultnet.ErrInjected)
	}
	return h, nil
}

// do parks one verb as a schedule step; when the scheduler fires it, fn
// runs against the host's issuer unless a fault gates it.
func (q *QP) do(op string, addr mem.Addr, fn func(h rdma.Verbs) error) error {
	label := fmt.Sprintf("%s→%s %s@%#x", q.initiator, q.host, op, addr)
	var err error
	fire := func() {
		var h rdma.Verbs
		if h, err = q.gate(); err == nil {
			err = fn(h)
		}
	}
	if !q.net.s.parkVerb(label, fire) {
		return fmt.Errorf("sim: %s: %w", label, ErrAborted)
	}
	return err
}

// write parks one WRITE-class verb, honoring the duplicate-delivery fault:
// a delivery that landed consumes a pending duplicate and lands again.
func (q *QP) write(op string, addr mem.Addr, fn func(h rdma.Verbs) error) error {
	return q.do(op, addr, func(h rdma.Verbs) error {
		err := fn(h)
		if err != nil {
			return err
		}
		n, key := q.net, linkKey(q.initiator, q.host)
		n.mu.Lock()
		dup := n.dupNext[key]
		delete(n.dupNext, key)
		n.mu.Unlock()
		if dup {
			err = fn(h)
		}
		return err
	})
}

// ReadCtx implements rdma.Verbs.
func (q *QP) ReadCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) (out []byte, err error) {
	err = q.do("READ", addr, func(h rdma.Verbs) (err error) {
		out, err = h.ReadCtx(ctx, rkey, addr, n)
		return err
	})
	return out, err
}

// WriteCtx implements rdma.Verbs.
func (q *QP) WriteCtx(ctx context.Context, rkey uint32, addr mem.Addr, data []byte) error {
	return q.write("WRITE", addr, func(h rdma.Verbs) error { return h.WriteCtx(ctx, rkey, addr, data) })
}

// WriteImmCtx implements rdma.Verbs.
func (q *QP) WriteImmCtx(ctx context.Context, rkey uint32, addr mem.Addr, imm uint32, data []byte) error {
	return q.write("WRITE_IMM", addr, func(h rdma.Verbs) error { return h.WriteImmCtx(ctx, rkey, addr, imm, data) })
}

// WriteBatchCtx implements rdma.Verbs: the chain fires as ONE step (one
// doorbell ring moves the whole chain).
func (q *QP) WriteBatchCtx(ctx context.Context, ops []rdma.BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	return q.write(fmt.Sprintf("BATCH[%d]", len(ops)), ops[0].Addr, func(h rdma.Verbs) error { return h.WriteBatchCtx(ctx, ops) })
}

// CompareAndSwapCtx implements rdma.Verbs.
func (q *QP) CompareAndSwapCtx(ctx context.Context, rkey uint32, addr mem.Addr, old, new uint64) (prev uint64, err error) {
	err = q.do("CAS", addr, func(h rdma.Verbs) (err error) {
		prev, err = h.CompareAndSwapCtx(ctx, rkey, addr, old, new)
		return err
	})
	return prev, err
}

// FetchAddCtx implements rdma.Verbs.
func (q *QP) FetchAddCtx(ctx context.Context, rkey uint32, addr mem.Addr, delta uint64) (prev uint64, err error) {
	err = q.do("FETCH_ADD", addr, func(h rdma.Verbs) (err error) {
		prev, err = h.FetchAddCtx(ctx, rkey, addr, delta)
		return err
	})
	return prev, err
}

// ChainTriggerCtx implements rdma.Verbs: the whole resident program fires
// as ONE schedule step — between trigger and effect there are no initiator
// round trips for the scheduler to interleave with. WAITs see a frozen
// world, so an unsatisfied WAIT deterministically exhausts its bounded spin
// budget and faults; schedules that need one satisfied must order the
// satisfying write before the trigger.
func (q *QP) ChainTriggerCtx(ctx context.Context, rkey uint32, addr mem.Addr, arg uint64) (out rdma.ChainResult, err error) {
	err = q.do("CHAIN_TRIGGER", addr, func(h rdma.Verbs) (err error) {
		out, err = h.ChainTriggerCtx(ctx, rkey, addr, arg)
		return err
	})
	return out, err
}

// RotateMRCtx implements rdma.Verbs: remote re-keying parks as a step.
func (q *QP) RotateMRCtx(ctx context.Context, name string) (rkey uint32, err error) {
	err = q.do("ROTATE_MR", 0, func(h rdma.Verbs) (err error) {
		rkey, err = h.RotateMRCtx(ctx, name)
		return err
	})
	return rkey, err
}

// QueryMRs implements rdma.Verbs: MR discovery is a wire round trip, so
// it parks as a step too.
func (q *QP) QueryMRs() (out []rdma.MR, err error) {
	err = q.do("QUERY_MRS", 0, func(h rdma.Verbs) (err error) {
		out, err = h.QueryMRs()
		return err
	})
	return out, err
}

// Close implements rdma.Verbs (sim QPs hold no resources).
func (q *QP) Close() error { return nil }
