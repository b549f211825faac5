package rdma

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"rdx/internal/mem"
	"rdx/internal/telemetry"
)

// ReconnConfig shapes a ReconnQP. Wire metrics, the trace recorder and the
// node label come through SetInstruments.
type ReconnConfig struct {
	// Dial opens a fresh transport to the endpoint. Required. It is called
	// once eagerly by NewReconnQP and again after every transport failure.
	Dial func() (net.Conn, error)

	// VerbTimeout is installed on every underlying QP (QP.SetTimeout): a
	// verb whose completion never arrives fails with ErrTimeout — treated
	// as a transport failure — instead of hanging. Default 2s; negative
	// disables the deadline.
	VerbTimeout time.Duration

	// Logf receives reconnect-path diagnostics (log.Printf if nil).
	Logf func(format string, args ...interface{})
}

// One verb tolerates maxRedials transport failures (dial failures
// included) before giving up, sleeping redialBackoff before the first
// redial and doubling it per consecutive failure.
const (
	maxRedials    = 3
	redialBackoff = 2 * time.Millisecond
)

func (c *ReconnConfig) fillDefaults() {
	if c.VerbTimeout == 0 {
		c.VerbTimeout = 2 * time.Second
	}
	if c.VerbTimeout < 0 {
		c.VerbTimeout = 0
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// ReconnQP is a fault-tolerant initiator: it drives verbs through an
// underlying QP and, when the transport dies, redials, re-runs QueryMRs to
// re-resolve rkeys (they may change across endpoint restarts — stale rkeys
// held by callers are translated by MR name), and replays the failed verb
// when that is provably safe:
//
//   - READ / WRITE / WriteBatch / WRITE_WITH_IMM are idempotent against a
//     stable region layout and are replayed transparently (a replayed
//     WriteImm re-fires the doorbell; RDX doorbell handlers — cacheline
//     invalidation — are idempotent by design).
//   - CAS / FETCH_ADD are replayed only when provably unexecuted (the post
//     was refused before reaching the wire, ErrUnposted). A lost completion
//     after posting surfaces as ErrUncertain, matching real RC-QP error
//     semantics: the initiator cannot know whether the atomic landed.
//
// Rkeys handed to callers (via this wrapper's QueryMRs) are VIRTUAL: the
// first rkey observed for a region name stays that region's caller-visible
// rkey across every reconnect, and the wrapper translates it to the live
// connection's real rkey at verb-issue time. A restarted endpoint may
// renumber its regions — even reusing an old rkey for a different region —
// without invalidating any handle the caller holds.
//
// The wrapper assumes the endpoint's *named* regions keep their address
// layout across restarts (true for RDX nodes, whose arena layout is
// deterministic); only rkeys are re-resolved.
//
// All methods are safe for concurrent use.
type ReconnQP struct {
	cfg ReconnConfig
	// maxRedials and backoff are the package constants; tests may shrink
	// them before the first verb.
	maxRedials int
	backoff    time.Duration

	mu      sync.Mutex
	qp      *QP    // live QP, nil while disconnected
	gen     uint64 // connection generation, bumped per successful dial
	closed  bool
	virt    map[string]uint32 // MR name → stable caller-visible rkey
	current map[string]uint32 // MR name → rkey on the live connection
	// The SetInstruments binding, installed on every QP generation so
	// verb counts, latency histograms and wire spans accumulate across
	// reconnects (the instruments are registry-owned; a fresh generation
	// never resets them). The wrapper itself feeds the reconnects and
	// replays counters.
	metrics *WireMetrics
	tracer  *telemetry.TraceRecorder
	node    string
}

// NewReconnQP dials the first connection eagerly (so configuration errors
// surface immediately) and returns the wrapper.
func NewReconnQP(cfg ReconnConfig) (*ReconnQP, error) {
	if cfg.Dial == nil {
		return nil, errors.New("rdma: ReconnConfig.Dial is required")
	}
	cfg.fillDefaults()
	r := &ReconnQP{
		cfg:        cfg,
		maxRedials: maxRedials,
		backoff:    redialBackoff,
		virt:       make(map[string]uint32),
		current:    make(map[string]uint32),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.connectLocked(); err != nil {
		return nil, fmt.Errorf("rdma: initial connect: %w", err)
	}
	return r, nil
}

// connectLocked dials, installs the verb deadline, and refreshes the rkey
// translation tables from the endpoint's current MR table. Caller holds mu.
func (r *ReconnQP) connectLocked() error {
	conn, err := r.cfg.Dial()
	if err != nil {
		return err
	}
	qp := NewQP(conn)
	qp.SetTimeout(r.cfg.VerbTimeout)
	qp.SetInstruments(r.metrics, r.tracer, r.node)
	mrs, err := qp.QueryMRs()
	if err != nil {
		qp.Close()
		return err
	}
	for _, mr := range mrs {
		r.adoptLocked(mr.Name, mr.RKey)
	}
	r.qp = qp
	r.gen++
	return nil
}

// adoptLocked records a region's live rkey and returns its stable virtual
// rkey, assigning one on first sight. The live rkey is preferred as the
// virtual value, but a restarted endpoint may hand a NEW region an rkey
// number an older region already owns virtually — then a free number is
// picked instead, keeping the virtual space collision-free. Caller holds mu.
func (r *ReconnQP) adoptLocked(name string, rkey uint32) uint32 {
	r.current[name] = rkey
	if v, ok := r.virt[name]; ok {
		return v
	}
	used := make(map[uint32]bool, len(r.virt))
	for _, v := range r.virt {
		used[v] = true
	}
	v := rkey
	for used[v] {
		v++
	}
	r.virt[name] = v
	return v
}

// SetInstruments attaches wire metrics, a trace recorder, and a node label
// to this connection — the live QP immediately, and every future generation
// as it is dialed — mirroring (*QP).SetInstruments so callers can
// instrument either issuer uniformly after construction.
func (r *ReconnQP) SetInstruments(m *WireMetrics, tr *telemetry.TraceRecorder, node string) {
	r.mu.Lock()
	r.metrics, r.tracer, r.node = m, tr, node
	qp := r.qp
	r.mu.Unlock()
	if qp != nil {
		qp.SetInstruments(m, tr, node)
	}
}

// acquire returns the live QP, dialing one if the previous generation died.
func (r *ReconnQP) acquire() (*QP, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, 0, ErrClosed
	}
	if r.qp == nil {
		if err := r.connectLocked(); err != nil {
			return nil, 0, err
		}
		r.metrics.reconnected()
		r.cfg.Logf("rdma: reconnected (generation %d)", r.gen)
	}
	return r.qp, r.gen, nil
}

// invalidate retires a dead generation so the next verb redials. The close
// runs outside mu: QP.Close blocks until the read loop drains.
func (r *ReconnQP) invalidate(gen uint64, qp *QP) {
	r.mu.Lock()
	dead := r.gen == gen && r.qp == qp
	if dead {
		r.qp = nil
	}
	r.mu.Unlock()
	if dead {
		qp.Close()
	}
}

// resolver snapshots the rkey translation: each region's stable virtual
// rkey maps to the same-named region's rkey on the live connection.
func (r *ReconnQP) resolver() func(uint32) uint32 {
	r.mu.Lock()
	remap := make(map[uint32]uint32, len(r.virt))
	for name, v := range r.virt {
		if cur, ok := r.current[name]; ok {
			remap[v] = cur
		}
	}
	r.mu.Unlock()
	return func(rkey uint32) uint32 {
		if cur, ok := remap[rkey]; ok {
			return cur
		}
		return rkey
	}
}

// do drives one verb with redial-and-replay. idempotent marks verbs safe to
// replay even if a previous attempt executed remotely. Only transport errors
// redial. ctx bounds the redial backoff sleeps (the verb itself honors ctx
// through the QP wait path).
func (r *ReconnQP) do(ctx context.Context, idempotent bool, op func(qp *QP, rkey func(uint32) uint32) error) error {
	backoff := r.backoff
	for attempt := 0; ; attempt++ {
		qp, gen, err := r.acquire()
		if err == nil {
			err = op(qp, r.resolver())
			if err == nil || !IsTransportErr(err) {
				return err
			}
			posted := !errors.Is(err, ErrUnposted)
			r.invalidate(gen, qp)
			if !idempotent && posted {
				// The verb reached the wire but its completion was lost:
				// the atomic may or may not have executed. Never replay.
				return fmt.Errorf("%w: %v", ErrUncertain, err)
			}
			// A verb that reached the wire and will run again on a fresh
			// connection is a replay; refused posts are plain retries.
			if posted && attempt < r.maxRedials {
				r.metrics.replayed()
			}
		} else if errors.Is(err, ErrClosed) && r.isClosed() {
			return err
		}
		if attempt >= r.maxRedials {
			return err
		}
		r.cfg.Logf("rdma: transport failure (attempt %d/%d): %v", attempt+1, r.maxRedials+1, err)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return fmt.Errorf("%w: %w", ErrTimeout, ctx.Err())
		}
		backoff *= 2
	}
}

func (r *ReconnQP) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// ReadCtx implements Verbs with transparent redial and replay.
func (r *ReconnQP) ReadCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) ([]byte, error) {
	var out []byte
	err := r.do(ctx, true, func(qp *QP, rk func(uint32) uint32) error {
		var err error
		out, err = qp.ReadCtx(ctx, rk(rkey), addr, n)
		return err
	})
	return out, err
}

// WriteCtx implements Verbs with transparent redial and replay.
func (r *ReconnQP) WriteCtx(ctx context.Context, rkey uint32, addr mem.Addr, data []byte) error {
	return r.do(ctx, true, func(qp *QP, rk func(uint32) uint32) error {
		return qp.WriteCtx(ctx, rk(rkey), addr, data)
	})
}

// WriteImmCtx implements Verbs with transparent redial and replay; a replay
// re-fires the doorbell.
func (r *ReconnQP) WriteImmCtx(ctx context.Context, rkey uint32, addr mem.Addr, imm uint32, data []byte) error {
	return r.do(ctx, true, func(qp *QP, rk func(uint32) uint32) error {
		return qp.WriteImmCtx(ctx, rk(rkey), addr, imm, data)
	})
}

// WriteBatchCtx implements Verbs: on transport failure the WHOLE batch is
// replayed on the fresh connection (all sub-verbs are plain writes, so the
// replay converges to the same memory image regardless of how far the dead
// connection got).
func (r *ReconnQP) WriteBatchCtx(ctx context.Context, ops []BatchOp) error {
	return r.do(ctx, true, func(qp *QP, rk func(uint32) uint32) error {
		translated := make([]BatchOp, len(ops))
		for i, op := range ops {
			op.RKey = rk(op.RKey)
			translated[i] = op
		}
		return qp.WriteBatchCtx(ctx, translated)
	})
}

// CompareAndSwapCtx implements Verbs. It is replayed only when provably
// unexecuted; a completion lost after posting surfaces as ErrUncertain.
func (r *ReconnQP) CompareAndSwapCtx(ctx context.Context, rkey uint32, addr mem.Addr, old, new uint64) (prev uint64, err error) {
	err = r.do(ctx, false, func(qp *QP, rk func(uint32) uint32) error {
		var err error
		prev, err = qp.CompareAndSwapCtx(ctx, rk(rkey), addr, old, new)
		return err
	})
	return prev, err
}

// FetchAddCtx implements Verbs. Same replay rules as CompareAndSwapCtx.
func (r *ReconnQP) FetchAddCtx(ctx context.Context, rkey uint32, addr mem.Addr, delta uint64) (prev uint64, err error) {
	err = r.do(ctx, false, func(qp *QP, rk func(uint32) uint32) error {
		var err error
		prev, err = qp.FetchAddCtx(ctx, rk(rkey), addr, delta)
		return err
	})
	return prev, err
}

// QueryMRs implements Verbs. The returned table carries each region's
// stable virtual rkey, so handles built on it survive reconnects even when
// the endpoint renumbers its regions.
func (r *ReconnQP) QueryMRs() ([]MR, error) {
	var out []MR
	err := r.do(context.Background(), true, func(qp *QP, _ func(uint32) uint32) error {
		var err error
		out, err = qp.QueryMRs()
		return err
	})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	for i := range out {
		out[i].RKey = r.adoptLocked(out[i].Name, out[i].RKey)
	}
	r.mu.Unlock()
	return out, nil
}

// Close implements Verbs: the live QP is torn down and every later verb
// (and redial) fails with ErrClosed.
func (r *ReconnQP) Close() error {
	r.mu.Lock()
	qp := r.qp
	r.qp = nil
	r.closed = true
	r.mu.Unlock()
	if qp != nil {
		return qp.Close()
	}
	return nil
}

var _ Verbs = (*ReconnQP)(nil)
