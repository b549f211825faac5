package rdma

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rdx/internal/mem"
	"rdx/internal/telemetry"
)

// Completion is the result of an asynchronously posted verb, delivered on
// the QP's completion queue channel.
type Completion struct {
	ID     uint64
	Err    error
	Data   []byte // READ payload, batch statuses, chain or control response; nil for writes and atomics
	OldVal uint64 // the prior qword, for CAS/FETCH_ADD only

	at time.Time // when the caller may have it: max(arrival, modeled due)
	n  int       // response payload bytes
}

// Verbs is the initiator-side verb surface shared by a raw QP and the
// fault-tolerant ReconnQP wrapper, so higher layers (core.RemoteMemory,
// CodeFlow) run unchanged over either.
//
// The surface is context-first, and the ctx-first methods are the whole of
// it: every data verb takes a ctx that bounds the wait for its completion and
// carries the operation's trace ID (telemetry.WithTraceID) down to the wire,
// where it is stamped into the request header for the target endpoint to
// correlate. Callers with no deadline or trace pass context.Background().
type Verbs interface {
	ReadCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) ([]byte, error)
	WriteCtx(ctx context.Context, rkey uint32, addr mem.Addr, data []byte) error
	WriteImmCtx(ctx context.Context, rkey uint32, addr mem.Addr, imm uint32, data []byte) error
	WriteBatchCtx(ctx context.Context, ops []BatchOp) error
	CompareAndSwapCtx(ctx context.Context, rkey uint32, addr mem.Addr, old, new uint64) (prev uint64, err error)
	FetchAddCtx(ctx context.Context, rkey uint32, addr mem.Addr, delta uint64) (prev uint64, err error)
	ChainTriggerCtx(ctx context.Context, rkey uint32, addr mem.Addr, arg uint64) (ChainResult, error)
	RotateMRCtx(ctx context.Context, name string) (uint32, error)
	QueryMRs() ([]MR, error)
	Close() error
}

// QP is an initiator-side queue pair: it posts verbs to a remote endpoint
// and matches completions by request id. All methods are safe for
// concurrent use; the endpoint executes this QP's requests in post order.
type QP struct {
	conn net.Conn

	sendMu  sync.Mutex
	nextID  uint64
	sendBuf []byte // request frame assembly, guarded by sendMu

	// tmo is the per-verb deadline in nanoseconds (0 = none): synchronous
	// verbs whose completion does not arrive in time fail with ErrTimeout
	// instead of blocking forever on a dead fabric link.
	tmo atomic.Int64

	pendMu  sync.Mutex
	pending map[uint64]*pendingVerb
	err     error // sticky transport error
	done    chan struct{}

	// lastDue is the modeled due time of the QP's latest completion; only
	// readLoop touches it.
	lastDue time.Time

	// instr is the optional observability binding (metrics + tracer +
	// node label), swappable at runtime so ReconnQP can instrument each
	// generation while verbs are in flight on others.
	instr atomic.Pointer[qpInstr]
}

// pendingVerb is one posted-but-uncompleted verb: its completion channel
// plus what the completion path needs to account for it (opcode, post time,
// payload size, and originating trace).
//
// pendingVerbs are pooled: wait recycles one only when its channel is
// provably empty and no sender can still hold the pointer — either the
// completion was received, or the abandon removed the entry from the
// pending map before any completer saw it. The one other path, a post-write
// failure after a concurrent drain, leaks the verb to the GC rather than
// risk a recycled channel receiving a stale completion.
type pendingVerb struct {
	ch    chan Completion
	id    uint64
	op    uint8
	bytes int // payload bytes carried by the verb (data out, or READ length)
	start time.Time
	trace telemetry.TraceID
}

var pvPool = sync.Pool{New: func() interface{} {
	return &pendingVerb{ch: make(chan Completion, 1)}
}}

// qpInstr bundles a QP's observability hooks so they swap atomically.
type qpInstr struct {
	m    *WireMetrics
	tr   *telemetry.TraceRecorder
	node string
}

// SetInstruments attaches verb metrics and a trace recorder to the QP; node
// labels this QP's trace events (conventionally the target node's ID). Any
// argument may be nil. Safe to call concurrently with verbs in flight.
func (qp *QP) SetInstruments(m *WireMetrics, tr *telemetry.TraceRecorder, node string) {
	qp.instr.Store(&qpInstr{m: m, tr: tr, node: node})
}

// instruments returns the current observability binding (nil-safe fields).
func (qp *QP) instruments() qpInstr {
	if i := qp.instr.Load(); i != nil {
		return *i
	}
	return qpInstr{}
}

// NewQP wraps an established connection to an endpoint.
func NewQP(conn net.Conn) *QP {
	qp := &QP{
		conn:    conn,
		pending: make(map[uint64]*pendingVerb),
		done:    make(chan struct{}),
	}
	go qp.readLoop()
	return qp
}

// Close tears the QP down; outstanding posts complete with ErrClosed.
func (qp *QP) Close() error {
	err := qp.conn.Close()
	<-qp.done
	return err
}

// SetTimeout installs a default per-verb deadline: synchronous verbs posted
// after this call complete with ErrTimeout if no completion arrives within
// d. Zero disables the deadline (the default). Safe to call concurrently
// with verbs in flight.
func (qp *QP) SetTimeout(d time.Duration) { qp.tmo.Store(int64(d)) }

func (qp *QP) readLoop() {
	defer close(qp.done)
	br := bufio.NewReaderSize(qp.conn, 64<<10)
	var buf []byte
	for {
		frame, err := readFrame(br, buf)
		if err != nil {
			qp.failAll(ErrClosed)
			return
		}
		buf = reuse(frame)
		resp, err := decodeResponse(frame)
		if err != nil {
			// A malformed response means the stream framing can no longer
			// be trusted: the QP enters the error state. Wrapping ErrClosed
			// keeps the failure in the reconnectable transport class.
			qp.failAll(fmt.Errorf("%w: protocol error: %v", ErrClosed, err))
			qp.conn.Close()
			return
		}
		qp.pendMu.Lock()
		pv, ok := qp.pending[resp.id]
		delete(qp.pending, resp.id)
		qp.pendMu.Unlock()
		if ok {
			// Data is attached even on error completions: batch responses
			// carry per-sub-verb statuses the initiator uses to locate the
			// failure. resp.data aliases the read buffer, which the next
			// frame overwrites, so it is copied out; plain write
			// completions carry no data, and atomics decode theirs into
			// OldVal, so both stay allocation-free.
			c := Completion{ID: resp.id, Err: statusErr(resp.status), n: len(resp.data)}
			switch {
			case pv.op == OpCAS || pv.op == OpFetchAdd:
				if c.Err == nil && len(resp.data) == 8 {
					c.OldVal = binary.BigEndian.Uint64(resp.data)
				}
			case len(resp.data) == 0:
			default:
				c.Data = append([]byte(nil), resp.data...)
			}
			// The QP's verbs occupy the modeled fabric one after another:
			// this one is due its charge after its post or the previous
			// verb's due time, whichever is later — and is complete at
			// that due time or on arrival, whichever is later.
			qp.lastDue = later(pv.start, qp.lastDue).Add(resp.modeled)
			c.at = later(time.Now(), qp.lastDue)
			pv.ch <- c
		}
	}
}

// failAll fails every pending verb with err, which also sticks: later posts
// are refused with ErrUnposted.
func (qp *QP) failAll(err error) {
	qp.pendMu.Lock()
	qp.err = err
	drained := make([]*pendingVerb, 0, len(qp.pending))
	for id, pv := range qp.pending {
		delete(qp.pending, id)
		drained = append(drained, pv)
	}
	qp.pendMu.Unlock()
	now := time.Now()
	for _, pv := range drained {
		pv.ch <- Completion{ID: pv.id, Err: err, at: now}
	}
}

// post sends a request and returns its pending entry, whose channel will
// receive the completion. The sticky-error check and the pending-map insert
// happen in ONE pendMu critical section: a concurrent failAll either
// already set qp.err (and the registration is refused with ErrUnposted —
// the verb is provably unexecuted) or will observe the entry and fail it.
// Checking and inserting in separate sections lost completions: a verb
// registered after the failAll drain blocked its caller forever.
func (qp *QP) post(q request) (*pendingVerb, error) {
	pv := pvPool.Get().(*pendingVerb)
	pv.op = q.op
	pv.bytes = q.payloadBytes()
	pv.trace = telemetry.TraceID(q.trace)

	qp.sendMu.Lock()
	qp.nextID++
	q.id = qp.nextID
	pv.id = q.id

	qp.pendMu.Lock()
	if qp.err != nil {
		err := qp.err
		qp.pendMu.Unlock()
		qp.sendMu.Unlock()
		pvPool.Put(pv) // never registered: no sender can hold it
		return nil, fmt.Errorf("%w: %w", ErrUnposted, err)
	}
	pv.start = time.Now()
	qp.pending[q.id] = pv
	qp.pendMu.Unlock()

	sent, err := qp.writeRequest(&q)
	qp.sendMu.Unlock()

	if err != nil {
		qp.pendMu.Lock()
		_, present := qp.pending[q.id]
		delete(qp.pending, q.id)
		qp.pendMu.Unlock()
		if present {
			// We removed the entry before any completer saw it: the channel
			// is empty and no sender can hold pv. If a concurrent failAll
			// already drained it, a send is in flight — leak pv to the GC.
			pvPool.Put(pv)
		}
		return nil, err
	}
	qp.instruments().m.sent(sent)
	return pv, nil
}

// writeRequest assembles [hdr|payload] in qp.sendBuf and emits it as one
// conn.Write while holding sendMu: one syscall per verb, a frame never
// straddles two writes, and the steady state allocates nothing. A frame
// past MaxFrame is refused before any byte is written. Returns the payload
// size.
func (qp *QP) writeRequest(q *request) (int, error) {
	b := q.appendTo(append(qp.sendBuf[:0], 0, 0, 0, 0))
	qp.sendBuf = reuse(b)
	n := len(b) - frameHdr
	if n > MaxFrame {
		return 0, fmt.Errorf("rdma: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(b[:frameHdr], uint32(n))
	_, err := qp.conn.Write(b)
	return n, err
}

// payloadBytes is the data volume a verb moves: outbound payload for writes
// and batches, the requested length for READ.
func (q *request) payloadBytes() int {
	switch q.op {
	case OpRead:
		return int(q.len)
	case OpBatch:
		n := 0
		for i := range q.subs {
			n += len(q.subs[i].data)
		}
		return n
	default:
		return len(q.data)
	}
}

// abandon removes a pending verb whose caller stopped waiting, reporting
// whether this call won the race against the completion path (the entry was
// still registered); a completion arriving later is dropped by readLoop as
// stale.
func (qp *QP) abandon(id uint64) bool {
	qp.pendMu.Lock()
	_, ok := qp.pending[id]
	delete(qp.pending, id)
	qp.pendMu.Unlock()
	return ok
}

// wait blocks for the completion of posted verb pv and hands it to the
// caller no earlier than its modeled due time, bounded by ctx and the QP's
// default timeout: the deadline is the earlier of ctx's and the timeout's.
// A verb not due by then — its completion not arrived, or arrived but
// modeled to finish past the deadline — fails ErrTimeout and its
// completion is dropped, even one already queued when ctx had expired
// before the post. Note the verb may still execute remotely; only the
// completion is lost (real RC-QP semantics).
//
// wait owns pv's recycling; see pendingVerb for the rules.
func (qp *QP) wait(ctx context.Context, pv *pendingVerb) (Completion, error) {
	var timeout <-chan time.Time
	var deadline time.Time
	if d := time.Duration(qp.tmo.Load()); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout, deadline = t.C, pv.start.Add(d)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	select {
	case c := <-pv.ch:
		if hold(ctx, timeout, deadline, c.at) {
			return qp.deliver(pv, c)
		}
		return qp.expire(ctx, pv)
	case <-timeout:
	case <-ctx.Done():
	}
	// A completer that took the entry before the abandon sends at once; its
	// completion is kept only if it is already due, and due by the deadline.
	if !qp.abandon(pv.id) {
		if c := <-pv.ch; !c.at.After(time.Now()) && (deadline.IsZero() || !c.at.After(deadline)) {
			return qp.deliver(pv, c)
		}
	}
	return qp.expire(ctx, pv)
}

// spinTail is the part of a modeled wait that is spun rather than slept:
// long enough to absorb timer overshoot, short enough that a waiter spends
// most of a long wait parked.
const spinTail = 50 * time.Microsecond

// hold returns true once due has passed: it sleeps until spinTail is left,
// then yield-spins. It returns false if ctx ends first, or — once the
// deadline fires — if due lies past the deadline.
func hold(ctx context.Context, timeout <-chan time.Time, deadline, due time.Time) bool {
	if !deadline.IsZero() && due.After(deadline) {
		select {
		case <-timeout:
		case <-ctx.Done():
		}
		return false
	}
	for now := time.Now(); now.Before(due); now = time.Now() {
		if d := due.Sub(now) - spinTail; d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return false
			}
		} else {
			runtime.Gosched()
		}
	}
	return true
}

// later returns the later of a and b.
func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// deliver accounts pv's completion c — latency and "wire" span run from
// the post to c.at, the full modeled round trip — and recycles pv.
func (qp *QP) deliver(pv *pendingVerb, c Completion) (Completion, error) {
	in := qp.instruments()
	lat := c.at.Sub(pv.start)
	in.m.verbDone(pv.op, lat.Nanoseconds(), c.n, c.Err)
	if in.tr != nil {
		bytes := pv.bytes
		if pv.op == OpRead {
			bytes = c.n
		}
		in.tr.SpanFor(pv.trace, "wire", OpName(pv.op), in.node, pv.start, lat, bytes, c.Err)
	}
	pvPool.Put(pv)
	return c, c.Err
}

// expire fails pv with ErrTimeout and recycles it.
func (qp *QP) expire(ctx context.Context, pv *pendingVerb) (Completion, error) {
	err := error(ErrTimeout)
	if ctxErr := ctx.Err(); ctxErr != nil {
		err = fmt.Errorf("%w: %w", ErrTimeout, ctxErr)
	}
	in := qp.instruments()
	in.m.timedOut()
	if in.tr != nil {
		in.tr.Span(pv.trace, "wire", OpName(pv.op), in.node, pv.start, pv.bytes, err)
	}
	id := pv.id
	pvPool.Put(pv)
	return Completion{ID: id, Err: err}, err
}

// callCtx posts one verb and waits for its completion under ctx plus the
// QP's default deadline. The ctx's trace ID (if any) is stamped into the
// request header so the target endpoint can correlate its service events.
func (qp *QP) callCtx(ctx context.Context, q request) (Completion, error) {
	q.trace = uint64(telemetry.TraceIDFrom(ctx))
	pv, err := qp.post(q)
	if err != nil {
		return Completion{}, err
	}
	return qp.wait(ctx, pv)
}

// ReadCtx performs a one-sided READ of n bytes at addr within the region
// rkey, bounded by ctx (in addition to the QP deadline).
func (qp *QP) ReadCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) ([]byte, error) {
	c, err := qp.callCtx(ctx, request{op: OpRead, rkey: rkey, addr: addr, len: uint32(n)})
	if err != nil {
		return nil, err
	}
	return c.Data, nil
}

// WriteSeg is the transparent segmentation unit for large WRITEs.
const WriteSeg = 1 << 20

// batchBudget caps one OpBatch frame's coalesced payload, keeping each
// frame well under MaxFrame while still amortizing the per-verb base cost
// across several segments.
const batchBudget = 4 << 20

// Write is WriteCtx without a bounding context. It is kept only because the
// benchmark module's calibration calls it, and goes once that caller moves
// to WriteCtx.
func (qp *QP) Write(rkey uint32, addr mem.Addr, data []byte) error {
	return qp.WriteCtx(context.Background(), rkey, addr, data)
}

// WriteCtx performs a one-sided WRITE of data at addr, bounded by ctx (in
// addition to the QP deadline). Writes larger than the frame budget are
// segmented transparently and coalesced into OpBatch chains posted
// back-to-back in flight — the initiator never stalls on a per-segment round
// trip. Segments apply in order (but, as on hardware, the overall write is
// not atomic — use CAS-based commit protocols for atomicity).
func (qp *QP) WriteCtx(ctx context.Context, rkey uint32, addr mem.Addr, data []byte) error {
	if len(data) <= WriteSeg {
		_, err := qp.callCtx(ctx, request{op: OpWrite, rkey: rkey, addr: addr, data: data})
		return err
	}
	ops := make([]BatchOp, 0, (len(data)+WriteSeg-1)/WriteSeg)
	for off := 0; off < len(data); off += WriteSeg {
		end := off + WriteSeg
		if end > len(data) {
			end = len(data)
		}
		ops = append(ops, BatchOp{RKey: rkey, Addr: addr + mem.Addr(off), Data: data[off:end]})
	}
	return qp.WriteBatchCtx(ctx, ops)
}

// BatchOp is one sub-verb of an OpBatch chain: a WRITE, or — when HasImm is
// set — a WRITE_WITH_IMM that rings the target's doorbell. A chain carries
// many writes but typically only its final op carries the immediate, so one
// doorbell covers the whole coalesced update.
type BatchOp struct {
	RKey   uint32
	Addr   mem.Addr
	Data   []byte
	Imm    uint32
	HasImm bool
}

// request is op as the sub-verb an endpoint executes.
func (op BatchOp) request() request {
	q := request{op: OpWrite, rkey: op.RKey, addr: op.Addr, data: op.Data}
	if op.HasImm {
		q.op = OpWriteImm
		q.imm = op.Imm
	}
	return q
}

func (qp *QP) postBatch(ctx context.Context, ops []BatchOp) (*pendingVerb, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("rdma: empty batch")
	}
	if len(ops) > 0xFFFF {
		return nil, fmt.Errorf("rdma: batch of %d sub-verbs exceeds 65535", len(ops))
	}
	size := 0
	subs := make([]request, len(ops))
	for i, op := range ops {
		if len(op.Data) > WriteSeg {
			return nil, fmt.Errorf("rdma: batch sub-verb %d payload %d exceeds segment %d", i, len(op.Data), WriteSeg)
		}
		subs[i] = op.request()
		size += 21 + len(op.Data)
	}
	if size > MaxFrame-64 {
		return nil, fmt.Errorf("rdma: batch payload %d exceeds frame budget; split first", size)
	}
	return qp.post(request{op: OpBatch, trace: uint64(telemetry.TraceIDFrom(ctx)), subs: subs})
}

// WriteBatchCtx coalesces ops into OpBatch frames of at most batchBudget
// payload each, posts them all without waiting, then drains completions —
// the pipelined bulk path WriteCtx and the injection scheduler share. On
// failure the error identifies the first failed sub-verb. Every chain's
// drain is bounded by ctx and by the QP deadline, so a dead link fails the
// batch instead of wedging it.
func (qp *QP) WriteBatchCtx(ctx context.Context, ops []BatchOp) error {
	var chains []*pendingVerb
	start, size := 0, 0
	flush := func(end int) error {
		if end == start {
			return nil
		}
		pv, err := qp.postBatch(ctx, ops[start:end])
		if err != nil {
			return err
		}
		chains = append(chains, pv)
		start, size = end, 0
		return nil
	}
	var postErr error
	for i, op := range ops {
		if size > 0 && size+len(op.Data) > batchBudget {
			if postErr = flush(i); postErr != nil {
				break
			}
		}
		size += len(op.Data)
	}
	if postErr == nil {
		postErr = flush(len(ops))
	}
	// Drain every posted chain even after a failure so no completion leaks.
	var firstErr error
	for _, pv := range chains {
		c, err := qp.wait(ctx, pv)
		if err != nil && firstErr == nil {
			firstErr = batchErr(c)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return postErr
}

// batchErr decorates a failed batch completion with the index of the first
// failed sub-verb, recovered from the per-sub status bytes.
func batchErr(c Completion) error {
	for i, st := range c.Data {
		if st != StatusOK && st != StatusFlushed {
			return fmt.Errorf("rdma: batch sub-verb %d: %w", i, c.Err)
		}
	}
	return c.Err
}

// CompareAndSwapCtx atomically swaps the qword at addr from old to new,
// returning the value found there (swap happened iff prev == old).
func (qp *QP) CompareAndSwapCtx(ctx context.Context, rkey uint32, addr mem.Addr, old, new uint64) (prev uint64, err error) {
	c, err := qp.callCtx(ctx, request{op: OpCAS, rkey: rkey, addr: addr, cmp: old, swap: new})
	if err != nil {
		return 0, err
	}
	return c.OldVal, nil
}

// FetchAddCtx atomically adds delta to the qword at addr, returning the prior
// value.
func (qp *QP) FetchAddCtx(ctx context.Context, rkey uint32, addr mem.Addr, delta uint64) (prev uint64, err error) {
	c, err := qp.callCtx(ctx, request{op: OpFetchAdd, rkey: rkey, addr: addr, delta: delta})
	if err != nil {
		return 0, err
	}
	return c.OldVal, nil
}

// WriteImmCtx performs a WRITE_WITH_IMMEDIATE: data lands at addr, then the
// endpoint's doorbell handlers fire with imm. RDX uses this for
// rdx_cc_event cacheline flushes.
func (qp *QP) WriteImmCtx(ctx context.Context, rkey uint32, addr mem.Addr, imm uint32, data []byte) error {
	_, err := qp.callCtx(ctx, request{op: OpWriteImm, rkey: rkey, addr: addr, imm: imm, data: data})
	return err
}

// QueryMRs fetches the endpoint's registered-region table. This is control
// metadata exchange (the equivalent of RDMA CM handshakes), used once when
// a CodeFlow is created and again by ReconnQP after every redial (rkeys may
// change across endpoint restarts).
func (qp *QP) QueryMRs() ([]MR, error) {
	c, err := qp.callCtx(context.Background(), request{op: OpQueryMRs})
	if err != nil {
		return nil, err
	}
	return decodeMRTable(c.Data)
}

var _ Verbs = (*QP)(nil)
