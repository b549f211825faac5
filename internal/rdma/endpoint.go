package rdma

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rdx/internal/mem"
	"rdx/internal/telemetry"
)

// Perm is a memory-region permission bitmask, mirroring ibv access flags.
type Perm uint8

const (
	PermRead   Perm = 1 << iota // remote READ allowed
	PermWrite                   // remote WRITE allowed
	PermAtomic                  // remote CAS / FETCH_ADD allowed
)

// PermAll grants read, write, and atomics.
const PermAll = PermRead | PermWrite | PermAtomic

// MR describes one registered memory region of the endpoint's arena.
type MR struct {
	Name string // symbolic name, exchanged during connection setup
	RKey uint32
	Addr mem.Addr
	Len  uint64
	Perm Perm
}

// DoorbellHandler runs on the RNIC (not on node cores) when a WRITE_WITH_IMM
// lands in the region it is registered for. RDX uses doorbells for
// rdx_cc_event: the handler invalidates the CPU cacheline so the data plane
// observes freshly injected objects immediately.
type DoorbellHandler func(imm uint32, addr mem.Addr, data []byte)

// Endpoint is the target-side software RNIC: it owns access to a node's
// DRAM arena and services verbs from any number of queue pairs.
type Endpoint struct {
	arena   *mem.Arena
	latency *LatencyModel

	mu        sync.RWMutex
	mrs       map[uint32]*MR
	mrsByName map[string]*MR
	nextRKey  uint32

	// doorbells is a copy-on-write registration list (writes under mu),
	// so the WRITE_IMM hot path reads it with one atomic load instead of
	// copying the slice per fire.
	doorbells atomic.Pointer[[]doorbellReg]

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// instr is the optional observability binding; see SetInstruments.
	instr atomic.Pointer[qpInstr]

	// logf receives protocol-level errors; swapped atomically via SetLogf
	// because ServeConn goroutines read it while callers may install a
	// logger after Serve has started.
	logf atomic.Pointer[func(format string, args ...interface{})]
}

// SetLogf installs the protocol-error logger (default log.Printf); nil
// silences logging. Unlike the exported field it replaces, this is safe to
// call at any time, including while connections are being served.
func (e *Endpoint) SetLogf(f func(format string, args ...interface{})) {
	if f == nil {
		f = func(string, ...interface{}) {}
	}
	e.logf.Store(&f)
}

func (e *Endpoint) logFn() func(format string, args ...interface{}) {
	return *e.logf.Load()
}

// SetInstruments attaches served-verb metrics and a trace recorder to the
// endpoint; node labels this endpoint's trace events (its node ID). Served
// verbs carrying a wire trace ID are recorded as "endpoint"-layer spans, so
// an initiator's trace shows both sides of each verb. Any argument may be
// nil. Safe to call concurrently with connections being served.
func (e *Endpoint) SetInstruments(m *WireMetrics, tr *telemetry.TraceRecorder, node string) {
	e.instr.Store(&qpInstr{m: m, tr: tr, node: node})
}

func (e *Endpoint) instruments() qpInstr {
	if i := e.instr.Load(); i != nil {
		return *i
	}
	return qpInstr{}
}

type doorbellReg struct {
	addr mem.Addr
	len  uint64
	fn   DoorbellHandler
}

// NewEndpoint creates an RNIC over arena with the given latency model
// (nil means NoLatency).
func NewEndpoint(arena *mem.Arena, lat *LatencyModel) *Endpoint {
	if lat == nil {
		lat = NoLatency()
	}
	e := &Endpoint{
		arena:     arena,
		latency:   lat,
		mrs:       make(map[uint32]*MR),
		mrsByName: make(map[string]*MR),
		nextRKey:  0x1000,
		closed:    make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	e.SetLogf(log.Printf)
	return e
}

// RegisterMR registers [addr, addr+length) for remote access under a fresh
// rkey. Names must be unique per endpoint; they are how the control plane
// discovers regions during CodeFlow creation.
func (e *Endpoint) RegisterMR(name string, addr mem.Addr, length uint64, perm Perm) (*MR, error) {
	if length == 0 || addr > e.arena.Size() || length > e.arena.Size()-addr {
		return nil, fmt.Errorf("rdma: MR %q [%#x,+%d) outside arena", name, addr, length)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.mrsByName[name]; dup {
		return nil, fmt.Errorf("rdma: MR %q already registered", name)
	}
	mr := &MR{Name: name, RKey: e.nextRKey, Addr: addr, Len: length, Perm: perm}
	e.nextRKey++
	e.mrs[mr.RKey] = mr
	e.mrsByName[name] = mr
	return mr, nil
}

// RotateMR re-keys a registered region: the old rkey is invalidated and a
// fresh one issued for the same [addr, addr+length) window. This is the
// ibv_rereg_mr-style fencing primitive — any peer still holding the old
// rkey gets StatusAccessErr on its next verb, without tearing down its
// connection. Returns the re-keyed MR.
func (e *Endpoint) RotateMR(name string) (*MR, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old, ok := e.mrsByName[name]
	if !ok {
		return nil, fmt.Errorf("rdma: rotate: unknown MR %q", name)
	}
	delete(e.mrs, old.RKey)
	mr := &MR{Name: name, RKey: e.nextRKey, Addr: old.Addr, Len: old.Len, Perm: old.Perm}
	e.nextRKey++
	e.mrs[mr.RKey] = mr
	e.mrsByName[name] = mr
	return mr, nil
}

// RegisterDoorbell attaches a handler to WRITE_WITH_IMM operations landing
// within [addr, addr+length).
func (e *Endpoint) RegisterDoorbell(addr mem.Addr, length uint64, fn DoorbellHandler) {
	e.mu.Lock()
	var regs []doorbellReg
	if old := e.doorbells.Load(); old != nil {
		regs = append(regs, *old...)
	}
	regs = append(regs, doorbellReg{addr, length, fn})
	e.doorbells.Store(&regs)
	e.mu.Unlock()
}

// Serve accepts connections until the listener fails or Close is called.
// Each connection is one QP served on its own goroutine.
func (e *Endpoint) Serve(l net.Listener) error {
	defer l.Close()
	go func() {
		<-e.closed
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-e.closed:
				return nil
			default:
				return err
			}
		}
		// Close and Drain close e.closed under connMu, so either this Add is
		// ordered before their wg.Wait or the accept lost and is dropped.
		e.connMu.Lock()
		select {
		case <-e.closed:
			e.connMu.Unlock()
			conn.Close()
			return nil
		default:
		}
		e.wg.Add(1)
		e.connMu.Unlock()
		go func() {
			defer e.wg.Done()
			e.ServeConn(conn)
		}()
	}
}

// Close stops the endpoint: the listener and every active QP connection
// are closed, then connection handlers are drained.
func (e *Endpoint) Close() {
	e.closeMu.Do(func() {
		e.connMu.Lock()
		close(e.closed)
		for c := range e.conns {
			c.Close()
		}
		e.connMu.Unlock()
	})
	e.wg.Wait()
}

// Drain shuts the endpoint down gracefully: stop accepting new QPs, let
// in-flight frames finish for up to grace, then force-close whatever is
// left. Unlike Close, a request mid-service gets its reply written before
// the connection drops — peers observe a clean teardown (EOF after a
// complete frame) instead of ErrInjected-like truncation noise. Each
// handler re-checks the closed channel before it reads a frame, so a
// drained connection exits after the frame it is serving; frames it had
// not yet read fail at their posters with ErrClosed.
func (e *Endpoint) Drain(grace time.Duration) {
	e.closeMu.Do(func() {
		// A handler blocked in readFrame holds no request: unblock it by
		// expiring the read rather than severing the transport, so a frame
		// already being serviced still gets its reply written.
		e.connMu.Lock()
		close(e.closed)
		for c := range e.conns {
			c.SetReadDeadline(time.Now().Add(grace))
		}
		e.connMu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace + 100*time.Millisecond):
		// Stragglers (a handler stuck mid-write, a deadline that didn't
		// take): fall back to the hard teardown.
		e.connMu.Lock()
		for c := range e.conns {
			c.Close()
		}
		e.connMu.Unlock()
		<-done
	}
}

// CloseConns severs every active QP connection without stopping the
// endpoint: the listener keeps accepting, so clients behind a ReconnQP
// re-dial into the same (still-registered) MR table. This models a
// transport flap — the restart half of the reconnect story — as opposed
// to Close, which is the death of the node.
func (e *Endpoint) CloseConns() {
	e.connMu.Lock()
	for c := range e.conns {
		c.Close()
	}
	e.connMu.Unlock()
}

// connScratch is one connection's reusable working memory: the request
// frame, the response assembly buffer, the decoded batch sub-verb slice,
// per-sub status bytes, and the 8-byte atomic-result word. One instance
// lives per ServeConn goroutine, so the steady-state service path performs
// zero allocations.
type connScratch struct {
	frame    []byte
	resp     []byte
	read     []byte
	subs     []request
	statuses []byte
	qword    [8]byte
	chain    [chainRespLen]byte
}

// ServeConn services one QP until the peer disconnects. Requests execute
// strictly in order (RDMA per-QP ordering): each frame is read, served and
// answered with one write before the next frame is read, so the endpoint
// charges and completes verbs one at a time, as the RNIC does.
func (e *Endpoint) ServeConn(conn net.Conn) {
	e.connMu.Lock()
	e.conns[conn] = struct{}{}
	e.connMu.Unlock()
	defer func() {
		conn.Close()
		e.connMu.Lock()
		delete(e.conns, conn)
		e.connMu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	var cs connScratch
	for {
		select {
		case <-e.closed:
			return
		default:
		}
		frame, err := readFrame(br, cs.frame)
		if err != nil {
			// Normal teardown arrives as EOF or closed-pipe; anything
			// else (truncated frame, oversized length prefix, transport
			// fault) is a protocol error worth surfacing.
			if !isCleanTeardown(err) {
				e.logFn()("rdma: endpoint read error from %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if !e.serveFrame(&cs, frame, conn) {
			return
		}
	}
}

// serveFrame decodes and executes one request frame and writes its
// response, then keeps the frame's buffer in cs for the connection's next
// read. Returns false when the QP must drop: malformed frame, oversize
// response, or write failure.
func (e *Endpoint) serveFrame(cs *connScratch, frame []byte, conn net.Conn) bool {
	var q request
	if err := q.decodeInto(frame, cs.subs); err != nil {
		// A malformed frame means the stream is unframed garbage: a
		// reply would carry a partially-decoded id (often 0) and the
		// initiator's real request would never complete. Move the QP
		// to error state instead — drop the connection so the client
		// fails fast via failAll.
		e.logFn()("rdma: malformed frame from %v, closing QP: %v", conn.RemoteAddr(), err)
		return false
	}
	if q.op == OpBatch {
		cs.subs = q.subs[:0] // keep the grown sub-verb capacity for reuse
	}
	st, data, modeled := e.handle(&q, cs)
	ok := e.respond(conn, cs, q.id, st, modeled, data)
	cs.frame = reuse(frame)
	return ok
}

// respond assembles [hdr|response] in the connection scratch and emits it
// as one conn.Write, as QP.writeRequest does for requests.
func (e *Endpoint) respond(conn net.Conn, cs *connScratch, id uint64, status uint8, modeled time.Duration, data []byte) bool {
	if respHdr+len(data) > MaxFrame {
		return false // unframeable response: drop the QP
	}
	b := append(cs.resp[:0], 0, 0, 0, 0)
	b = appendResponse(b, id, status, modeled, data)
	binary.BigEndian.PutUint32(b[:frameHdr], uint32(len(b)-frameHdr))
	cs.resp = reuse(b)
	_, err := conn.Write(b)
	return err == nil
}

// isCleanTeardown reports whether a connection read error is an expected
// peer-disconnect rather than a protocol violation.
func isCleanTeardown(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.ErrClosedPipe)
}

// handle executes one decoded request against the arena at once and returns
// the response status and data plus the latency model's charge for the
// verb, which the initiator waits out (the endpoint never sleeps). Returned
// data never aliases the request's frame: arena reads copy into cs.read,
// atomics return cs.qword, batches return cs.statuses.
func (e *Endpoint) handle(q *request, cs *connScratch) (uint8, []byte, time.Duration) {
	switch q.op {
	case OpQueryMRs:
		return StatusOK, e.encodeMRTable(), 0
	case OpRotateMR:
		// Control-plane op, like QueryMRs: no latency charge, no arena work.
		mr, err := e.RotateMR(string(q.data))
		if err != nil {
			return StatusOpErr, nil, 0
		}
		binary.BigEndian.PutUint32(cs.qword[:4], mr.RKey)
		return StatusOK, cs.qword[:4], 0
	}
	start := time.Now()
	var (
		st       uint8
		data     []byte
		in, size int
	)
	switch q.op {
	case OpBatch:
		// One doorbell ring moves the whole chain: the model is charged
		// ONCE for the coalesced payload.
		for i := range q.subs {
			size += len(q.subs[i].data)
		}
		in = size
		st, data = e.execBatch(q.subs, cs)
	case OpChainTrigger:
		// The fabric is charged for the 8-byte trigger write only — that is
		// the point of the offload.
		in, size = 8, 8
		st, data = e.execChain(q, cs.chain[:])
	default:
		// An atomic carries no payload: it is charged the model's Base.
		in, size = len(q.data), len(q.data)
		if q.op == OpRead {
			size = int(q.len)
		}
		st, data = e.exec(q, cs)
	}
	modeled := e.latency.Duration(size)
	e.observe(q, st, in, len(data), size, start, modeled)
	return st, data, modeled
}

// observe accounts one served verb and, when the request carries a trace
// ID, records the service span under the initiator's trace. Both cover the
// latency-model charge plus the arena work.
func (e *Endpoint) observe(q *request, st uint8, in, out, traceBytes int, start time.Time, modeled time.Duration) {
	ins := e.instruments()
	if ins.m == nil && ins.tr == nil {
		return
	}
	err := statusErr(st)
	dur := time.Since(start) + modeled
	ins.m.served(q.op, dur.Nanoseconds(), in, out, err)
	ins.tr.SpanFor(telemetry.TraceID(q.trace), "endpoint", OpName(q.op), ins.node, start, dur, traceBytes, err)
}

// execBatch applies a chain's sub-verbs in posted order. The first failure
// flushes the rest, matching a QP's error-WQE semantics; the returned
// per-sub statuses live in cs.statuses.
func (e *Endpoint) execBatch(subs []request, cs *connScratch) (uint8, []byte) {
	if cap(cs.statuses) < len(subs) {
		cs.statuses = make([]byte, len(subs))
	}
	statuses := cs.statuses[:len(subs)]
	overall := StatusOK
	for i := range subs {
		if overall != StatusOK {
			statuses[i] = StatusFlushed
			continue
		}
		st, _ := e.exec(&subs[i], cs)
		statuses[i] = st
		if st != StatusOK {
			overall = st
		}
	}
	return overall, statuses
}

// exec applies one already-decoded verb to the arena with no latency charge
// (the caller models fabric cost per frame, not per sub-verb). Atomic results
// land in cs.qword and READ data in cs.read — caller-owned scratch, valid
// until the next frame on this connection, so the hot path allocates nothing.
func (e *Endpoint) exec(q *request, cs *connScratch) (uint8, []byte) {
	out := &cs.qword
	e.mu.RLock()
	mr, ok := e.mrs[q.rkey]
	e.mu.RUnlock()
	if !ok {
		return StatusAccessErr, nil
	}

	inBounds := func(addr mem.Addr, n uint64) bool {
		return addr >= mr.Addr && n <= mr.Len && addr-mr.Addr <= mr.Len-n
	}

	switch q.op {
	case OpRead:
		if mr.Perm&PermRead == 0 {
			return StatusAccessErr, nil
		}
		if !inBounds(q.addr, uint64(q.len)) {
			return StatusBoundsErr, nil
		}
		n := int(q.len)
		buf := cs.read
		if cap(buf) < n {
			if n <= scratchKeep {
				cs.read = make([]byte, n)
				buf = cs.read
			} else {
				buf = make([]byte, n) // one-off giant read: don't pin it
			}
		}
		buf = buf[:n]
		if err := e.arena.ReadInto(q.addr, buf); err != nil {
			return StatusBoundsErr, nil
		}
		return StatusOK, buf

	case OpWrite, OpWriteImm:
		if mr.Perm&PermWrite == 0 {
			return StatusAccessErr, nil
		}
		if !inBounds(q.addr, uint64(len(q.data))) {
			return StatusBoundsErr, nil
		}
		if err := e.arena.Write(q.addr, q.data); err != nil {
			return StatusBoundsErr, nil
		}
		if q.op == OpWriteImm {
			e.fireDoorbells(q.imm, q.addr, q.data)
		}
		return StatusOK, nil

	case OpCAS:
		if mr.Perm&PermAtomic == 0 {
			return StatusAccessErr, nil
		}
		if !inBounds(q.addr, 8) {
			return StatusBoundsErr, nil
		}
		prev, _, err := e.arena.CompareAndSwap(q.addr, q.cmp, q.swap)
		if err != nil {
			return StatusOpErr, nil
		}
		binary.BigEndian.PutUint64(out[:], prev)
		return StatusOK, out[:]

	case OpFetchAdd:
		if mr.Perm&PermAtomic == 0 {
			return StatusAccessErr, nil
		}
		if !inBounds(q.addr, 8) {
			return StatusBoundsErr, nil
		}
		prev, err := e.arena.FetchAdd(q.addr, q.delta)
		if err != nil {
			return StatusOpErr, nil
		}
		binary.BigEndian.PutUint64(out[:], prev)
		return StatusOK, out[:]
	}
	return StatusOpErr, nil
}

func (e *Endpoint) fireDoorbells(imm uint32, addr mem.Addr, data []byte) {
	p := e.doorbells.Load()
	if p == nil {
		return
	}
	regs := *p
	n := uint64(len(data))
	if n == 0 {
		n = 1 // zero-length WRITE_WITH_IMM still rings the doorbell at addr
	}
	for _, d := range regs {
		// Overlap of [addr, addr+n) with [d.addr, d.addr+d.len), written
		// with subtractions so d.addr+d.len cannot overflow and a write
		// starting below the window but spanning into it still fires.
		var hit bool
		if addr >= d.addr {
			hit = addr-d.addr < d.len
		} else {
			hit = d.addr-addr < n
		}
		if hit {
			e.instruments().m.doorbellFired()
			d.fn(imm, addr, data)
		}
	}
}

// encodeMRTable serializes the MR table:
// [2B count] then per MR: [4B rkey][8B addr][8B len][1B perm][2B nameLen][name].
func (e *Endpoint) encodeMRTable() []byte {
	e.mu.RLock()
	mrs := make([]*MR, 0, len(e.mrs))
	for _, mr := range e.mrs {
		mrs = append(mrs, mr)
	}
	e.mu.RUnlock()
	sort.Slice(mrs, func(i, j int) bool { return mrs[i].RKey < mrs[j].RKey })

	b := binary.BigEndian.AppendUint16(nil, uint16(len(mrs)))
	for _, mr := range mrs {
		b = binary.BigEndian.AppendUint32(b, mr.RKey)
		b = binary.BigEndian.AppendUint64(b, mr.Addr)
		b = binary.BigEndian.AppendUint64(b, mr.Len)
		b = append(b, byte(mr.Perm))
		b = binary.BigEndian.AppendUint16(b, uint16(len(mr.Name)))
		b = append(b, mr.Name...)
	}
	return b
}

func decodeMRTable(b []byte) ([]MR, error) {
	if len(b) < 2 {
		return nil, errors.New("rdma: short MR table")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	out := make([]MR, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 23 {
			return nil, errors.New("rdma: truncated MR table")
		}
		var mr MR
		mr.RKey = binary.BigEndian.Uint32(b[0:4])
		mr.Addr = binary.BigEndian.Uint64(b[4:12])
		mr.Len = binary.BigEndian.Uint64(b[12:20])
		mr.Perm = Perm(b[20])
		nameLen := int(binary.BigEndian.Uint16(b[21:23]))
		b = b[23:]
		if len(b) < nameLen {
			return nil, errors.New("rdma: truncated MR name")
		}
		mr.Name = string(b[:nameLen])
		b = b[nameLen:]
		out = append(out, mr)
	}
	return out, nil
}

// LatencyModel is the fabric's per-verb cost: a fixed base plus a bandwidth
// term. The endpoint charges it per served frame and the initiator's QP
// waits it out (see QP.wait); nothing else sleeps on it.
type LatencyModel struct {
	Base        time.Duration // per-operation cost (propagation + RNIC processing)
	BytesPerSec float64       // link bandwidth; 0 disables the size term
}

// DefaultLatency approximates a CX-4-class RNIC on a 25 Gb/s rack fabric:
// ~1.8 µs per small verb, ~3.1 GB/s of payload bandwidth.
func DefaultLatency() *LatencyModel {
	return &LatencyModel{Base: 1800 * time.Nanosecond, BytesPerSec: 3.125e9}
}

// NoLatency returns a model with zero injected delay.
func NoLatency() *LatencyModel { return &LatencyModel{} }

// Duration returns the modeled latency for an operation moving n bytes.
func (m *LatencyModel) Duration(n int) time.Duration {
	d := m.Base
	if m.BytesPerSec > 0 && n > 0 {
		d += time.Duration(float64(n) / m.BytesPerSec * float64(time.Second))
	}
	return d
}
