// Package rdma implements a software RNIC: RDMA-style one-sided verbs
// (READ, WRITE, CAS, FETCH_ADD, WRITE_WITH_IMM) carried over a
// length-prefixed binary wire protocol on any net.Conn.
//
// The defining property of RDMA — and the one RDX depends on — is preserved
// faithfully: verbs execute against the target node's DRAM arena on the
// endpoint's own goroutines, never on the target's simulated CPU cores. The
// remote control plane can therefore read, write, and atomically update a
// data plane's memory while the data plane's cores stay dedicated to
// application work.
//
// Protocol. Every message is a frame: a 4-byte big-endian payload length
// followed by the payload. Request payloads are
//
//	[1B opcode][8B request id][8B trace id][opcode-specific body]
//
// (the trace id — zero when untraced — lets the target endpoint tag its
// service-side events with the initiator's trace, so one injection can be
// followed across machines) and responses are
//
//	[1B OpResp][8B request id][1B status][4B modeled ns][response body]
//
// A connection models one queue pair (QP): the endpoint executes its
// requests in arrival order, matching RDMA's per-QP ordering guarantee.
// Clients open multiple QPs for parallelism, exactly like real initiators.
//
// The endpoint places a verb's effect when it serves the frame and returns
// the LatencyModel's charge in the modeled field; the initiator's QP hands
// the completion over no earlier than the verb's modeled due time (QP.wait).
package rdma

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// Opcodes.
const (
	OpRead     uint8 = 1 // body: rkey u32, addr u64, length u32
	OpWrite    uint8 = 2 // body: rkey u32, addr u64, data
	OpCAS      uint8 = 3 // body: rkey u32, addr u64, compare u64, swap u64
	OpFetchAdd uint8 = 4 // body: rkey u32, addr u64, delta u64
	OpWriteImm uint8 = 5 // body: rkey u32, addr u64, imm u32, data
	OpQueryMRs uint8 = 6 // body: empty; resp: MR table (metadata exchange, as in RDMA CM)
	OpBatch    uint8 = 7 // body: count u16, then per sub-verb a WRITE/WRITE_IMM descriptor

	// OpChainTrigger fires a pre-posted verb chain resident in the region
	// rkey (see internal/verbchain): the endpoint FETCH-ADDs the region's
	// trigger qword, stores the 8-byte argument into the chain's argument
	// register, and runs the program on its own goroutine — never on node
	// cores. body: rkey u32, addr u64, arg u64; resp: packed status u64,
	// steps u64, trigger count u64.
	OpChainTrigger uint8 = 8
	// OpRotateMR remotely re-keys a named region (the fencing primitive,
	// ibv_rereg_mr style): any holder of the old rkey — including resident
	// chains — gets StatusAccessErr afterward. body: rkey u32 + addr u64
	// (both zero, kept for the uniform verb prefix), then the region name;
	// resp: new rkey u32.
	OpRotateMR uint8 = 9

	OpResp uint8 = 0x80
)

// Status codes carried in responses.
const (
	StatusOK        uint8 = 0
	StatusAccessErr uint8 = 1 // unknown rkey or permission violation
	StatusBoundsErr uint8 = 2 // access outside the registered region
	StatusOpErr     uint8 = 3 // malformed or unsupported request
	StatusFlushed   uint8 = 4 // batch sub-verb skipped after an earlier failure
)

// MaxFrame bounds a single frame's payload; large transfers are the
// caller's job to segment (the client does this transparently).
const MaxFrame = 16 << 20

// frameHdr is the 4-byte big-endian length prefix preceding every frame.
const frameHdr = 4

// Errors surfaced by the client for non-OK statuses.
var (
	ErrAccess = errors.New("rdma: remote access error (rkey or permissions)")
	ErrBounds = errors.New("rdma: remote access out of registered bounds")
	ErrOp     = errors.New("rdma: malformed or unsupported operation")
	ErrClosed = errors.New("rdma: queue pair closed")

	// ErrTimeout marks a verb whose completion did not arrive within the
	// QP's deadline (or whose context expired). As on hardware, a timed-out
	// verb may still execute remotely; only the completion is lost.
	ErrTimeout = errors.New("rdma: verb deadline exceeded")

	// ErrUnposted marks a verb rejected before any byte reached the wire
	// (the QP already carried a sticky transport error). Such verbs are
	// provably unexecuted and always safe to replay — including atomics.
	ErrUnposted = errors.New("rdma: verb not posted")

	// ErrUncertain marks a non-idempotent verb (CAS, FETCH_ADD) whose
	// completion was lost to a transport failure after it was posted: the
	// remote side may or may not have executed it. Callers must re-derive
	// state (e.g. re-read the target qword) before retrying.
	ErrUncertain = errors.New("rdma: atomic verb outcome uncertain (completion lost)")
)

// IsTransportErr reports whether err is a transport-level failure — the QP
// (or its connection) died rather than the remote side refusing the verb.
// Transport failures are the reconnectable class: a fresh QP to the same
// endpoint can be expected to succeed. Remote status errors (ErrAccess,
// ErrBounds, ErrOp) and local validation failures are deterministic and are
// NOT transport errors.
func IsTransportErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrTimeout) || errors.Is(err, ErrUnposted) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var netErr net.Error
	return errors.As(err, &netErr)
}

func statusErr(s uint8) error {
	switch s {
	case StatusOK:
		return nil
	case StatusAccessErr:
		return ErrAccess
	case StatusBoundsErr:
		return ErrBounds
	default:
		return ErrOp
	}
}

// readFrame reads one length-prefixed frame and returns its payload in buf,
// grown when the payload does not fit. The payload is valid until the next
// readFrame into the same buffer. The length prefix is consumed via
// Peek/Discard on the bufio.Reader so the header costs no allocation.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := br.Peek(frameHdr)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrame {
		return nil, fmt.Errorf("rdma: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	br.Discard(frameHdr)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// scratchKeep caps the per-connection buffers retained between frames: a
// one-off giant frame does not pin its buffer on an idle connection forever.
const scratchKeep = 128 << 10

// reuse returns b emptied for the connection's next frame, or nil once b
// has grown past scratchKeep.
func reuse(b []byte) []byte {
	if cap(b) > scratchKeep {
		return nil
	}
	return b[:0]
}

// frameBuffered reports whether a complete frame is already sitting in br's
// buffer, i.e. the next readFrame cannot block. Poll loops use it to drain
// every ready frame in one pass and flush exactly once per pass — but never
// to keep reading past the last buffered frame, which would deadlock a peer
// that is itself waiting on our unflushed responses. Oversize prefixes
// report true so the drain loop surfaces the protocol error immediately.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < frameHdr {
		return false
	}
	hdr, _ := br.Peek(frameHdr)
	n := binary.BigEndian.Uint32(hdr)
	return n > MaxFrame || br.Buffered() >= frameHdr+int(n)
}

// reqHdr is the fixed request header: opcode, request id, trace id.
const reqHdr = 1 + 8 + 8

// request is a decoded verb request.
type request struct {
	op    uint8
	id    uint64
	trace uint64 // originating trace id; 0 = untraced
	rkey  uint32
	addr  uint64
	len   uint32    // OpRead
	cmp   uint64    // OpCAS
	swap  uint64    // OpCAS
	delta uint64    // OpFetchAdd
	imm   uint32    // OpWriteImm
	data  []byte    // OpWrite / OpWriteImm / OpRotateMR (region name)
	subs  []request // OpBatch: sub-verbs, each OpWrite or OpWriteImm
}

// Batch sub-verb descriptor layout (concatenated, one per sub-verb):
//
//	[1B subop][4B rkey][8B addr]
//	OpWrite:    [4B dataLen][data]
//	OpWriteImm: [4B imm][4B dataLen][data]
//
// Only WRITE and WRITE_WITH_IMM may ride in a batch: OpBatch models the
// posted-write chains an initiator doorbells as one unit; reads and atomics
// keep their own completions.

func (q *request) encodeBatch(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(q.subs)))
	for i := range q.subs {
		s := &q.subs[i]
		b = append(b, s.op)
		b = binary.BigEndian.AppendUint32(b, s.rkey)
		b = binary.BigEndian.AppendUint64(b, s.addr)
		if s.op == OpWriteImm {
			b = binary.BigEndian.AppendUint32(b, s.imm)
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(s.data)))
		b = append(b, s.data...)
	}
	return b
}

// decodeBatch decodes sub-verbs into scratch (appending from scratch[:0]),
// so a serving loop can reuse one subs slice across frames. Pass nil to
// allocate fresh. Sub-verb data aliases body.
func decodeBatch(q *request, body []byte, scratch []request) error {
	if len(body) < 2 {
		return errors.New("rdma: short BATCH body")
	}
	n := int(binary.BigEndian.Uint16(body))
	body = body[2:]
	if scratch == nil {
		scratch = make([]request, 0, n)
	}
	q.subs = scratch[:0]
	for i := 0; i < n; i++ {
		if len(body) < 13 {
			return errors.New("rdma: truncated BATCH sub-verb")
		}
		var s request
		s.op = body[0]
		s.rkey = binary.BigEndian.Uint32(body[1:5])
		s.addr = binary.BigEndian.Uint64(body[5:13])
		body = body[13:]
		switch s.op {
		case OpWriteImm:
			if len(body) < 4 {
				return errors.New("rdma: truncated BATCH sub-verb")
			}
			s.imm = binary.BigEndian.Uint32(body[0:4])
			body = body[4:]
		case OpWrite:
		default:
			return fmt.Errorf("rdma: opcode %#x not allowed in BATCH", s.op)
		}
		if len(body) < 4 {
			return errors.New("rdma: truncated BATCH sub-verb")
		}
		dn := int(binary.BigEndian.Uint32(body[0:4]))
		body = body[4:]
		if len(body) < dn {
			return errors.New("rdma: truncated BATCH sub-verb data")
		}
		s.data = body[:dn]
		body = body[dn:]
		q.subs = append(q.subs, s)
	}
	if len(body) != 0 {
		return errors.New("rdma: trailing bytes after BATCH sub-verbs")
	}
	return nil
}

// appendTo appends the encoded request payload to b.
func (q *request) appendTo(b []byte) []byte {
	b = append(b, q.op)
	b = binary.BigEndian.AppendUint64(b, q.id)
	b = binary.BigEndian.AppendUint64(b, q.trace)
	if q.op == OpBatch {
		return q.encodeBatch(b)
	}
	b = binary.BigEndian.AppendUint32(b, q.rkey)
	b = binary.BigEndian.AppendUint64(b, q.addr)
	switch q.op {
	case OpRead:
		b = binary.BigEndian.AppendUint32(b, q.len)
	case OpWrite:
		b = append(b, q.data...)
	case OpCAS:
		b = binary.BigEndian.AppendUint64(b, q.cmp)
		b = binary.BigEndian.AppendUint64(b, q.swap)
	case OpFetchAdd, OpChainTrigger:
		b = binary.BigEndian.AppendUint64(b, q.delta)
	case OpWriteImm:
		b = binary.BigEndian.AppendUint32(b, q.imm)
		b = append(b, q.data...)
	case OpRotateMR:
		b = append(b, q.data...)
	}
	return b
}

func decodeRequest(p []byte) (request, error) {
	var q request
	err := q.decodeInto(p, nil)
	return q, err
}

// decodeInto decodes p into q, reusing subsScratch (may be nil) for batch
// sub-verbs. Decoded data/subs alias p: they are valid only until the
// connection reads its next frame into p's buffer.
func (q *request) decodeInto(p []byte, subsScratch []request) error {
	if len(p) < reqHdr {
		return fmt.Errorf("rdma: short request (%d bytes)", len(p))
	}
	q.op = p[0]
	q.id = binary.BigEndian.Uint64(p[1:9])
	q.trace = binary.BigEndian.Uint64(p[9:17])
	body := p[reqHdr:]
	if q.op == OpQueryMRs {
		return nil
	}
	if q.op == OpBatch {
		return decodeBatch(q, body, subsScratch)
	}
	if len(body) < 12 {
		return fmt.Errorf("rdma: short verb body (%d bytes)", len(body))
	}
	q.rkey = binary.BigEndian.Uint32(body[0:4])
	q.addr = binary.BigEndian.Uint64(body[4:12])
	rest := body[12:]
	switch q.op {
	case OpRead:
		if len(rest) != 4 {
			return errors.New("rdma: bad READ body")
		}
		q.len = binary.BigEndian.Uint32(rest)
	case OpWrite:
		q.data = rest
	case OpCAS:
		if len(rest) != 16 {
			return errors.New("rdma: bad CAS body")
		}
		q.cmp = binary.BigEndian.Uint64(rest[0:8])
		q.swap = binary.BigEndian.Uint64(rest[8:16])
	case OpFetchAdd:
		if len(rest) != 8 {
			return errors.New("rdma: bad FETCH_ADD body")
		}
		q.delta = binary.BigEndian.Uint64(rest)
	case OpChainTrigger:
		if len(rest) != 8 {
			return errors.New("rdma: bad CHAIN_TRIGGER body")
		}
		q.delta = binary.BigEndian.Uint64(rest)
	case OpRotateMR:
		q.data = rest
	case OpWriteImm:
		if len(rest) < 4 {
			return errors.New("rdma: bad WRITE_IMM body")
		}
		q.imm = binary.BigEndian.Uint32(rest[0:4])
		q.data = rest[4:]
	default:
		return fmt.Errorf("rdma: unknown opcode %#x", q.op)
	}
	return nil
}

// response is a decoded verb response.
type response struct {
	id      uint64
	status  uint8
	modeled time.Duration // the LatencyModel's charge for the verb
	data    []byte
}

// respHdr is the fixed response header: OpResp, request id, status,
// modeled nanoseconds.
const respHdr = 1 + 8 + 1 + 4

// appendResponse appends an encoded response payload to b. A charge past
// the 4-byte field (≈ 4.3 s) is clamped to it.
func appendResponse(b []byte, id uint64, status uint8, modeled time.Duration, data []byte) []byte {
	b = append(b, OpResp)
	b = binary.BigEndian.AppendUint64(b, id)
	b = append(b, status)
	b = binary.BigEndian.AppendUint32(b, uint32(min(modeled, math.MaxUint32)))
	return append(b, data...)
}

func decodeResponse(p []byte) (response, error) {
	var r response
	if len(p) < respHdr || p[0] != OpResp {
		return r, fmt.Errorf("rdma: malformed response (%d bytes)", len(p))
	}
	r.id = binary.BigEndian.Uint64(p[1:9])
	r.status = p[9]
	r.modeled = time.Duration(binary.BigEndian.Uint32(p[10:14]))
	r.data = p[respHdr:]
	return r, nil
}
