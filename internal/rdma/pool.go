package rdma

import (
	"sync"
	"sync/atomic"

	"rdx/internal/telemetry"
)

// frameHdr is the 4-byte big-endian length prefix preceding every frame.
const frameHdr = 4

// classSizes are the frame-pool size classes. A borrow is served from the
// smallest class that fits; the top class covers a MaxFrame payload plus
// its length prefix so even writeFrame's assembled [hdr|payload] image is
// poolable. Classes are coarse on purpose: steady-state traffic touches one
// or two classes, and a coarse ladder keeps the per-class pools hot.
var classSizes = [...]int{512, 8 << 10, 128 << 10, 1 << 20, 4 << 20, MaxFrame + frameHdr}

var framePools [len(classSizes)]sync.Pool

// Pool accounting. hits/misses are process-wide (the arena is shared by
// every QP and endpoint in the process); borrows tracks buffers currently
// out of the pool, which the leak tests pin to zero at quiesce.
var (
	poolHits    atomic.Uint64
	poolMisses  atomic.Uint64
	poolBorrows atomic.Int64
)

// FrameBuf is one borrowed wire buffer with a single owner, the borrower,
// whose Release returns it to its size-class pool. Ownership rules
// (DESIGN.md §12): the bytes are valid only until that Release — any
// component that wants to keep payload bytes past its synchronous scope
// copies them out first.
type FrameBuf struct {
	b   []byte // class-size backing array
	n   int    // live payload length
	cls int32  // size class, -1 for oversize one-offs (never pooled)
	out atomic.Bool
}

// Bytes returns the live payload view. Valid until Release.
func (f *FrameBuf) Bytes() []byte { return f.b[:f.n] }

// Release returns the buffer to its pool. Releasing twice panics — a double
// release means two owners think they hold the frame, which is a
// correctness bug, not a recoverable condition.
func (f *FrameBuf) Release() {
	if !f.out.Swap(false) {
		panic("rdma: FrameBuf over-released")
	}
	poolBorrows.Add(-1)
	if f.cls >= 0 {
		framePools[f.cls].Put(f)
	}
}

func classFor(n int) int {
	for c, sz := range classSizes {
		if n <= sz {
			return c
		}
	}
	return -1
}

// getFrame borrows a buffer with capacity for n bytes (length pre-set to
// n).
func getFrame(n int) *FrameBuf {
	c := classFor(n)
	var f *FrameBuf
	if c >= 0 {
		if v := framePools[c].Get(); v != nil {
			f = v.(*FrameBuf)
			poolHits.Add(1)
			if wi := wireInstr.Load(); wi != nil {
				wi.hits.Inc()
			}
		}
	}
	if f == nil {
		poolMisses.Add(1)
		if wi := wireInstr.Load(); wi != nil {
			wi.misses.Inc()
		}
		size := n
		if c >= 0 {
			size = classSizes[c]
		}
		f = &FrameBuf{b: make([]byte, size), cls: int32(c)}
	}
	f.n = n
	f.out.Store(true)
	poolBorrows.Add(1)
	return f
}

// wireInstruments is the registry binding for the process-wide wire
// instrument family:
//
//	rdma.wire.pool.hits       counter    frame borrows served from a pool
//	rdma.wire.pool.misses     counter    frame borrows that allocated
//	rdma.wire.frames_per_poll histogram  frames drained per poll pass
//	                                     (endpoint serve + QP completion)
type wireInstruments struct {
	hits, misses  *telemetry.Counter
	framesPerPoll *telemetry.Histogram
}

var wireInstr atomic.Pointer[wireInstruments]

// BindWireInstruments attaches the process-wide wire-path instruments
// (frame-pool hits/misses, frames-per-poll) to reg. The frame arena is
// shared by every QP and endpoint in the process, so the binding is global;
// the last binder wins. The package-level counters (poolHits, poolMisses,
// poolBorrows) keep counting whether or not a registry is bound.
func BindWireInstruments(reg *telemetry.Registry) {
	wireInstr.Store(&wireInstruments{
		hits:          reg.Counter("rdma.wire.pool.hits"),
		misses:        reg.Counter("rdma.wire.pool.misses"),
		framesPerPoll: reg.Histogram("rdma.wire.frames_per_poll"),
	})
	bindChainInstruments(reg)
}

// recordPoll accounts one poll pass that drained n frames.
func recordPoll(n int) {
	if wi := wireInstr.Load(); wi != nil {
		wi.framesPerPoll.Record(int64(n))
	}
}
