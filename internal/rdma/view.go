package rdma

import (
	"context"

	"rdx/internal/mem"
)

// FrameView is a borrowed, zero-copy view of READ payload bytes, backed by
// the pooled wire frame the response arrived in. The bytes are valid until
// Release; the consumer MUST Release exactly once (DESIGN.md §12 ownership
// rules), after which the backing frame may be recycled and the view's
// bytes scribbled over. A zero FrameView (or one built by ViewOf over an
// ordinary heap slice) is valid and its Release is a no-op — that is the
// copy fallback issuers without a frame-aware transport return.
type FrameView struct {
	f    *FrameBuf
	data []byte
}

// ViewOf wraps an ordinary heap slice in a releasable view — the fallback
// for transports that deliver copies (the simulator, pre-view issuers).
func ViewOf(b []byte) FrameView { return FrameView{data: b} }

// Bytes returns the payload. Valid until Release for frame-backed views.
func (v FrameView) Bytes() []byte { return v.data }

// Release returns the backing frame to its pool (no-op for copy views).
func (v FrameView) Release() {
	if v.f != nil {
		v.f.Release()
	}
}

// FrameReader is the optional zero-copy read surface an issuer may provide
// alongside Verbs. Callers type-assert for it and fall back to ReadCtx plus
// ViewOf when absent, so the view path is an optimization, never a
// requirement.
type FrameReader interface {
	ReadFrameCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) (FrameView, error)
}

// ReadFrameCtx performs a one-sided READ and delivers the payload as a
// zero-copy view of the pooled response frame instead of a heap copy — the
// bulk-read twin of the writev send path. The caller must Release the view.
//
// One sharp edge, inherent to zero-copy completions: if the verb times out
// but its completion is already in flight, the retained frame strands until
// the GC reclaims it (it can never be recycled safely). The ordinary copy
// path has no such window, which is why views are opt-in for hot paths that
// poll with generous deadlines, not the default READ.
func (qp *QP) ReadFrameCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) (FrameView, error) {
	c, err := qp.callCtx(ctx, request{op: OpRead, rkey: rkey, addr: addr, len: uint32(n), view: true})
	if err != nil {
		if c.View != nil {
			c.View.Release() // error completion with data (shouldn't happen for READ)
		}
		return FrameView{}, err
	}
	return FrameView{f: c.View, data: c.Data}, nil
}

// ReadFrameCtx implements FrameReader with transparent redial and replay
// (READs are idempotent).
func (r *ReconnQP) ReadFrameCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) (FrameView, error) {
	var out FrameView
	err := r.do(ctx, true, func(qp *QP, rk func(uint32) uint32) error {
		var err error
		out, err = qp.ReadFrameCtx(ctx, rk(rkey), addr, n)
		return err
	})
	return out, err
}

var (
	_ FrameReader = (*QP)(nil)
	_ FrameReader = (*ReconnQP)(nil)
)
