package rdma

import (
	"context"

	"rdx/internal/mem"
)

// FrameView, ViewOf, FrameReader and (*QP).ReadFrameCtx are kept only
// because the benchmark module's traced link forwards them, like
// (*QP).Write, and go once that module stops forwarding them. A READ always
// delivers a heap copy, and the view wraps it.

// FrameView holds a READ payload.
type FrameView struct {
	data []byte
}

// ViewOf wraps a heap slice in a view.
func ViewOf(b []byte) FrameView { return FrameView{data: b} }

// Bytes returns the payload.
func (v FrameView) Bytes() []byte { return v.data }

// FrameReader is the view-returning read surface the benchmark module's
// traced link forwards.
type FrameReader interface {
	ReadFrameCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) (FrameView, error)
}

// ReadFrameCtx is ReadCtx returning a view of the copied payload.
func (qp *QP) ReadFrameCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) (FrameView, error) {
	b, err := qp.ReadCtx(ctx, rkey, addr, n)
	return ViewOf(b), err
}

var _ FrameReader = (*QP)(nil)
