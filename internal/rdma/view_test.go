package rdma

import (
	"bytes"
	"context"
	"testing"
)

// TestReadFrameView checks the copy-backed view read: the view's bytes
// match the arena, and a later read leaves them intact.
func TestReadFrameView(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x5A}, 1024)
	if err := qp.Write(mr.RKey, 0x100, want); err != nil {
		t.Fatal(err)
	}
	v, err := qp.ReadFrameCtx(context.Background(), mr.RKey, 0x100, len(want))
	if err != nil {
		t.Fatalf("view read: %v", err)
	}
	if _, err := qp.ReadFrameCtx(context.Background(), mr.RKey, 0, len(want)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Bytes(), want) {
		t.Fatalf("view bytes mismatch (%d bytes)", len(v.Bytes()))
	}
}

// TestViewOfFallback pins the copy-backed view: it holds the bytes it
// wraps.
func TestViewOfFallback(t *testing.T) {
	b := []byte("fallback")
	if v := ViewOf(b); !bytes.Equal(v.Bytes(), b) {
		t.Fatal("ViewOf bytes mismatch")
	}
}
