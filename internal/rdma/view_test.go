package rdma

import (
	"bytes"
	"context"
	"testing"
)

// TestReadFrameView checks the zero-copy read path end to end: the view's
// bytes match the arena, and releasing returns the frame to its pool
// without disturbing a later read.
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
	if !bytes.Equal(v.Bytes(), want) {
		t.Fatalf("view bytes mismatch (%d bytes)", len(v.Bytes()))
	}
	v.Release()
	// The pool may hand the released frame straight back; a second read
	// must still see correct bytes, not a recycled buffer's garbage.
	v2, err := qp.ReadFrameCtx(context.Background(), mr.RKey, 0x100, len(want))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Release()
	if !bytes.Equal(v2.Bytes(), want) {
		t.Fatal("second view read corrupted after release")
	}
}

// TestViewOfFallback pins the copy-fallback view: no-op Release, stable
// bytes.
func TestViewOfFallback(t *testing.T) {
	b := []byte("fallback")
	v := ViewOf(b)
	if !bytes.Equal(v.Bytes(), b) {
		t.Fatal("ViewOf bytes mismatch")
	}
	v.Release()
	v.Release() // must not panic: copy views have no refcount
	if !bytes.Equal(v.Bytes(), b) {
		t.Fatal("bytes changed after release")
	}
}

// TestReadHotPathZeroAllocs is the read-side companion of
// TestWriteHotPathZeroAllocs: a view read hands back the pooled response
// frame instead of a heap copy, so the steady-state READ round trip stays
// allocation-free.
func TestReadHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race")
	}
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	if err := qp.Write(mr.RKey, 0, bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // warm the pools and the pending map
		v, err := qp.ReadFrameCtx(context.Background(), mr.RKey, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
	}
	avg := testing.AllocsPerRun(500, func() {
		v, err := qp.ReadFrameCtx(context.Background(), mr.RKey, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
	})
	if avg >= 1 {
		t.Errorf("view READ round trip allocates %.2f objects/op, want 0 steady-state", avg)
	}
}
