package rdma

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"rdx/internal/mem"
)

// sendFrame writes payload as one length-prefixed frame in a single Write.
func sendFrame(w io.Writer, payload []byte) error {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	_, err := w.Write(append(b, payload...))
	return err
}

func (q *request) encode() []byte { return q.appendTo(nil) }

func (r *response) encode() []byte {
	return appendResponse(nil, r.id, r.status, r.modeled, r.data)
}

// readFrames drains and discards request frames until br fails: a peer
// that accepts verbs but never replies.
func readFrames(br *bufio.Reader) {
	var buf []byte
	for {
		frame, err := readFrame(br, buf)
		if err != nil {
			return
		}
		buf = frame
	}
}

// TestDrainLosesNoCompletion: every verb in flight when the endpoint drains
// completes, served or failed, and none times out. The endpoint serves a
// frame as soon as it reads it, so the frames are kept in flight by volume
// instead: the posts carry 16× the link's capacity, each blocks until the
// endpoint has read room free, and when the last returns a link's worth of
// frames is still unread — some served before the handler exits, the rest
// failed when it drops the connection.
func TestDrainLosesNoCompletion(t *testing.T) {
	arena := mem.NewArena(1 << 16)
	ep := NewEndpoint(arena, nil)
	mr, _ := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	fab := NewFabric()
	l, _ := fab.Listen("n")
	go ep.Serve(l)
	qp, err := fab.DialQP("n")
	if err != nil {
		t.Fatal(err)
	}
	qp.SetTimeout(2 * time.Second)

	const size = 4 << 10
	var pvs []*pendingVerb
	for i := 0; i < 16*linkCap/size; i++ {
		pv, err := qp.post(request{op: OpWrite, rkey: mr.RKey, addr: mem.Addr(i % 16 * size), data: bytes.Repeat([]byte{byte(i)}, size)})
		if err != nil {
			t.Fatal(err)
		}
		pvs = append(pvs, pv)
	}
	ep.Drain(500 * time.Millisecond)
	for _, pv := range pvs {
		if _, err := qp.wait(context.Background(), pv); errors.Is(err, ErrTimeout) {
			t.Fatal("completion lost across Drain")
		}
	}
	qp.Close()
}

// TestCloseConnsFailsWriters: severing every conn mid-traffic (the
// transport-flap path) fails every writer looping on its QP, so all of them
// return.
func TestCloseConnsFailsWriters(t *testing.T) {
	arena := mem.NewArena(1 << 16)
	ep := NewEndpoint(arena, &LatencyModel{Base: 100 * time.Microsecond})
	mr, _ := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	fab := NewFabric()
	l, _ := fab.Listen("n")
	go ep.Serve(l)
	defer ep.Close()

	var qps []*QP
	for i := 0; i < 4; i++ {
		qp, err := fab.DialQP("n")
		if err != nil {
			t.Fatal(err)
		}
		qp.SetTimeout(2 * time.Second)
		qps = append(qps, qp)
	}
	var wg sync.WaitGroup
	for _, qp := range qps {
		wg.Add(1)
		go func(qp *QP) {
			defer wg.Done()
			for i := 0; ; i++ {
				if err := qp.Write(mr.RKey, mem.Addr((i%100)*64), []byte("payload")); err != nil {
					return // transport severed — expected
				}
			}
		}(qp)
	}
	time.Sleep(20 * time.Millisecond)
	ep.CloseConns()
	wg.Wait()
	for _, qp := range qps {
		qp.Close()
	}
}

// TestConcurrentWritersShareConn exercises the coalesced-frame send path
// with several goroutines racing on ONE QP (run under -race in CI): every
// frame must go out whole, so all writes land intact and none interleave.
func TestConcurrentWritersShareConn(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<20, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perWriter = 200
	const sz = 512
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(0xA0 + w)}, sz)
			for i := 0; i < perWriter; i++ {
				addr := mem.Addr((w*perWriter + i%perWriter) * sz)
				if err := qp.Write(mr.RKey, addr, payload); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		want := bytes.Repeat([]byte{byte(0xA0 + w)}, sz)
		for i := 0; i < perWriter; i++ {
			got, err := arena.Read(mem.Addr((w*perWriter+i)*sz), sz)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("writer %d slot %d corrupted: frames interleaved on the shared conn", w, i)
			}
		}
	}
}

// TestWriteSizesAcrossScratchKeep sweeps WRITE and READ sizes across
// scratchKeep, where a connection's buffers stop being kept between frames:
// one byte short, exact, one byte over, and a whole 1 MiB segment. Four
// posters share the QP, so a frame that grew sendBuf past scratchKeep is in
// flight while others assemble theirs, and each READ's response grows the
// QP's read buffer and the endpoint's request buffer the same way. Runs over
// the in-process link and over TCP.
func TestWriteSizesAcrossScratchKeep(t *testing.T) {
	const posters, region = 4, 1 << 20
	sizes := []int{scratchKeep - 1, scratchKeep, scratchKeep + 1, region}
	fab := NewFabric()
	links := []struct {
		name   string
		listen func() (net.Listener, error)
		dial   func(net.Listener) (*QP, error)
	}{
		{"fabric", func() (net.Listener, error) { return fab.Listen("n") },
			func(net.Listener) (*QP, error) { return fab.DialQP("n") }},
		{"tcp", func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") },
			func(l net.Listener) (*QP, error) {
				conn, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					return nil, err
				}
				return NewQP(conn), nil
			}},
	}
	for _, link := range links {
		t.Run(link.name, func(t *testing.T) {
			arena := mem.NewArena(posters * region)
			ep := NewEndpoint(arena, nil)
			mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
			if err != nil {
				t.Fatal(err)
			}
			l, err := link.listen()
			if err != nil {
				t.Fatal(err)
			}
			go ep.Serve(l)
			defer ep.Close()
			qp, err := link.dial(l)
			if err != nil {
				t.Fatal(err)
			}
			defer qp.Close()
			var wg sync.WaitGroup
			for w := 0; w < posters; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					addr := mem.Addr(w * region)
					for _, n := range sizes {
						payload := make([]byte, n)
						for j := range payload {
							payload[j] = byte(j*31 + n + w)
						}
						if err := qp.Write(mr.RKey, addr, payload); err != nil {
							t.Errorf("poster %d write %d: %v", w, n, err)
							return
						}
						if got, err := qp.ReadCtx(context.Background(), mr.RKey, addr, n); err != nil || !bytes.Equal(got, payload) {
							t.Errorf("poster %d: %d-byte write read back corrupted (err=%v)", w, n, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestReadDataOutlivesReadBuffer: a READ's Completion.Data is its own copy.
// The QP reads every later response into the same buffer — a smaller frame
// over its first bytes, an equal one over all of them, a larger one that
// grows it — and the first READ's bytes stay exact throughout.
func TestReadDataOutlivesReadBuffer(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	const first = 8 << 10
	for i := 0; i < 4; i++ {
		if err := qp.Write(mr.RKey, mem.Addr(i*first), bytes.Repeat([]byte{byte(0x11 * (i + 1))}, first)); err != nil {
			t.Fatal(err)
		}
	}
	want := bytes.Repeat([]byte{0x11}, first)
	got, err := qp.ReadCtx(context.Background(), mr.RKey, 0, first)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("first READ: err=%v, bytes exact=%v", err, bytes.Equal(got, want))
	}
	later := []struct {
		addr mem.Addr
		n    int
	}{{first, 64}, {2 * first, first}, {first, 3 * first}}
	for _, r := range later {
		b, err := qp.ReadCtx(context.Background(), mr.RKey, r.addr, r.n)
		if err != nil {
			t.Fatal(err)
		}
		if &b[0] == &got[0] {
			t.Fatalf("%d-byte READ returned the first READ's backing array", r.n)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("first READ's data changed after a later %d-byte READ", r.n)
		}
	}
}

// TestWriteHotPathZeroAllocs is the allocs/op regression gate for the
// tentpole claim: a steady-state WRITE round trip — client encode+send,
// endpoint serve+respond, client completion — performs zero heap
// allocations. Runs without -race only (instrumented builds allocate).
func TestWriteHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race")
	}
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x42}, 128)
	for i := 0; i < 200; i++ { // warm the pools and the pending map
		if err := qp.Write(mr.RKey, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := qp.Write(mr.RKey, 0, payload); err != nil {
			t.Fatal(err)
		}
	})
	// The whole round trip is measured (AllocsPerRun counts process-wide
	// mallocs), so the endpoint's serve path and the client's completion
	// path are covered too. Sub-1 average tolerates a GC clearing the
	// pools mid-measurement; a real per-op allocation shows up as >= 1.
	if avg >= 1 {
		t.Errorf("WRITE round trip allocates %.2f objects/op, want 0 steady-state", avg)
	}
}

// TestBatchHotPathZeroAllocs pins the per-response allocation fix in
// handleBatch/respond: batch statuses and the response frame ride in
// per-conn scratch.
func TestBatchHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race")
	}
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]BatchOp, 8)
	for i := range ops {
		ops[i] = BatchOp{RKey: mr.RKey, Addr: mem.Addr(i * 256), Data: bytes.Repeat([]byte{byte(i)}, 128)}
	}
	for i := 0; i < 100; i++ {
		if err := qp.WriteBatchCtx(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(300, func() {
		if err := qp.WriteBatchCtx(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
	})
	// The batch client path still builds its subs slice and completion
	// data copy per call (bounded, small); the gate holds the endpoint's
	// per-response allocations at zero and the total far below the old
	// one-alloc-per-sub-verb behavior.
	if avg > 8 {
		t.Errorf("BATCH round trip allocates %.2f objects/op, want <= 8", avg)
	}
}

// TestAtomicHotPathZeroAllocs gates the atomics' completion path: CAS and
// FETCH_ADD results arrive in Completion.OldVal, with no payload copy.
func TestAtomicHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race")
	}
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	atomics := func() {
		prev, err := qp.FetchAddCtx(context.Background(), mr.RKey, 64, 1)
		if err != nil || prev != want {
			t.Fatalf("FETCH_ADD returned %d, %v; want %d", prev, err, want)
		}
		prev, err = qp.CompareAndSwapCtx(context.Background(), mr.RKey, 64, want+1, want+2)
		if err != nil || prev != want+1 {
			t.Fatalf("CAS returned %d, %v; want %d", prev, err, want+1)
		}
		want += 2
	}
	for i := 0; i < 200; i++ { // warm the pools and the pending map
		atomics()
	}
	if avg := testing.AllocsPerRun(500, atomics); avg >= 1 {
		t.Errorf("FETCH_ADD + CAS round trips allocate %.2f objects, want 0 steady-state", avg)
	}
}

// BenchmarkVerbRoundTrip measures the synchronous verb hot path over the
// in-process fabric. CI runs it with -benchtime=1x as a smoke check; the
// allocs/op regression threshold is enforced by TestWriteHotPathZeroAllocs.
func BenchmarkVerbRoundTrip(b *testing.B) {
	arena := mem.NewArena(1 << 16)
	ep := NewEndpoint(arena, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		b.Fatal(err)
	}
	fab := NewFabric()
	l, _ := fab.Listen("bench")
	go ep.Serve(l)
	qp, err := fab.DialQP("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		qp.Close()
		ep.Close()
	}()

	b.Run("write128", func(b *testing.B) {
		payload := bytes.Repeat([]byte{0x42}, 128)
		b.SetBytes(128)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := qp.Write(mr.RKey, 0, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read128", func(b *testing.B) {
		b.SetBytes(128)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := qp.ReadCtx(context.Background(), mr.RKey, 0, 128); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cas", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := qp.CompareAndSwapCtx(context.Background(), mr.RKey, 64, uint64(i), uint64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
