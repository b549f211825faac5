package rdma

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rdx/internal/mem"
)

func TestFrameBufSizeClasses(t *testing.T) {
	cases := []struct {
		n       int
		wantCap int
	}{
		{0, 512},
		{1, 512},
		{512, 512},
		{513, 8 << 10},
		{8 << 10, 8 << 10},
		{100 << 10, 128 << 10},
		{1 << 20, 1 << 20},
		{MaxFrame, MaxFrame + frameHdr},
		{MaxFrame + frameHdr, MaxFrame + frameHdr},
	}
	for _, c := range cases {
		f := getFrame(c.n)
		if len(f.Bytes()) != c.n {
			t.Errorf("getFrame(%d): len = %d", c.n, len(f.Bytes()))
		}
		if cap(f.b) != c.wantCap {
			t.Errorf("getFrame(%d): class cap = %d, want %d", c.n, cap(f.b), c.wantCap)
		}
		f.Release()
	}
}

func TestFrameBufReuseAndAccounting(t *testing.T) {
	borrowed := poolHits.Load() + poolMisses.Load()
	outstanding := poolBorrows.Load()
	f := getFrame(100)
	buf := &f.b[0]
	f.Release()
	g := getFrame(200)
	defer g.Release()
	// Same P, nothing else borrowing this class: the sync.Pool should hand
	// the buffer straight back.
	if &g.b[0] != buf {
		t.Log("note: pool did not reuse the buffer (GC or scheduling); accounting still checked")
	}
	if d := poolHits.Load() + poolMisses.Load() - borrowed; d < 2 {
		t.Errorf("borrow accounting lost borrows: %d counted, want >= 2", d)
	}
	if got := poolBorrows.Load(); got != outstanding+1 {
		t.Errorf("outstanding = %d, want %d", got, outstanding+1)
	}
}

func TestFrameBufRetainRelease(t *testing.T) {
	f := getFrame(64)
	f.Retain()
	f.Release() // still one reference held
	if got := len(f.Bytes()); got != 64 {
		t.Fatalf("frame invalidated while retained: len = %d", got)
	}
	f.Release()

	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	f.Release()
}

// waitOutstanding polls until the arena's outstanding-borrow count returns
// to the baseline, failing the test if frames leaked.
func waitOutstanding(t *testing.T, base int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if poolBorrows.Load() <= base {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("frame buffers leaked: outstanding = %d, baseline %d",
		poolBorrows.Load(), base)
}

// TestFramePoolNoLeakMalformedTeardown: a malformed frame tears the QP
// down; the borrowed frame must be released on that error path.
func TestFramePoolNoLeakMalformedTeardown(t *testing.T) {
	base := poolBorrows.Load()
	ep := NewEndpoint(mem.NewArena(4096), nil)
	ep.SetLogf(nil)
	ep.RegisterMR("all", 0, 4096, PermAll)
	fab := NewFabric()
	l, err := fab.Listen("n")
	if err != nil {
		t.Fatal(err)
	}
	go ep.Serve(l)

	conn, err := fab.Dial("n")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, []byte{0xEE, 1, 2, 3}); err != nil { // unknown opcode
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("endpoint replied to a malformed frame")
	}
	conn.Close()
	ep.Close()
	waitOutstanding(t, base)
}

// TestFramePoolNoLeakDrain: frames in flight when the endpoint drains are
// all returned once the handlers exit.
func TestFramePoolNoLeakDrain(t *testing.T) {
	base := poolBorrows.Load()
	arena := mem.NewArena(1 << 16)
	ep := NewEndpoint(arena, &LatencyModel{Base: 200 * time.Microsecond, SpinTail: -1})
	mr, _ := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	fab := NewFabric()
	l, _ := fab.Listen("n")
	go ep.Serve(l)
	qp, err := fab.DialQP("n")
	if err != nil {
		t.Fatal(err)
	}
	qp.SetTimeout(2 * time.Second)

	var chans []<-chan Completion
	for i := 0; i < 16; i++ {
		ch, err := qp.PostWrite(mr.RKey, mem.Addr(i*64), bytes.Repeat([]byte{byte(i)}, 48))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	ep.Drain(500 * time.Millisecond)
	for _, ch := range chans {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("completion lost across Drain")
		}
	}
	qp.Close()
	waitOutstanding(t, base)
}

// TestFramePoolNoLeakCloseConns: severing every conn mid-traffic (the
// transport-flap path) releases all borrowed frames on both sides.
func TestFramePoolNoLeakCloseConns(t *testing.T) {
	base := poolBorrows.Load()
	arena := mem.NewArena(1 << 16)
	ep := NewEndpoint(arena, &LatencyModel{Base: 100 * time.Microsecond, SpinTail: -1})
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
	waitOutstanding(t, base)
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

// TestWriteAcrossWritevBoundary pins writeRequest's two emissions either
// side of writevMin: a payload one byte short is copied into the frame, one
// at or above it goes out as prefix + caller's slice through net.Buffers.
// Four posters share the QP, so two-part emissions are in flight while
// others post. The in-process link has no writev — Buffers degrades to two
// Writes — so frames stay whole there only because sendMu spans both.
func TestWriteAcrossWritevBoundary(t *testing.T) {
	const posters, region = 4, 1 << 20
	sizes := []int{writevMin - 1, writevMin, writevMin + 1, region}
	fab := NewFabric()
	links := []struct {
		name   string
		listen func() (net.Listener, error)
		dial   func(net.Listener) (*QP, error)
	}{
		{"fabric", func() (net.Listener, error) { return fab.Listen("n") },
			func(net.Listener) (*QP, error) { return fab.DialQP("n") }},
		{"tcp", func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") },
			func(l net.Listener) (*QP, error) { return Dial("tcp", l.Addr().String()) }},
	}
	for _, link := range links {
		t.Run(link.name, func(t *testing.T) {
			base := poolBorrows.Load()
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
						if got, err := qp.Read(mr.RKey, addr, n); err != nil || !bytes.Equal(got, payload) {
							t.Errorf("poster %d: %d-byte write read back corrupted (err=%v)", w, n, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			qp.Close()
			waitOutstanding(t, base)
		})
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
		if err := qp.WriteBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(300, func() {
		if err := qp.WriteBatch(ops); err != nil {
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
		prev, err := qp.FetchAdd(mr.RKey, 64, 1)
		if err != nil || prev != want {
			t.Fatalf("FETCH_ADD returned %d, %v; want %d", prev, err, want)
		}
		prev, err = qp.CompareAndSwap(mr.RKey, 64, want+1, want+2)
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
			if _, err := qp.Read(mr.RKey, 0, 128); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cas", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := qp.CompareAndSwap(mr.RKey, 64, uint64(i), uint64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
