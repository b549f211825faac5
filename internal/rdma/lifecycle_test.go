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
	"strings"
	"sync"
	"testing"
	"time"

	"rdx/internal/faultnet"
	"rdx/internal/mem"
)

// swallowQP returns a QP whose peer accepts frames but never replies, so
// posted verbs stay in flight forever.
func swallowQP(t *testing.T) *QP {
	t.Helper()
	client, server := net.Pipe()
	go readFrames(bufio.NewReader(server))
	qp := NewQP(client)
	t.Cleanup(func() {
		qp.Close()
		server.Close()
	})
	return qp
}

// TestPostCloseRaceNeverLosesCompletion is the regression for the
// post/failAll race: post used to check the sticky error and insert into
// pending in separate pendMu sections, so a verb registered between a
// failAll drain and the insert blocked its caller forever. Run with -race.
func TestPostCloseRaceNeverLosesCompletion(t *testing.T) {
	for iter := 0; iter < 60; iter++ {
		client, server := net.Pipe()
		go readFrames(bufio.NewReader(server))
		qp := NewQP(client)

		const writers = 4
		pvs := make(chan *pendingVerb, writers*8)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					pv, err := qp.post(request{op: OpWrite, rkey: 1, data: []byte{1}})
					if err != nil {
						return // refused before the wire: nothing to wait on
					}
					pvs <- pv
				}
			}()
		}
		go qp.Close()
		wg.Wait()
		server.Close()
		close(pvs)

		// Every successfully posted verb MUST complete: a lost completion
		// here is exactly the hang this test pins down.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		for pv := range pvs {
			if _, err := qp.wait(ctx, pv); errors.Is(err, ErrTimeout) {
				t.Fatalf("iter %d: completion lost to the post/failAll race", iter)
			}
		}
		cancel()
	}
}

func TestVerbDeadlineFailsWithErrTimeout(t *testing.T) {
	qp := swallowQP(t)
	qp.SetTimeout(30 * time.Millisecond)
	start := time.Now()
	err := qp.Write(1, 0, []byte("never acked"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("deadline took %v to fire", el)
	}
	if !IsTransportErr(err) {
		t.Error("ErrTimeout not classified as a transport error")
	}
}

func TestContextCancelUnblocksVerb(t *testing.T) {
	qp := swallowQP(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := qp.ReadCtx(ctx, 1, 0, 8)
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrTimeout wrapping context.Canceled", err)
	}
}

func TestWriteBatchHonorsDeadline(t *testing.T) {
	qp := swallowQP(t)
	qp.SetTimeout(30 * time.Millisecond)
	ops := []BatchOp{
		{RKey: 1, Addr: 0, Data: []byte("a")},
		{RKey: 1, Addr: 8, Data: []byte("b")},
	}
	if err := qp.WriteBatchCtx(context.Background(), ops); !errors.Is(err, ErrTimeout) {
		t.Fatalf("batch err = %v, want ErrTimeout", err)
	}
}

// TestDoorbellStraddlesWindowStart covers the fixed overlap check: a WRITE
// starting below the registered window whose payload spans into it must
// fire, and a write stopping exactly at the window start must not.
func TestDoorbellStraddlesWindowStart(t *testing.T) {
	ep := NewEndpoint(mem.NewArena(4096), nil)
	var mu sync.Mutex
	var fired []mem.Addr
	ep.RegisterDoorbell(100, 50, func(_ uint32, addr mem.Addr, _ []byte) {
		mu.Lock()
		fired = append(fired, addr)
		mu.Unlock()
	})

	ep.fireDoorbells(1, 90, make([]byte, 20)) // [90,110) straddles the start → fires
	ep.fireDoorbells(2, 95, make([]byte, 5))  // [95,100) stops at the boundary → no
	ep.fireDoorbells(3, 150, make([]byte, 8)) // starts at the window end → no
	ep.fireDoorbells(4, 149, make([]byte, 1)) // last byte of the window → fires
	ep.fireDoorbells(5, 149, nil)             // zero-length ring at last byte → fires
	ep.fireDoorbells(6, 150, nil)             // zero-length ring past the end → no

	mu.Lock()
	defer mu.Unlock()
	want := []mem.Addr{90, 149, 149}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
}

func TestDoorbellOverlapOverflowSafe(t *testing.T) {
	ep := NewEndpoint(mem.NewArena(16), nil)
	fired := 0
	top := ^mem.Addr(0) - 9
	ep.RegisterDoorbell(top, 10, func(uint32, mem.Addr, []byte) { fired++ })
	// d.addr+d.len wraps to 0; the subtraction form must still hit writes
	// inside the window and nothing else.
	ep.fireDoorbells(1, ^mem.Addr(0)-5, make([]byte, 2))
	if fired != 1 {
		t.Errorf("in-window write near the address-space top fired %d times, want 1", fired)
	}
	ep.fireDoorbells(2, 0, make([]byte, 8))
	if fired != 1 {
		t.Errorf("write at 0 fired a doorbell registered at the top of the address space")
	}
}

func TestWriteImmStraddlingDoorbellBoundaryFires(t *testing.T) {
	_, ep, qp := newTestRig(t, 4096, nil)
	mr, _ := ep.RegisterMR("all", 0, 4096, PermAll)
	fired := make(chan struct{}, 1)
	ep.RegisterDoorbell(128, 64, func(uint32, mem.Addr, []byte) { fired <- struct{}{} })
	// Payload [120, 136) enters the [128, 192) window from below.
	if err := qp.WriteImmCtx(context.Background(), mr.RKey, 120, 7, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("doorbell never fired for a write straddling the window start")
	}
}

// logCapture is a concurrency-safe Endpoint.SetLogf sink.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...interface{}) {
	lc.mu.Lock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
	lc.mu.Unlock()
}

func (lc *logCapture) snapshot() []string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]string(nil), lc.lines...)
}

// TestMalformedFrameTearsDownConnection: a frame that fails decodeRequest
// must move the QP to error state (connection drop) — not produce a reply
// with a bogus id — and the endpoint must log it and keep serving others.
// A pipelined peer that sends a valid frame and a malformed one in a single
// write gets the valid frame's reply, then the drop.
func TestMalformedFrameTearsDownConnection(t *testing.T) {
	arena := mem.NewArena(4096)
	ep := NewEndpoint(arena, nil)
	lc := &logCapture{}
	ep.SetLogf(lc.logf)
	mr, _ := ep.RegisterMR("all", 0, 4096, PermAll)
	fab := NewFabric()
	l, err := fab.Listen("n")
	if err != nil {
		t.Fatal(err)
	}
	go ep.Serve(l)
	defer ep.Close()

	malformed := []byte{99, 0, 0} // unknown op, truncated
	conn, err := fab.Dial("n")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := sendFrame(conn, malformed); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 16)); !errors.Is(err, io.EOF) {
		t.Fatalf("read after a malformed frame = %v, want EOF (no reply, QP torn down)", err)
	}

	// Pipelined: [valid WRITE][malformed] land in the endpoint's read buffer
	// together.
	piped, err := fab.Dial("n")
	if err != nil {
		t.Fatal(err)
	}
	defer piped.Close()
	valid := (&request{op: OpWrite, id: 7, rkey: mr.RKey, addr: 64, data: []byte{0xAB}}).encode()
	burst := append(binary.BigEndian.AppendUint32(nil, uint32(len(valid))), valid...)
	burst = append(binary.BigEndian.AppendUint32(burst, uint32(len(malformed))), malformed...)
	if _, err := piped.Write(burst); err != nil {
		t.Fatal(err)
	}
	piped.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(piped)
	frame, err := readFrame(br, nil)
	if err != nil {
		t.Fatalf("valid frame ahead of a malformed one got no reply: %v", err)
	}
	if resp, err := decodeResponse(frame); err != nil || resp.id != 7 || resp.status != StatusOK {
		t.Fatalf("reply to the valid frame = %+v, %v; want id 7 StatusOK", resp, err)
	}
	if b, _ := arena.Read(64, 1); b[0] != 0xAB {
		t.Errorf("valid WRITE not placed: %#x", b[0])
	}
	if _, err := readFrame(br, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("read after the malformed frame = %v, want EOF (no second reply)", err)
	}

	// The endpoint is still healthy for other QPs.
	qp, err := fab.DialQP("n")
	if err != nil {
		t.Fatal(err)
	}
	defer qp.Close()
	if _, err := qp.QueryMRs(); err != nil {
		t.Fatalf("endpoint unhealthy after malformed frame: %v", err)
	}

	found := 0
	for _, line := range lc.snapshot() {
		if strings.Contains(line, "malformed") {
			found++
		}
	}
	if found != 2 {
		t.Errorf("%d malformed frames logged, want 2; lines: %v", found, lc.snapshot())
	}
}

func TestCleanDisconnectNotLogged(t *testing.T) {
	ep := NewEndpoint(mem.NewArena(64), nil)
	lc := &logCapture{}
	ep.SetLogf(lc.logf)
	fab := NewFabric()
	l, _ := fab.Listen("n")
	go ep.Serve(l)
	defer ep.Close()

	conn, err := fab.Dial("n")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	time.Sleep(50 * time.Millisecond)
	if lines := lc.snapshot(); len(lines) != 0 {
		t.Errorf("clean EOF produced log noise: %v", lines)
	}
}

func TestTruncatedFrameLogged(t *testing.T) {
	ep := NewEndpoint(mem.NewArena(64), nil)
	lc := &logCapture{}
	ep.SetLogf(lc.logf)
	fab := NewFabric()
	l, _ := fab.Listen("n")
	go ep.Serve(l)
	defer ep.Close()

	conn, err := fab.Dial("n")
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0, 0}) // half a length prefix
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range lc.snapshot() {
			if strings.Contains(line, "read error") {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("truncated frame never logged; lines: %v", lc.snapshot())
}

// chaosDialer dials an in-process fabric name through faultnet wrappers,
// keeping each connection so tests can kill a specific generation.
type chaosDialer struct {
	fab  *Fabric
	name string

	mu    sync.Mutex
	conns []*faultnet.Conn
}

func (d *chaosDialer) dial() (net.Conn, error) {
	c, err := d.fab.Dial(d.name)
	if err != nil {
		return nil, err
	}
	fc := faultnet.Wrap(c, faultnet.Options{})
	d.mu.Lock()
	d.conns = append(d.conns, fc)
	d.mu.Unlock()
	return fc, nil
}

func (d *chaosDialer) last() *faultnet.Conn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conns[len(d.conns)-1]
}

// reconnRig boots an endpoint with one all-permission MR and a ReconnQP
// dialing it through killable faultnet connections.
func reconnRig(t *testing.T, arenaSize int) (*mem.Arena, *MR, *chaosDialer, *ReconnQP) {
	t.Helper()
	arena := mem.NewArena(arenaSize)
	ep := NewEndpoint(arena, nil)
	ep.SetLogf((&logCapture{}).logf) // chaos tests tear connections down on purpose
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	fab := NewFabric()
	l, err := fab.Listen("n")
	if err != nil {
		t.Fatal(err)
	}
	go ep.Serve(l)

	d := &chaosDialer{fab: fab, name: "n"}
	r, err := NewReconnQP(ReconnConfig{Dial: d.dial, VerbTimeout: 2 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Close()
		ep.Close()
	})
	return arena, mr, d, r
}

func TestReconnQPReplaysWriteAfterMidStreamKill(t *testing.T) {
	arena, mr, d, r := reconnRig(t, 1<<16)
	reconnects := reconnects(r)

	if err := r.WriteCtx(context.Background(), mr.RKey, 0, []byte("before")); err != nil {
		t.Fatal(err)
	}
	d.last().Kill()
	if err := r.WriteCtx(context.Background(), mr.RKey, 100, []byte("after")); err != nil {
		t.Fatalf("write after kill not replayed: %v", err)
	}
	if n := reconnects(); n != 1 {
		t.Errorf("reconnects = %d, want 1", n)
	}
	if b, _ := arena.Read(100, 5); !bytes.Equal(b, []byte("after")) {
		t.Error("replayed write never landed")
	}
}

func TestReconnQPWriteBatchSurvivesTruncatedFrame(t *testing.T) {
	arena, mr, d, r := reconnRig(t, 1<<16)
	reconnects := reconnects(r)

	if err := r.WriteCtx(context.Background(), mr.RKey, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	// Arm a byte-triggered kill landing mid-frame of the upcoming batch:
	// the endpoint sees a truncated frame, the initiator a dead transport.
	fc := d.last()
	fc.SetKillAfterBytes(fc.BytesWritten() + 200)

	payload := bytes.Repeat([]byte{0xAB}, 4096)
	ops := []BatchOp{
		{RKey: mr.RKey, Addr: 1024, Data: payload},
		{RKey: mr.RKey, Addr: 8192, Data: []byte("tail")},
	}
	if err := r.WriteBatchCtx(context.Background(), ops); err != nil {
		t.Fatalf("batch not replayed after truncated frame: %v", err)
	}
	if n := reconnects(); n != 1 {
		t.Errorf("reconnects = %d, want 1", n)
	}
	if b, _ := arena.Read(1024, len(payload)); !bytes.Equal(b, payload) {
		t.Error("batch payload missing after replay")
	}
	if b, _ := arena.Read(8192, 4); !bytes.Equal(b, []byte("tail")) {
		t.Error("batch tail missing after replay")
	}
}

func TestReconnQPRemapsRkeysAcrossRestart(t *testing.T) {
	fab := NewFabric()
	arenaA := mem.NewArena(4096)
	epA := NewEndpoint(arenaA, nil)
	epA.SetLogf((&logCapture{}).logf)
	mrA, _ := epA.RegisterMR("all", 0, 4096, PermAll)
	lA, _ := fab.Listen("a")
	go epA.Serve(lA)
	defer epA.Close()

	// The "restarted" node: same region name, different rkey numbering.
	arenaB := mem.NewArena(4096)
	epB := NewEndpoint(arenaB, nil)
	epB.SetLogf((&logCapture{}).logf)
	epB.RegisterMR("pad", 0, 8, PermRead)
	mrB, _ := epB.RegisterMR("all", 0, 4096, PermAll)
	lB, _ := fab.Listen("b")
	go epB.Serve(lB)
	defer epB.Close()
	if mrA.RKey == mrB.RKey {
		t.Fatal("test setup: restarted endpoint must hand out a different rkey")
	}

	var mu sync.Mutex
	var calls int
	var conns []*faultnet.Conn
	dial := func() (net.Conn, error) {
		mu.Lock()
		calls++
		name := "a"
		if calls > 1 {
			name = "b"
		}
		mu.Unlock()
		c, err := fab.Dial(name)
		if err != nil {
			return nil, err
		}
		fc := faultnet.Wrap(c, faultnet.Options{})
		mu.Lock()
		conns = append(conns, fc)
		mu.Unlock()
		return fc, nil
	}
	r, err := NewReconnQP(ReconnConfig{Dial: dial, VerbTimeout: 2 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	mu.Lock()
	first := conns[0]
	mu.Unlock()
	first.Kill()

	// The caller still holds the generation-1 rkey; the replay must
	// translate it to the restarted endpoint's rkey for the same region.
	if err := r.WriteCtx(context.Background(), mrA.RKey, 64, []byte("remapped")); err != nil {
		t.Fatalf("write with stale rkey: %v", err)
	}
	if b, _ := arenaB.Read(64, 8); !bytes.Equal(b, []byte("remapped")) {
		t.Error("write did not land on the restarted endpoint")
	}
}

// TestReconnQPAtomicUncertain: an atomic whose completion is lost AFTER the
// post must surface ErrUncertain, never replay. The server answers MR
// discovery but severs the stream on the first atomic.
func TestReconnQPAtomicUncertain(t *testing.T) {
	helper := NewEndpoint(mem.NewArena(4096), nil)
	helper.RegisterMR("all", 0, 4096, PermAll)
	table := helper.encodeMRTable()

	serve := func(conn net.Conn) {
		br := bufio.NewReader(conn)
		bw := bufio.NewWriter(conn)
		for {
			frame, err := readFrame(br, nil)
			if err != nil {
				return
			}
			q, err := decodeRequest(frame)
			if err != nil {
				return
			}
			if q.op == OpCAS || q.op == OpFetchAdd {
				conn.Close() // posted, executed or not — completion lost
				return
			}
			var data []byte
			if q.op == OpQueryMRs {
				data = table
			}
			sendFrame(bw, (&response{id: q.id, status: StatusOK, data: data}).encode())
			bw.Flush()
		}
	}
	dial := func() (net.Conn, error) {
		c, s := net.Pipe()
		go serve(s)
		return c, nil
	}
	r, err := NewReconnQP(ReconnConfig{Dial: dial, VerbTimeout: 2 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	mrs, err := r.QueryMRs()
	if err != nil || len(mrs) != 1 {
		t.Fatalf("QueryMRs: %v (%d MRs)", err, len(mrs))
	}
	_, err = r.FetchAddCtx(context.Background(), mrs[0].RKey, 0, 1)
	if !errors.Is(err, ErrUncertain) {
		t.Fatalf("lost atomic completion = %v, want ErrUncertain", err)
	}
	// Idempotent verbs keep working: the wrapper redials transparently.
	if err := r.WriteCtx(context.Background(), mrs[0].RKey, 0, []byte{1}); err != nil {
		t.Fatalf("write after uncertain atomic: %v", err)
	}
}

// TestReconnQPReplaysAtomicWhenProvablyUnposted: a post refused by the
// sticky error never reached the wire (ErrUnposted), so even an atomic is
// safe to replay — and must execute exactly once per successful call.
func TestReconnQPReplaysAtomicWhenProvablyUnposted(t *testing.T) {
	arena, mr, d, r := reconnRig(t, 4096)

	prev, err := r.FetchAddCtx(context.Background(), mr.RKey, 0, 1)
	if err != nil || prev != 0 {
		t.Fatalf("prime FetchAdd = %d, %v", prev, err)
	}

	d.last().Kill()
	// Wait for the inner QP's sticky error, so the next post is refused
	// before the wire rather than racing the teardown.
	r.mu.Lock()
	inner := r.qp
	r.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		inner.pendMu.Lock()
		sticky := inner.err
		inner.pendMu.Unlock()
		if sticky != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sticky error never set after kill")
		}
		time.Sleep(time.Millisecond)
	}

	prev, err = r.FetchAddCtx(context.Background(), mr.RKey, 0, 1)
	if err != nil {
		t.Fatalf("provably-unposted atomic not replayed: %v", err)
	}
	if prev != 1 {
		t.Errorf("replayed FetchAdd prev = %d, want 1", prev)
	}
	if v, _ := arena.ReadQword(0); v != 2 {
		t.Errorf("counter = %d, want exactly 2 executions", v)
	}
}

func TestReconnQPCloseStopsRedial(t *testing.T) {
	_, mr, _, r := reconnRig(t, 4096)
	r.Close()
	if err := r.WriteCtx(context.Background(), mr.RKey, 0, []byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after Close = %v, want ErrClosed", err)
	}
	if _, err := r.FetchAddCtx(context.Background(), mr.RKey, 0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("atomic after Close = %v, want ErrClosed", err)
	}
}
