package rdma

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"rdx/internal/mem"
)

// newTestRig boots an endpoint on an in-memory fabric and returns a
// connected QP plus cleanup.
func newTestRig(t *testing.T, arenaSize int, lat *LatencyModel) (*mem.Arena, *Endpoint, *QP) {
	t.Helper()
	arena := mem.NewArena(arenaSize)
	ep := NewEndpoint(arena, lat)
	fab := NewFabric()
	l, err := fab.Listen("node0")
	if err != nil {
		t.Fatal(err)
	}
	go ep.Serve(l)
	qp, err := fab.DialQP("node0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		qp.Close()
		ep.Close()
	})
	return arena, ep, qp
}

// readQword READs one 8-byte little-endian word (arena layout) at addr.
func readQword(qp *QP, rkey uint32, addr mem.Addr) (uint64, error) {
	b, err := qp.ReadCtx(context.Background(), rkey, addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// writeQword WRITEs one 8-byte little-endian word at addr (a plain WRITE,
// not an atomic).
func writeQword(qp *QP, rkey uint32, addr mem.Addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return qp.WriteCtx(context.Background(), rkey, addr, b[:])
}

func TestWireRequestRoundTrip(t *testing.T) {
	cases := []request{
		{op: OpRead, id: 1, rkey: 7, addr: 0x100, len: 64},
		{op: OpWrite, id: 2, rkey: 7, addr: 0x200, data: []byte("hello")},
		{op: OpCAS, id: 3, rkey: 7, addr: 0x300, cmp: 10, swap: 20},
		{op: OpFetchAdd, id: 4, rkey: 7, addr: 0x400, delta: 5},
		{op: OpWriteImm, id: 5, rkey: 7, addr: 0x500, imm: 0xABCD, data: []byte{1, 2}},
		{op: OpQueryMRs, id: 6},
	}
	for _, want := range cases {
		got, err := decodeRequest(want.encode())
		if err != nil {
			t.Fatalf("op %d: %v", want.op, err)
		}
		if got.op != want.op || got.id != want.id || got.rkey != want.rkey ||
			got.addr != want.addr || got.len != want.len || got.cmp != want.cmp ||
			got.swap != want.swap || got.delta != want.delta || got.imm != want.imm ||
			!bytes.Equal(got.data, want.data) {
			t.Errorf("op %d: round trip mismatch: got %+v want %+v", want.op, got, want)
		}
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{1},
		{99, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown op
		(&request{op: OpCAS, id: 1, rkey: 1, addr: 8}).encode()[:15],     // truncated
	}
	for i, b := range bad {
		if _, err := decodeRequest(b); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
	if _, err := decodeResponse([]byte{OpResp}); err == nil {
		t.Error("short response should fail")
	}
	if _, err := decodeResponse(append([]byte{OpResp}, make([]byte, respHdr-2)...)); err == nil {
		t.Error("response one byte short of the header should fail")
	}
	if _, err := decodeResponse((&request{op: OpRead, id: 1}).encode()); err == nil {
		t.Error("response with wrong opcode should fail")
	}
}

func TestWireResponseRoundTripProperty(t *testing.T) {
	f := func(id uint64, status uint8, modeled uint32, data []byte) bool {
		r := response{id: id, status: status, modeled: time.Duration(modeled), data: data}
		got, err := decodeResponse(r.encode())
		return err == nil && got.id == id && got.status == status &&
			got.modeled == r.modeled && bytes.Equal(got.data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// writeCounter is a conn that counts the bytes written to it.
type writeCounter struct {
	net.Conn
	n int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// TestFrameTooLarge: an oversized request is refused before any byte
// reaches the conn, and an oversized length prefix is refused on read.
func TestFrameTooLarge(t *testing.T) {
	conn := &writeCounter{}
	qp := &QP{conn: conn}
	if _, err := qp.writeRequest(&request{op: OpWriteImm, data: make([]byte, MaxFrame)}); err == nil {
		t.Error("oversized frame accepted on write")
	}
	if conn.n != 0 {
		t.Errorf("oversized frame wrote %d bytes before it was refused", conn.n)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])), nil); err == nil {
		t.Error("oversized frame accepted on read")
	}
}

func TestReadWriteOverFabric(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 300)
	if err := qp.Write(mr.RKey, 1000, payload); err != nil {
		t.Fatal(err)
	}
	got, err := qp.ReadCtx(context.Background(), mr.RKey, 1000, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("read-back mismatch")
	}
	// One-sided: data landed in the arena directly.
	local, _ := arena.Read(1000, 300)
	if !bytes.Equal(local, payload) {
		t.Error("arena does not hold written data")
	}
}

func TestQwordAndAtomicsOverFabric(t *testing.T) {
	_, ep, qp := newTestRig(t, 4096, nil)
	mr, _ := ep.RegisterMR("all", 0, 4096, PermAll)

	if err := writeQword(qp, mr.RKey, 64, 42); err != nil {
		t.Fatal(err)
	}
	if v, err := readQword(qp, mr.RKey, 64); err != nil || v != 42 {
		t.Fatalf("qword = %d err=%v", v, err)
	}

	prev, err := qp.CompareAndSwapCtx(context.Background(), mr.RKey, 64, 42, 43)
	if err != nil || prev != 42 {
		t.Fatalf("CAS prev = %d err=%v", prev, err)
	}
	prev, err = qp.CompareAndSwapCtx(context.Background(), mr.RKey, 64, 42, 99)
	if err != nil || prev != 43 {
		t.Fatalf("failed CAS prev = %d err=%v, want 43", prev, err)
	}
	if v, _ := readQword(qp, mr.RKey, 64); v != 43 {
		t.Errorf("value after failed CAS = %d", v)
	}

	prev, err = qp.FetchAddCtx(context.Background(), mr.RKey, 64, 7)
	if err != nil || prev != 43 {
		t.Fatalf("FetchAdd prev = %d err=%v", prev, err)
	}
	if v, _ := readQword(qp, mr.RKey, 64); v != 50 {
		t.Errorf("value after FetchAdd = %d", v)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	_, ep, qp := newTestRig(t, 4096, nil)
	ro, _ := ep.RegisterMR("ro", 0, 1024, PermRead)
	wo, _ := ep.RegisterMR("wo", 1024, 1024, PermWrite)
	na, _ := ep.RegisterMR("na", 2048, 1024, PermRead|PermWrite)

	if err := qp.Write(ro.RKey, 0, []byte{1}); err != ErrAccess {
		t.Errorf("write to read-only MR: %v, want ErrAccess", err)
	}
	if _, err := qp.ReadCtx(context.Background(), wo.RKey, 1024, 1); err != ErrAccess {
		t.Errorf("read of write-only MR: %v, want ErrAccess", err)
	}
	if _, err := qp.CompareAndSwapCtx(context.Background(), na.RKey, 2048, 0, 1); err != ErrAccess {
		t.Errorf("atomic on non-atomic MR: %v, want ErrAccess", err)
	}
	if _, err := qp.FetchAddCtx(context.Background(), na.RKey, 2048, 1); err != ErrAccess {
		t.Errorf("fetchadd on non-atomic MR: %v, want ErrAccess", err)
	}
	if _, err := qp.ReadCtx(context.Background(), 0xDEAD, 0, 1); err != ErrAccess {
		t.Errorf("unknown rkey: %v, want ErrAccess", err)
	}
}

func TestBoundsEnforcement(t *testing.T) {
	_, ep, qp := newTestRig(t, 4096, nil)
	mr, _ := ep.RegisterMR("mid", 1024, 512, PermAll)

	if _, err := qp.ReadCtx(context.Background(), mr.RKey, 1023, 1); err != ErrBounds {
		t.Errorf("read below MR: %v", err)
	}
	if _, err := qp.ReadCtx(context.Background(), mr.RKey, 1024+512, 1); err != ErrBounds {
		t.Errorf("read past MR: %v", err)
	}
	if err := qp.Write(mr.RKey, 1534, []byte{1, 2, 3}); err != ErrBounds {
		t.Errorf("write straddling MR end: %v", err)
	}
	if _, err := qp.ReadCtx(context.Background(), mr.RKey, 1024, 512); err != nil {
		t.Errorf("full-region read should pass: %v", err)
	}
	// Overflow-probing address.
	if _, err := qp.ReadCtx(context.Background(), mr.RKey, ^uint64(0)-3, 8); err != ErrBounds {
		t.Errorf("overflow address: %v", err)
	}
}

func TestMRRegistration(t *testing.T) {
	arena := mem.NewArena(4096)
	ep := NewEndpoint(arena, nil)
	if _, err := ep.RegisterMR("a", 0, 4096, PermAll); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.RegisterMR("a", 0, 10, PermRead); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := ep.RegisterMR("b", 4000, 200, PermAll); err == nil {
		t.Error("out-of-arena MR accepted")
	}
	if _, err := ep.RegisterMR("c", 0, 0, PermAll); err == nil {
		t.Error("zero-length MR accepted")
	}
	if mr, ok := ep.mrsByName["a"]; !ok || mr.Len != 4096 {
		t.Error("MR \"a\" not registered with its length")
	}
}

func TestQueryMRs(t *testing.T) {
	_, ep, qp := newTestRig(t, 8192, nil)
	ep.RegisterMR("got", 0, 1024, PermRead)
	ep.RegisterMR("code", 1024, 4096, PermWrite|PermRead)

	mrs, err := qp.QueryMRs()
	if err != nil {
		t.Fatal(err)
	}
	if len(mrs) != 2 {
		t.Fatalf("got %d MRs, want 2", len(mrs))
	}
	byName := map[string]MR{}
	for _, mr := range mrs {
		byName[mr.Name] = mr
	}
	if got := byName["code"]; got.Addr != 1024 || got.Len != 4096 || got.Perm != (PermWrite|PermRead) {
		t.Errorf("code MR = %+v", got)
	}
}

func TestWriteImmFiresDoorbell(t *testing.T) {
	_, ep, qp := newTestRig(t, 4096, nil)
	mr, _ := ep.RegisterMR("cb", 0, 1024, PermAll)

	var mu sync.Mutex
	var gotImm uint32
	var gotAddr mem.Addr
	fired := make(chan struct{}, 1)
	ep.RegisterDoorbell(0, 1024, func(imm uint32, addr mem.Addr, data []byte) {
		mu.Lock()
		gotImm, gotAddr = imm, addr
		mu.Unlock()
		fired <- struct{}{}
	})

	if err := qp.WriteImmCtx(context.Background(), mr.RKey, 128, 0xFEED, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("doorbell never fired")
	}
	mu.Lock()
	defer mu.Unlock()
	if gotImm != 0xFEED || gotAddr != 128 {
		t.Errorf("doorbell imm=%#x addr=%d", gotImm, gotAddr)
	}
}

func TestDoorbellOutsideRangeNotFired(t *testing.T) {
	_, ep, qp := newTestRig(t, 4096, nil)
	mr, _ := ep.RegisterMR("all", 0, 4096, PermAll)
	fired := make(chan struct{}, 1)
	ep.RegisterDoorbell(0, 64, func(uint32, mem.Addr, []byte) { fired <- struct{}{} })
	if err := qp.WriteImmCtx(context.Background(), mr.RKey, 2048, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
		t.Error("doorbell fired for out-of-range write")
	case <-time.After(20 * time.Millisecond):
	}
}

func TestLargeWriteSegmentation(t *testing.T) {
	arena, ep, qp := newTestRig(t, 5<<20, nil)
	mr, _ := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	big := make([]byte, 3<<20) // forces 3 segments
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := qp.Write(mr.RKey, 0, big); err != nil {
		t.Fatal(err)
	}
	got, err := qp.ReadCtx(context.Background(), mr.RKey, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big[:1<<20]) {
		t.Error("segmented write corrupted data")
	}
	tail, _ := arena.Read(3<<20-16, 16)
	if !bytes.Equal(tail, big[len(big)-16:]) {
		t.Error("tail segment missing")
	}
}

func TestConcurrentQPs(t *testing.T) {
	arena := mem.NewArena(1 << 16)
	ep := NewEndpoint(arena, nil)
	mr, _ := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	fab := NewFabric()
	l, _ := fab.Listen("n")
	go ep.Serve(l)
	defer ep.Close()

	const qps, opsPer = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < qps; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qp, err := fab.DialQP("n")
			if err != nil {
				t.Error(err)
				return
			}
			defer qp.Close()
			for j := 0; j < opsPer; j++ {
				if _, err := qp.FetchAddCtx(context.Background(), mr.RKey, 0, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v, _ := arena.ReadQword(0); v != qps*opsPer {
		t.Errorf("counter = %d, want %d", v, qps*opsPer)
	}
}

func TestPipelinedAsyncWrites(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, _ := ep.RegisterMR("all", 0, arena.Size(), PermAll)

	var pvs []*pendingVerb
	for i := 0; i < 50; i++ {
		pv, err := qp.post(request{op: OpWrite, rkey: mr.RKey, addr: mem.Addr(i * 8), data: binary.LittleEndian.AppendUint64(nil, uint64(i))})
		if err != nil {
			t.Fatal(err)
		}
		pvs = append(pvs, pv)
	}
	for i, pv := range pvs {
		if _, err := qp.wait(context.Background(), pv); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 50; i++ {
		if v, _ := arena.ReadQword(mem.Addr(i * 8)); v != uint64(i) {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

func TestQPCloseFailsPending(t *testing.T) {
	_, ep, qp := newTestRig(t, 4096, NoLatency())
	mr, _ := ep.RegisterMR("all", 0, 4096, PermAll)
	// Issue a valid op first to confirm liveness, then close and verify error.
	if err := writeQword(qp, mr.RKey, 0, 1); err != nil {
		t.Fatal(err)
	}
	qp.Close()
	if err := qp.Write(mr.RKey, 0, []byte{1}); err == nil {
		t.Error("write on closed QP succeeded")
	}
}

func TestLatencyModelApplied(t *testing.T) {
	lat := &LatencyModel{Base: 200 * time.Microsecond}
	_, ep, qp := newTestRig(t, 4096, lat)
	mr, _ := ep.RegisterMR("all", 0, 4096, PermAll)

	start := time.Now()
	const ops = 10
	for i := 0; i < ops; i++ {
		if _, err := readQword(qp, mr.RKey, 0); err != nil {
			t.Fatal(err)
		}
	}
	el := time.Since(start)
	if el < ops*200*time.Microsecond {
		t.Errorf("10 ops with 200us base took %v, want >= 2ms", el)
	}
}

// TestModeledLatencyFloor pins the timing contract: a verb completes no
// earlier than its modeled charge, a QP's verbs occupy the modeled fabric
// one after another, and separate QPs do not wait for each other.
func TestModeledLatencyFloor(t *testing.T) {
	lat := &LatencyModel{Base: 200 * time.Microsecond, BytesPerSec: 1e9}
	arena, ep, qp := newTestRig(t, 1<<16, lat)
	mr, _ := ep.RegisterMR("all", 0, arena.Size(), PermAll)

	payload := make([]byte, 4096)
	verbs := []struct {
		name string
		n    int
		do   func() error
	}{
		{"read", 4096, func() error { _, err := qp.ReadCtx(context.Background(), mr.RKey, 0, 4096); return err }},
		{"write", 4096, func() error { return qp.Write(mr.RKey, 0, payload) }},
		{"write_imm", 4096, func() error { return qp.WriteImmCtx(context.Background(), mr.RKey, 0, 1, payload) }},
		{"cas", 0, func() error { _, err := qp.CompareAndSwapCtx(context.Background(), mr.RKey, 0, 0, 0); return err }},
		{"fetch_add", 0, func() error { _, err := qp.FetchAddCtx(context.Background(), mr.RKey, 0, 0); return err }},
		{"batch", 8192, func() error {
			return qp.WriteBatchCtx(context.Background(), []BatchOp{{RKey: mr.RKey, Data: payload}, {RKey: mr.RKey, Addr: 4096, Data: payload}})
		}},
	}
	for _, v := range verbs {
		start := time.Now()
		if err := v.do(); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if el, want := time.Since(start), lat.Duration(v.n); el < want {
			t.Errorf("%s completed in %v, under its modeled %v", v.name, el, want)
		}
	}

	const pipelined = 8
	start := time.Now()
	pvs := make([]*pendingVerb, pipelined)
	for i := range pvs {
		pv, err := qp.post(request{op: OpWrite, rkey: mr.RKey, addr: mem.Addr(8 * i), data: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		pvs[i] = pv
	}
	for _, pv := range pvs {
		if _, err := qp.wait(context.Background(), pv); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el < pipelined*lat.Base {
		t.Errorf("%d writes pipelined on one QP took %v, want >= %v (serial occupancy)", pipelined, el, pipelined*lat.Base)
	}

	// One write on each of two QPs at once. A sub-millisecond sleep may
	// overshoot by the timer's granularity, which would hide a serial wait,
	// so this endpoint's base is far above it.
	slow := NewEndpoint(mem.NewArena(64), &LatencyModel{Base: 20 * time.Millisecond})
	smr, _ := slow.RegisterMR("all", 0, 64, PermAll)
	fab := NewFabric()
	l, _ := fab.Listen("slow")
	go slow.Serve(l)
	defer slow.Close()
	start = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		qp, err := fab.DialQP("slow")
		if err != nil {
			t.Fatal(err)
		}
		defer qp.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := qp.Write(smr.RKey, mem.Addr(8*i), []byte{1}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if el := time.Since(start); el >= 40*time.Millisecond {
		t.Errorf("one 20ms write on each of two QPs took %v, want < 40ms (occupancy is per QP)", el)
	}
}

// TestModeledLatencyPastDeadline: a verb whose modeled completion lies past
// the QP deadline, or past a ctx cancelled mid-window, fails ErrTimeout
// without waiting the model out.
func TestModeledLatencyPastDeadline(t *testing.T) {
	lat := &LatencyModel{Base: 50 * time.Millisecond}
	_, ep, qp := newTestRig(t, 4096, lat)
	mr, _ := ep.RegisterMR("all", 0, 4096, PermAll)

	qp.SetTimeout(5 * time.Millisecond)
	start := time.Now()
	if err := qp.Write(mr.RKey, 0, []byte{1}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("write due past the deadline: %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el >= lat.Base {
		t.Errorf("deadline fired after %v, past the modeled %v", el, lat.Base)
	}

	// A fresh QP: the timed-out write still occupies the first one.
	_, ep, qp = newTestRig(t, 4096, lat)
	mr, _ = ep.RegisterMR("all", 0, 4096, PermAll)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	start = time.Now()
	_, err := qp.ReadCtx(ctx, mr.RKey, 0, 8)
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
		t.Fatalf("read cancelled mid-window: %v, want ErrTimeout wrapping context.Canceled", err)
	}
	if el := time.Since(start); el >= lat.Base {
		t.Errorf("cancellation took %v, past the modeled %v", el, lat.Base)
	}
}

// TestWritePlacedBeforeCompletion: a WRITE's bytes are in the target arena
// while its completion is still modeled to be in flight, as on hardware.
func TestWritePlacedBeforeCompletion(t *testing.T) {
	lat := &LatencyModel{Base: 50 * time.Millisecond}
	arena, ep, qp := newTestRig(t, 4096, lat)
	mr, _ := ep.RegisterMR("all", 0, 4096, PermAll)

	done := make(chan error, 1)
	go func() { done <- qp.Write(mr.RKey, 64, []byte("placed")) }()
	deadline := time.Now().Add(lat.Base / 2)
	for {
		if b, _ := arena.Read(64, 6); bytes.Equal(b, []byte("placed")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write not placed within half its modeled latency")
		}
		runtime.Gosched()
	}
	select {
	case err := <-done:
		t.Fatalf("write completed (%v) as soon as it was placed; want its modeled %v first", err, lat.Base)
	default:
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestLatencyModelDuration(t *testing.T) {
	m := &LatencyModel{Base: time.Microsecond, BytesPerSec: 1e9}
	if d := m.Duration(0); d != time.Microsecond {
		t.Errorf("zero-byte duration = %v", d)
	}
	if d := m.Duration(1e6); d != time.Microsecond+time.Millisecond {
		t.Errorf("1MB duration = %v", d)
	}
	if d := NoLatency().Duration(1 << 20); d != 0 {
		t.Errorf("NoLatency duration = %v", d)
	}
	if DefaultLatency().Duration(64) < time.Microsecond {
		t.Error("default latency implausibly low")
	}
}

func TestFabricDialUnknown(t *testing.T) {
	fab := NewFabric()
	if _, err := fab.Dial("nope"); err == nil {
		t.Error("dial to unknown name succeeded")
	}
}

func TestFabricNameReuseAfterClose(t *testing.T) {
	fab := NewFabric()
	l, err := fab.Listen("n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Listen("n"); err == nil {
		t.Error("duplicate listen accepted")
	}
	l.Close()
	if _, err := fab.Listen("n"); err != nil {
		t.Errorf("name not released after close: %v", err)
	}
}

func TestOverTCP(t *testing.T) {
	// The same endpoint/QP code must work over real TCP (cmd/rdxd path).
	arena := mem.NewArena(8192)
	ep := NewEndpoint(arena, nil)
	mr, _ := ep.RegisterMR("all", 0, arena.Size(), PermAll)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ep.Serve(l)
	defer ep.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	qp := NewQP(conn)
	defer qp.Close()

	if err := qp.Write(mr.RKey, 100, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	got, err := qp.ReadCtx(context.Background(), mr.RKey, 100, 8)
	if err != nil || !bytes.Equal(got, []byte("over tcp")) {
		t.Fatalf("got %q err=%v", got, err)
	}
	mrs, err := qp.QueryMRs()
	if err != nil || len(mrs) != 1 {
		t.Fatalf("QueryMRs over TCP: %v", err)
	}
}

func TestWireBatchRoundTrip(t *testing.T) {
	want := request{op: OpBatch, id: 9, subs: []request{
		{op: OpWrite, rkey: 7, addr: 0x100, data: []byte("abc")},
		{op: OpWrite, rkey: 8, addr: 0x200, data: nil},
		{op: OpWriteImm, rkey: 7, addr: 0x300, imm: 0xFEED, data: []byte{1}},
	}}
	got, err := decodeRequest(want.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.op != OpBatch || got.id != want.id || len(got.subs) != len(want.subs) {
		t.Fatalf("batch header mismatch: %+v", got)
	}
	for i, s := range got.subs {
		w := want.subs[i]
		if s.op != w.op || s.rkey != w.rkey || s.addr != w.addr || s.imm != w.imm || !bytes.Equal(s.data, w.data) {
			t.Errorf("sub %d: got %+v want %+v", i, s, w)
		}
	}
}

func TestWireBatchRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		(&request{op: OpBatch, id: 1}).encode()[:10],       // truncated count
		append((&request{op: OpBatch, id: 1}).encode(), 9), // trailing byte
	}
	// A sub-verb carrying a disallowed opcode (READ in a write chain).
	cas := (&request{op: OpBatch, id: 2, subs: []request{{op: OpCAS, rkey: 1, addr: 8}}}).encode()
	bad = append(bad, cas)
	for i, b := range bad {
		if _, err := decodeRequest(b); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestBatchExecutesInOrderWithDoorbell(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, _ := ep.RegisterMR("all", 0, arena.Size(), PermAll)

	var mu sync.Mutex
	var rings []uint32
	ep.RegisterDoorbell(0, arena.Size(), func(imm uint32, _ mem.Addr, _ []byte) {
		mu.Lock()
		rings = append(rings, imm)
		mu.Unlock()
	})

	ops := []BatchOp{
		{RKey: mr.RKey, Addr: 0, Data: []byte("first")},
		{RKey: mr.RKey, Addr: 100, Data: []byte("second")},
		{RKey: mr.RKey, Addr: 200, Data: []byte{0xAA}, Imm: 0xD00B, HasImm: true},
	}
	pv, err := qp.postBatch(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qp.wait(context.Background(), pv); err != nil {
		t.Fatal(err)
	}
	if b, _ := arena.Read(0, 5); !bytes.Equal(b, []byte("first")) {
		t.Error("sub-verb 0 not applied")
	}
	if b, _ := arena.Read(100, 6); !bytes.Equal(b, []byte("second")) {
		t.Error("sub-verb 1 not applied")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rings) != 1 || rings[0] != 0xD00B {
		t.Errorf("doorbell rings = %v, want exactly one 0xD00B (coalesced)", rings)
	}
}

func TestBatchFirstFailureFlushesRest(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, _ := ep.RegisterMR("small", 0, 512, PermAll)

	ops := []BatchOp{
		{RKey: mr.RKey, Addr: 0, Data: []byte{1}},
		{RKey: mr.RKey, Addr: 4096, Data: []byte{2}}, // out of MR bounds
		{RKey: mr.RKey, Addr: 8, Data: []byte{3}},    // must be flushed
	}
	pv, err := qp.postBatch(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	c, err := qp.wait(context.Background(), pv)
	if err != ErrBounds {
		t.Fatalf("batch err = %v, want ErrBounds", err)
	}
	if !bytes.Equal(c.Data, []byte{StatusOK, StatusBoundsErr, StatusFlushed}) {
		t.Errorf("per-sub statuses = %v", c.Data)
	}
	if b, _ := arena.Read(8, 1); b[0] != 0 {
		t.Error("flushed sub-verb applied")
	}
	// WriteBatch surfaces the failing index.
	if err := qp.WriteBatchCtx(context.Background(), ops); err == nil || !strings.Contains(err.Error(), "sub-verb 1") {
		t.Errorf("WriteBatch err = %v, want sub-verb 1 identified", err)
	}
}

// TestLargeWriteCrossesTwoSegmentBoundaries is the regression for the
// batched QP.Write path: a >2 MiB payload spans three segments, all of
// which must be coalesced into one pipelined OpBatch chain and land intact.
func TestLargeWriteCrossesTwoSegmentBoundaries(t *testing.T) {
	arena, ep, qp := newTestRig(t, 4<<20, nil)
	mr, _ := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	big := make([]byte, (2<<20)+4097) // crosses the 1 MiB and 2 MiB boundaries
	for i := range big {
		big[i] = byte(i*131 + i>>11)
	}
	const base = 1234
	if err := qp.Write(mr.RKey, base, big); err != nil {
		t.Fatal(err)
	}
	got, err := arena.Read(base, len(big))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		for i := range got {
			if got[i] != big[i] {
				t.Fatalf("first corruption at offset %d (segment %d)", i, i/WriteSeg)
			}
		}
	}
}

// TestBatchChargesLatencyOnce verifies the coalescing win: a multi-segment
// write costs ONE base latency charge, not one per segment.
func TestBatchChargesLatencyOnce(t *testing.T) {
	// Base is large enough to dominate transport copy cost (which is
	// substantial under -race): four sequential per-segment charges would
	// cost >=4x Base, a single coalesced charge stays well under 3x.
	lat := &LatencyModel{Base: 100 * time.Millisecond}
	arena, ep, qp := newTestRig(t, 5<<20, lat)
	mr, _ := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	big := make([]byte, 4<<20) // four segments, one batch frame
	start := time.Now()
	if err := qp.Write(mr.RKey, 0, big); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 3*lat.Base {
		t.Errorf("4-segment batched write took %v; sequential per-segment charges?", el)
	}
}

// TestFailAllDeliversToEveryWaiter covers QP.failAll: closing the transport
// with many verbs in flight must deliver an error completion to every
// waiter, and the reader goroutine must exit (no leak).
func TestFailAllDeliversToEveryWaiter(t *testing.T) {
	before := runtime.NumGoroutine()

	// A server that accepts frames but never responds, so posts stay
	// in flight until the transport dies.
	client, server := net.Pipe()
	go readFrames(bufio.NewReader(server))
	qp := NewQP(client)

	const inflight = 16
	var pvs []*pendingVerb
	for i := 0; i < inflight; i++ {
		pv, err := qp.post(request{op: OpWrite, rkey: 1, addr: mem.Addr(i * 8), data: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		pvs = append(pvs, pv)
	}
	qp.Close()
	server.Close()

	// Drain: every waiter must receive exactly one error completion.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, pv := range pvs {
		_, err := qp.wait(ctx, pv)
		if err == nil {
			t.Errorf("post %d completed OK after close", i)
		} else if errors.Is(err, ErrTimeout) {
			t.Fatalf("post %d never completed; failAll dropped a waiter", i)
		}
	}
	// A post after teardown fails immediately with the sticky error.
	if _, err := qp.post(request{op: OpWrite, rkey: 1, data: []byte{1}}); !errors.Is(err, ErrUnposted) {
		t.Errorf("post on failed QP: %v, want ErrUnposted", err)
	}

	// The read loop and helper goroutines must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after drain; reader leaked?", before, runtime.NumGoroutine())
}
