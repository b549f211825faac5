package rdma

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"rdx/internal/faultnet"
	"rdx/internal/mem"
)

// gatedDialer dials through faultnet connections sharing one Gate, so a
// test can partition and heal the whole client↔endpoint link without
// killing any socket — the ReconnQP-level counterpart of the simulator's
// cut/heal fault.
type gatedDialer struct {
	fab  *Fabric
	name string
	gate *faultnet.Gate
}

func (d *gatedDialer) dial() (net.Conn, error) {
	c, err := d.fab.Dial(d.name)
	if err != nil {
		return nil, err
	}
	return faultnet.Wrap(c, faultnet.Options{Gate: d.gate}), nil
}

// TestReconnQPPartitionHeal: verbs issued into a partition fail after the
// redial budget (every redial lands behind the same cut gate); healing
// lets the next verb dial a working generation, with nothing lost.
func TestReconnQPPartitionHeal(t *testing.T) {
	arena := mem.NewArena(1 << 12)
	ep := NewEndpoint(arena, nil)
	ep.SetLogf(func(string, ...interface{}) {})
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
	defer ep.Close()

	d := &gatedDialer{fab: fab, name: "n", gate: faultnet.NewGate()}
	r, err := NewReconnQP(ReconnConfig{Dial: d.dial, VerbTimeout: 2 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.maxRedials, r.backoff = 1, time.Millisecond

	if err := r.WriteCtx(context.Background(), mr.RKey, 0, []byte("pre")); err != nil {
		t.Fatal(err)
	}

	d.gate.Cut()
	if err := r.WriteCtx(context.Background(), mr.RKey, 100, []byte("during")); err == nil {
		t.Fatal("write into a partition succeeded")
	}
	// The partitioned write never reached the endpoint.
	if b, _ := arena.Read(100, 6); bytes.Equal(b, []byte("during")) {
		t.Error("partitioned write landed")
	}

	d.gate.Heal()
	if err := r.WriteCtx(context.Background(), mr.RKey, 100, []byte("after")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if b, _ := arena.Read(100, 5); !bytes.Equal(b, []byte("after")) {
		t.Error("post-heal write missing")
	}
	if b, _ := arena.Read(0, 3); !bytes.Equal(b, []byte("pre")) {
		t.Error("pre-partition write lost")
	}
}

// faultAcceptor wraps every accepted connection so a test can inject
// faults on the ENDPOINT side of the wire (lost completions).
type faultAcceptor struct {
	net.Listener
	mu    sync.Mutex
	conns []*faultnet.Conn
}

func (l *faultAcceptor) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := faultnet.Wrap(c, faultnet.Options{})
	l.mu.Lock()
	l.conns = append(l.conns, fc)
	l.mu.Unlock()
	return fc, nil
}

func (l *faultAcceptor) conn(i int) *faultnet.Conn {
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		if len(l.conns) > i {
			fc := l.conns[i]
			l.mu.Unlock()
			return fc
		}
		l.mu.Unlock()
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReconnQPDuplicateWriteDeliveryIdempotent models the RC-retransmit
// hazard the simulator's duplicate-delivery fault explores: the endpoint
// APPLIES a WRITE, but the completion is lost with the connection — so
// the initiator replays it on the next generation and the op executes
// twice. The protocol contract under test: a plain WRITE is idempotent,
// so memory converges to the same image and the caller sees one success.
func TestReconnQPDuplicateWriteDeliveryIdempotent(t *testing.T) {
	arena := mem.NewArena(1 << 12)
	ep := NewEndpoint(arena, nil)
	ep.SetLogf(func(string, ...interface{}) {})
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	fab := NewFabric()
	inner, err := fab.Listen("n")
	if err != nil {
		t.Fatal(err)
	}
	l := &faultAcceptor{Listener: inner}
	go ep.Serve(l)
	defer ep.Close()

	d := &chaosDialer{fab: fab, name: "n"}
	r, err := NewReconnQP(ReconnConfig{Dial: d.dial, VerbTimeout: 2 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.backoff = time.Millisecond
	reconnects := reconnects(r)

	// Arm the lost completion: the endpoint's next response write (the
	// completion of our upcoming WRITE) truncates after one byte and kills
	// the server-side connection — AFTER handle() applied the write.
	srv := l.conn(0)
	if srv == nil {
		t.Fatal("endpoint connection never accepted")
	}
	kill := srv.BytesWritten() + 1
	srv.SetKillAfterBytes(kill)

	payload := []byte("duplicated-delivery")
	if err := r.WriteCtx(context.Background(), mr.RKey, 64, payload); err != nil {
		t.Fatalf("write with lost completion not replayed: %v", err)
	}
	if n := reconnects(); n != 1 {
		t.Errorf("reconnects = %d, want 1", n)
	}
	// The first delivery was applied: the killing response write proves the
	// endpoint handled the frame (responses are staged only after handle).
	if srv.BytesWritten() < kill {
		t.Error("endpoint never reached the armed completion write")
	}
	// Both deliveries applied; the image is the single-delivery image.
	if b, _ := arena.Read(64, len(payload)); !bytes.Equal(b, payload) {
		t.Errorf("memory diverged under duplicate delivery: %q", b)
	}
}
