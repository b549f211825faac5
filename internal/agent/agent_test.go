package agent

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"rdx/internal/cpu"
	"rdx/internal/ebpf"
	"rdx/internal/ebpf/progen"
	"rdx/internal/ext"
	"rdx/internal/node"
	"rdx/internal/rdma"
	"rdx/internal/udf"
	"rdx/internal/wasm"
	"rdx/internal/xabi"
)

func newTestAgent(t *testing.T) (*Agent, *node.Node) {
	t.Helper()
	n, err := node.New(node.Config{
		ID: "agentnode", Hooks: []string{"ingress"},
		Latency: rdma.NoLatency(), Cores: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return New(n), n
}

func constExt(ret int32) *ext.Extension {
	return ext.FromEBPF(ebpf.NewProgram("c", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, ret), ebpf.Exit(),
	}))
}

func TestAgentInjectEBPF(t *testing.T) {
	a, n := newTestAgent(t)
	rep, err := a.Inject(context.Background(), "ingress", constExt(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verify <= 0 || rep.Compile <= 0 || rep.Total <= 0 {
		t.Errorf("stage timings missing: %+v", rep)
	}
	res, err := n.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil || res.Verdict != 4 {
		t.Errorf("res=%+v err=%v", res, err)
	}
}

// fillerExt returns ret after n Mov64Imm fillers: a program whose blob
// grows with n.
func fillerExt(n int, ret int32) *ext.Extension {
	insns := make([]ebpf.Instruction, 0, n+2)
	for i := 0; i < n; i++ {
		insns = append(insns, ebpf.Mov64Imm(ebpf.R1, int32(i)))
	}
	insns = append(insns, ebpf.Mov64Imm(ebpf.R0, ret), ebpf.Exit())
	return ext.FromEBPF(ebpf.NewProgram("filler", ebpf.ProgTypeSocketFilter, insns))
}

// TestAgentAllocNeverOverwritesDispatchedBlob loads ever larger programs
// on ingress until the code region has been filled twice over: egress's
// blob, loaded first at the region's base, is dispatched the whole time, so
// the node-local allocator must step over it when it restarts at the base.
func TestAgentAllocNeverOverwritesDispatchedBlob(t *testing.T) {
	n, err := node.New(node.Config{
		ID: "agentnode", Hooks: []string{"ingress", "egress"},
		Latency: rdma.NoLatency(), Cores: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	a := New(n)
	if _, err := a.Inject(context.Background(), "egress", fillerExt(512, 9)); err != nil {
		t.Fatal(err)
	}
	for i, loaded := 0, 0; loaded < 2*node.CodeSize; i++ {
		rep, err := a.Inject(context.Background(), "ingress", fillerExt(4000+500*i, 5))
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		codeLen, err := n.Arena.ReadU32(rep.Blob + node.BlobOffLen)
		if err != nil {
			t.Fatal(err)
		}
		loaded += node.BlobHdrSize + int(codeLen)
		res, err := n.ExecHook("egress", make([]byte, xabi.CtxSize), nil)
		if err != nil || res.Verdict != 9 {
			t.Fatalf("after ingress load %d: egress verdict %d err=%v, want 9", i, res.Verdict, err)
		}
	}
}

// holdCores occupies all n cores of c until the returned release is called.
func holdCores(c *cpu.Cores, n int) (release func()) {
	held, done := make(chan struct{}), make(chan struct{})
	for i := 0; i < n; i++ {
		go c.Run(context.Background(), func() {
			held <- struct{}{}
			<-done
		})
	}
	for i := 0; i < n; i++ {
		<-held
	}
	return func() { close(done) }
}

func TestAgentInjectUsesCPUPerInjection(t *testing.T) {
	a, n := newTestAgent(t)
	e := constExt(1)
	for i := 0; i < 3; i++ {
		// With every node core busy the injection queues: agent work runs
		// on node cores, the defining cost of the baseline.
		release := holdCores(n.Cores, 2)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := a.Inject(ctx, "ingress", e)
		cancel()
		release()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("injection %d with every core busy: err = %v, want DeadlineExceeded", i, err)
		}
		// No cross-injection cache: every repeat validates and compiles.
		rep, err := a.Inject(context.Background(), "ingress", e)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verify <= 0 || rep.Compile <= 0 {
			t.Errorf("injection %d skipped a stage: %+v", i, rep)
		}
	}
}

func TestAgentInjectWasmAndUDF(t *testing.T) {
	a, n := newTestAgent(t)
	m := wasm.SimpleFilter("w", 1, nil, wasm.NewBody().I64Const(8).End().Bytes())
	if _, err := a.Inject(context.Background(), "ingress", ext.FromWasm(m)); err != nil {
		t.Fatal(err)
	}
	res, err := n.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil || res.Verdict != 8 {
		t.Fatalf("wasm res=%+v err=%v", res, err)
	}

	p, _ := udf.New("u", "tenant + 1")
	if _, err := a.Inject(context.Background(), "ingress", ext.FromUDF(p)); err != nil {
		t.Fatal(err)
	}
	ctx := make([]byte, xabi.CtxSize)
	binary.LittleEndian.PutUint64(ctx[xabi.CtxOffTenant:], 41)
	res, err = n.ExecHook("ingress", ctx, nil)
	if err != nil || res.Verdict != 42 {
		t.Fatalf("udf res=%+v err=%v", res, err)
	}
}

func TestAgentInjectRejectsInvalid(t *testing.T) {
	a, _ := newTestAgent(t)
	bad := ext.FromEBPF(ebpf.NewProgram("bad", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Ja(-1),
	}))
	if _, err := a.Inject(context.Background(), "ingress", bad); err == nil {
		t.Error("looping program injected")
	}
	if _, err := a.Inject(context.Background(), "no-such-hook", constExt(1)); err == nil {
		t.Error("bad hook accepted")
	}
}

func TestAgentPollState(t *testing.T) {
	a, _ := newTestAgent(t)
	e := ext.FromEBPF(progen.MustGenerate(progen.Options{Size: 64, Seed: 1, WithMap: true}))
	if _, err := a.Inject(context.Background(), "ingress", e); err != nil {
		t.Fatal(err)
	}
	if _, err := a.PollState(context.Background()); err != nil {
		t.Fatal(err)
	}
}
