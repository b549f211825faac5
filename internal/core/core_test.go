package core

import (
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"rdx/internal/artifact"
	"rdx/internal/ebpf"
	"rdx/internal/ebpf/maps"
	"rdx/internal/ebpf/verifier"
	"rdx/internal/ext"
	"rdx/internal/mem"
	"rdx/internal/native"
	"rdx/internal/node"
	"rdx/internal/rdma"
	"rdx/internal/udf"
	"rdx/internal/wasm"
	"rdx/internal/xabi"
)

// rig is a control plane plus one or more served nodes on a fabric.
type rig struct {
	cp    *ControlPlane
	fab   *rdma.Fabric
	nodes []*node.Node
	cfs   []*CodeFlow
}

func newRig(t *testing.T, nodeCount int, hooks ...string) *rig {
	t.Helper()
	if len(hooks) == 0 {
		hooks = []string{"ingress"}
	}
	r := &rig{cp: NewControlPlane(), fab: rdma.NewFabric()}
	for i := 0; i < nodeCount; i++ {
		n, err := node.New(node.Config{
			ID:      nodeID(i),
			Hooks:   hooks,
			Latency: rdma.NoLatency(),
			Cores:   2,
			Seed:    int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := r.fab.Listen(nodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		go n.Serve(l)
		r.nodes = append(r.nodes, n)

		conn, err := r.fab.Dial(nodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		cf, err := r.cp.CreateCodeFlow(conn)
		if err != nil {
			t.Fatal(err)
		}
		r.cfs = append(r.cfs, cf)
	}
	t.Cleanup(func() {
		for _, cf := range r.cfs {
			cf.Close()
		}
		for _, n := range r.nodes {
			n.Close()
		}
	})
	return r
}

func nodeID(i int) string { return string(rune('a'+i)) + "-node" }

func constProg(name string, ret int32) *ext.Extension {
	return ext.FromEBPF(ebpf.NewProgram(name, ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, ret),
		ebpf.Exit(),
	}))
}

// stageWrite stages e on hook as a fleet job stages each node: Stage
// reserves, Durable waits for any claim it journaled, Write puts the blob
// on the node. A failed write aborts the reservation.
func stageWrite(cf *CodeFlow, e *ext.Extension, hook string) (*StagedDeploy, error) {
	ctx := context.Background()
	st, err := cf.Stage(ctx, e, hook)
	if err != nil {
		return nil, err
	}
	sd := st.(*StagedDeploy)
	sd.Durable()
	if err := sd.Write(ctx); err != nil {
		sd.Abort()
		return nil, err
	}
	return sd, nil
}

func TestCreateCodeFlowDiscovery(t *testing.T) {
	r := newRig(t, 1, "ingress", "egress")
	cf := r.cfs[0]
	if cf.Arch != r.nodes[0].Arch {
		t.Errorf("arch = %v, want %v", cf.Arch, r.nodes[0].Arch)
	}
	if _, err := cf.HookAddr("ingress"); err != nil {
		t.Error(err)
	}
	if _, err := cf.HookAddr("nope"); err == nil {
		t.Error("unknown hook resolved")
	}
	got := cf.GOT()
	if len(got) == 0 {
		t.Fatal("empty GOT snapshot")
	}
	if got["xstate_meta"] != node.MetaBase {
		t.Errorf("xstate_meta = %#x", got["xstate_meta"])
	}
}

func TestCreateCodeFlowRejectsUninitializedTarget(t *testing.T) {
	// An endpoint over a raw arena without ctx_init must be rejected.
	arena := newRawArena(t)
	ep := rdma.NewEndpoint(arena, rdma.NoLatency())
	ep.RegisterMR("rdx:ctrl", 0, 4096, rdma.PermAll)
	fab := rdma.NewFabric()
	l, _ := fab.Listen("raw")
	go ep.Serve(l)
	defer ep.Close()

	conn, _ := fab.Dial("raw")
	if _, err := NewControlPlane().CreateCodeFlow(conn); err == nil {
		t.Error("codeflow created against uninitialized node")
	}
}

func newRawArena(t *testing.T) *mem.Arena {
	t.Helper()
	return mem.NewArena(1 << 16)
}

func attachLocal(n *node.Node, addr uint64) (*maps.View, error) {
	return maps.Attach(n.Memory(), addr)
}

func TestInjectEBPFEndToEnd(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	// Both of the node's cores stay busy across the injection, so an
	// injection that needed node CPU would never finish.
	held, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	for i := 0; i < 2; i++ {
		go r.nodes[0].Cores.Run(context.Background(), func() {
			held <- struct{}{}
			<-release
		})
	}
	for i := 0; i < 2; i++ {
		<-held
	}
	var rep Report
	var err error
	injected := make(chan struct{})
	go func() {
		rep, err = cf.InjectExtension(constProg("p5", 5), "ingress")
		close(injected)
	}()
	select {
	case <-injected:
	case <-time.After(10 * time.Second):
		t.Fatal("agentless injection waited for a node core")
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version == 0 || rep.Total <= 0 {
		t.Errorf("report = %+v", rep)
	}
	// The node's data path now executes the remotely injected program —
	// with zero node-CPU involvement in the injection.
	res, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != 5 || res.Version != rep.Version {
		t.Errorf("res = %+v, want verdict 5 version %d", res, rep.Version)
	}
}

func TestRegistryCompileOnceDeployAnywhere(t *testing.T) {
	r := newRig(t, 3)
	e := constProg("shared", 7)
	for i, cf := range r.cfs {
		rep, err := cf.InjectExtension(e, "ingress")
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if i == 0 && rep.CacheHit {
			t.Error("first deploy claims cache hit")
		}
		if i > 0 && !rep.CacheHit {
			t.Errorf("deploy %d missed the registry", i)
		}
	}
	if got := r.cp.Registry.Counter("artifact.compile.invocations").Value(); got != 1 {
		t.Errorf("artifact.compile.invocations = %d, want 1", got)
	}
	for i, n := range r.nodes {
		res, err := n.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
		if err != nil || res.Verdict != 7 {
			t.Errorf("node %d: res=%+v err=%v", i, res, err)
		}
	}
}

func TestInjectEBPFWithXState(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	spec := ebpf.MapSpec{Name: "hits", Type: xabi.MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 32}

	// Program: map[proto]++ via lookup-or-insert; return pass.
	insns := []ebpf.Instruction{
		ebpf.LoadMem(ebpf.SizeW, ebpf.R6, ebpf.R1, int16(xabi.CtxOffProtocol)),
		ebpf.StoreMem(ebpf.SizeW, ebpf.R10, ebpf.R6, -4),
		ebpf.StoreImm(ebpf.SizeDW, ebpf.R10, -16, 1),
	}
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 0)...)
	insns = append(insns,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4),
		ebpf.Call(xabi.HelperMapLookup),
		ebpf.JmpImm(ebpf.JmpJNE, ebpf.R0, 0, 9),
	)
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 0)...)
	insns = append(insns,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4),
		ebpf.Mov64Reg(ebpf.R3, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R3, -16),
		ebpf.Mov64Imm(ebpf.R4, 0),
		ebpf.Call(xabi.HelperMapUpdate),
		ebpf.Ja(3),
		ebpf.LoadMem(ebpf.SizeDW, ebpf.R3, ebpf.R0, 0),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R3, 1),
		ebpf.StoreMem(ebpf.SizeDW, ebpf.R0, ebpf.R3, 0),
		ebpf.Mov64Imm(ebpf.R0, int32(xabi.VerdictPass)),
		ebpf.Exit(),
	)
	e := ext.FromEBPF(ebpf.NewProgram("protostats", ebpf.ProgTypeSocketFilter, insns, spec))

	if _, err := cf.InjectExtension(e, "ingress"); err != nil {
		t.Fatal(err)
	}

	// Drive traffic: protocols 6, 6, 17.
	for _, proto := range []uint32{6, 6, 17} {
		ctx := make([]byte, xabi.CtxSize)
		binary.LittleEndian.PutUint32(ctx[xabi.CtxOffProtocol:], proto)
		if _, err := r.nodes[0].ExecHook("ingress", ctx, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Remote XState introspection: the control plane reads the map the
	// extension wrote, entirely over RDMA.
	xstates, err := cf.ListXStates()
	if err != nil || len(xstates) != 1 {
		t.Fatalf("xstates = %v err=%v", xstates, err)
	}
	view, err := cf.AttachXState(xstates[0])
	if err != nil {
		t.Fatal(err)
	}
	addr, found, err := view.Lookup([]byte{6, 0, 0, 0})
	if err != nil || !found {
		t.Fatalf("remote lookup: found=%v err=%v", found, err)
	}
	if got, _ := cf.Remote.ReadMem(addr, 8); got != 2 {
		t.Errorf("proto 6 count = %d, want 2", got)
	}
	// Remote update: reset the counter from the control plane, then verify
	// the data plane sees it.
	if err := view.Update([]byte{6, 0, 0, 0}, binary.LittleEndian.AppendUint64(nil, 100), xabi.UpdateAny); err != nil {
		t.Fatal(err)
	}
	localView, _ := r.nodes[0].MetaXStateEntries()
	lv, err := attachLocal(r.nodes[0], localView[0])
	if err != nil {
		t.Fatal(err)
	}
	laddr, _, _ := lv.Lookup([]byte{6, 0, 0, 0})
	if got, _ := r.nodes[0].Memory().ReadMem(laddr, 8); got != 100 {
		t.Errorf("local view after remote update = %d", got)
	}
}

// TestStageLinksIntoOwnImage pins the stage's single copy of the code: each
// node links the cached master's bytes into its own blob image, so two
// nodes whose XState lands at different addresses each stage their own
// linked bytes, while the master keeps its placeholders and JITCompileCode
// still hands out a private, unlinked clone.
func TestStageLinksIntoOwnImage(t *testing.T) {
	r := newRig(t, 2)
	spec := ebpf.MapSpec{Name: "hits", Type: xabi.MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 32}
	insns := []ebpf.Instruction{ebpf.StoreImm(ebpf.SizeW, ebpf.R10, -4, 0)}
	insns = append(insns, ebpf.LoadMapPtr(ebpf.R1, 0)...)
	insns = append(insns,
		ebpf.Mov64Reg(ebpf.R2, ebpf.R10),
		ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R2, -4),
		ebpf.Call(xabi.HelperMapLookup),
		ebpf.Mov64Imm(ebpf.R0, int32(xabi.VerdictPass)),
		ebpf.Exit(),
	)
	e := ext.FromEBPF(ebpf.NewProgram("lookup", ebpf.ProgTypeSocketFilter, insns, spec))
	// An extra XState on node 1 moves its scratch allocator, so the
	// extension's map lands at a different address there.
	if _, err := r.cfs[1].DeployXState(spec); err != nil {
		t.Fatal(err)
	}

	mapAddr := make([]uint64, 2)
	code := make([][]byte, 2)
	for i, cf := range r.cfs {
		sd, err := stageWrite(cf, e, "ingress")
		if err != nil {
			t.Fatal(err)
		}
		xs, err := cf.ListXStates()
		if err != nil {
			t.Fatal(err)
		}
		mapAddr[i] = xs[len(xs)-1]
		n, err := cf.Remote.ReadMem(sd.blob+node.BlobOffLen, 4)
		if err != nil {
			t.Fatal(err)
		}
		if code[i], err = cf.Remote.ReadBytes(sd.blob+node.BlobHdrSize, int(n)); err != nil {
			t.Fatal(err)
		}
	}
	if mapAddr[0] == mapAddr[1] {
		t.Fatalf("both nodes placed the map at %#x: the test needs them apart", mapAddr[0])
	}

	art, ok := r.cp.artifacts.Peek(artifact.Key{Digest: e.Digest(), Arch: r.cfs[0].Arch})
	if !ok {
		t.Fatal("stage left no artifact in the cache")
	}
	master := art.Master()
	mapRelocs := 0
	for _, rel := range master.Relocs {
		if got := binary.LittleEndian.Uint64(master.Code[rel.Offset:]); got != native.PlaceholderValue {
			t.Errorf("master reloc %q at %d = %#x: staging linked the cached master", rel.Symbol, rel.Offset, got)
		}
		if rel.Symbol != "map:"+spec.Name {
			continue
		}
		mapRelocs++
		for i := range code {
			if got := binary.LittleEndian.Uint64(code[i][rel.Offset:]); got != mapAddr[i] {
				t.Errorf("node %d staged map reloc at %d = %#x, want its own map %#x", i, rel.Offset, got, mapAddr[i])
			}
		}
	}
	if mapRelocs == 0 {
		t.Fatal("the extension compiled without a map relocation")
	}

	bin, err := r.cp.JITCompileCode(e, r.cfs[0].Arch)
	if err != nil {
		t.Fatal(err)
	}
	if bin == master || &bin.Code[0] == &master.Code[0] {
		t.Error("JITCompileCode returned the cached master, not a clone")
	}
	if bin.Linked() {
		t.Error("JITCompileCode returned linked code")
	}
}

func TestInjectWasmEndToEnd(t *testing.T) {
	r := newRig(t, 1)
	body := wasm.NewBody().
		GlobalGet(0).I64Const(1).Raw(wasm.OpI64Add).GlobalSet(0).
		GlobalGet(0).
		End().Bytes()
	m := wasm.SimpleFilter("wcount", 1, nil, body)
	m.Globals = []wasm.Global{{Type: wasm.I64, Init: 10}}
	if _, err := r.cfs[0].InjectExtension(ext.FromWasm(m), "ingress"); err != nil {
		t.Fatal(err)
	}
	ctx := make([]byte, xabi.CtxSize)
	res, err := r.nodes[0].ExecHook("ingress", ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != 11 {
		t.Errorf("first exec = %d, want 11 (global init 10 + 1)", res.Verdict)
	}
	res, _ = r.nodes[0].ExecHook("ingress", ctx, nil)
	if res.Verdict != 12 {
		t.Errorf("second exec = %d, want 12", res.Verdict)
	}
}

func TestInjectUDFEndToEnd(t *testing.T) {
	r := newRig(t, 1)
	p, err := udf.New("filter", "len >= 100 && len <= 200")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.cfs[0].InjectExtension(ext.FromUDF(p), "ingress"); err != nil {
		t.Fatal(err)
	}
	ctx := make([]byte, xabi.CtxSize)
	binary.LittleEndian.PutUint32(ctx[xabi.CtxOffDataLen:], 150)
	res, err := r.nodes[0].ExecHook("ingress", ctx, nil)
	if err != nil || res.Verdict != 1 {
		t.Errorf("in-range: %+v err=%v", res, err)
	}
	binary.LittleEndian.PutUint32(ctx[xabi.CtxOffDataLen:], 500)
	if _, err := r.nodes[0].ExecHook("ingress", ctx, nil); !errors.Is(err, node.ErrDropped) {
		t.Errorf("out-of-range err = %v", err)
	}
}

func TestRollback(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	if _, err := cf.InjectExtension(constProg("good", 1), "ingress"); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.InjectExtension(constProg("buggy", 2), "ingress"); err != nil {
		t.Fatal(err)
	}
	ctx := make([]byte, xabi.CtxSize)
	res, _ := r.nodes[0].ExecHook("ingress", ctx, nil)
	if res.Verdict != 2 {
		t.Fatalf("buggy not active: %+v", res)
	}

	var prev Deployed
	var err error
	verbs := verbsDuring(r.cp.Registry, func() { prev, err = cf.Rollback("ingress") })
	if err != nil {
		t.Fatal(err)
	}
	if prev.Name != "good" {
		t.Errorf("rolled back to %q", prev.Name)
	}
	res, _ = r.nodes[0].ExecHook("ingress", ctx, nil)
	if res.Verdict != 1 {
		t.Errorf("post-rollback verdict = %d", res.Verdict)
	}
	// Rollback is commit-only: no allocation FETCH_ADD, no blob WRITE —
	// the version word is the only thing written before the swap.
	if verbs["fetch_add"] != 0 || verbs["batch"] != 0 || verbs["write"] != 1 || verbs["cas"] != 1 {
		t.Errorf("rollback issued %v, want commit-only (version WRITE + dispatch CAS)", verbs)
	}
	if _, err := cf.Rollback("ingress"); err == nil {
		t.Error("rollback past history succeeded")
	}
}

func TestTxAtomicityAgainstConcurrentReaders(t *testing.T) {
	// Property (§3.5): while the control plane repeatedly deploys a large
	// blob and flips the pointer, a data-plane executor must never observe
	// a torn blob — every execution returns one of the published constants.
	r := newRig(t, 1)
	cf := r.cfs[0]

	if _, err := cf.InjectExtension(constProg("v0", 100), "ingress"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := make([]byte, xabi.CtxSize)
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := r.nodes[0].ExecHook("ingress", ctx, nil)
			if err != nil {
				readerErr = err
				return
			}
			if res.Verdict < 100 || res.Verdict > 110 {
				readerErr = errors.New("observed verdict outside published set")
				return
			}
		}
	}()

	for v := int32(101); v <= 110; v++ {
		// Large-ish straight-line program so the blob write spans many
		// cachelines (tearable without rdx_tx).
		insns := []ebpf.Instruction{
			ebpf.Mov64Imm(ebpf.R0, v),
			ebpf.Mov64Imm(ebpf.R3, 0),
		}
		for i := 0; i < 300; i++ {
			insns = append(insns, ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R3, 1))
		}
		insns = append(insns, ebpf.Exit())
		e := ext.FromEBPF(ebpf.NewProgram("v", ebpf.ProgTypeSocketFilter, insns))
		if _, err := cf.InjectExtension(e, "ingress"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
}

func TestMutualExcl(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	tok, err := cf.MutualExcl("ingress", 100)
	if err != nil {
		t.Fatal(err)
	}
	// Second acquisition must fail while held.
	if _, err := cf.MutualExcl("ingress", 50); err == nil {
		t.Error("double lock acquired")
	}
	if err := cf.Unlock(tok); err != nil {
		t.Fatal(err)
	}
	// Unlock of a stale token must fail.
	if err := cf.Unlock(tok); err == nil {
		t.Error("stale unlock succeeded")
	}
	// Re-acquire after release.
	tok2, err := cf.MutualExcl("ingress", 100)
	if err != nil {
		t.Fatal(err)
	}
	cf.Unlock(tok2)
}

func TestBroadcastAtomicVisibility(t *testing.T) {
	r := newRig(t, 4)
	rep, err := Group(r.cfs).Broadcast(constProg("b9", 9), BroadcastOptions{Hook: "ingress"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 4 {
		t.Fatalf("outcomes = %+v", rep.Outcomes)
	}
	for i, n := range r.nodes {
		res, err := n.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
		if err != nil || res.Verdict != 9 {
			t.Errorf("node %d: %+v err=%v", i, res, err)
		}
	}
	if rep.Commit <= 0 || rep.Prepare <= 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestBroadcastBBUGatesLifted(t *testing.T) {
	r := newRig(t, 2)
	rep, err := Group(r.cfs).Broadcast(constProg("bbu", 3), BroadcastOptions{Hook: "ingress", BBU: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GateHeld <= 0 {
		t.Error("BBU gate hold not recorded")
	}
	// Gates must be cleared.
	for i, n := range r.nodes {
		slot, _ := n.HookSlot("ingress")
		gate, _ := n.Arena.ReadQword(node.HookAddr(slot) + node.HookOffBuffer)
		if gate != 0 {
			t.Errorf("node %d gate still raised", i)
		}
	}
}

func TestBroadcastEmptyGroup(t *testing.T) {
	if _, err := (Group{}).Broadcast(constProg("x", 1), BroadcastOptions{Hook: "h"}); err == nil {
		t.Error("empty group broadcast succeeded")
	}
}

// TestBroadcastCompilesOncePerDigest pins the one validate/JIT of a fleet
// job: every node's stage asks the artifact cache, which validates and
// compiles a never-seen digest once for the whole group and not again for
// a repeat broadcast of it.
func TestBroadcastCompilesOncePerDigest(t *testing.T) {
	r := newRig(t, 8)
	compiles := r.cp.Registry.Counter("artifact.compile.invocations")
	validates := r.cp.Registry.Counter("artifact.validate.invocations")
	e := bigProg("once", 21)
	for round, want := range []uint64{1, 0} {
		c0, v0 := compiles.Value(), validates.Value()
		if _, err := Group(r.cfs).Broadcast(e, BroadcastOptions{Hook: "ingress"}); err != nil {
			t.Fatalf("broadcast %d: %v", round, err)
		}
		if c, v := compiles.Value()-c0, validates.Value()-v0; c != want || v != want {
			t.Errorf("broadcast %d: %d compiles, %d validations, want %d of each", round, c, v, want)
		}
	}
}

// TestBroadcastRejectedProgram pins where a fleet job rejects a program:
// in the artifact lookup, before the stage's first node verb, so no node
// sees a verb and no dispatch pointer moves.
func TestBroadcastRejectedProgram(t *testing.T) {
	r := newRig(t, 4)
	if _, err := Group(r.cfs).Broadcast(constProg("base", 5), BroadcastOptions{Hook: "ingress"}); err != nil {
		t.Fatal(err)
	}
	dispatch := func() []uint64 {
		out := make([]uint64, len(r.nodes))
		for i, n := range r.nodes {
			slot, _ := n.HookSlot("ingress")
			out[i], _ = n.Arena.ReadQword(node.HookAddr(slot) + node.HookOffDispatch)
		}
		return out
	}
	before := dispatch()
	bad := ext.FromEBPF(ebpf.NewProgram("bad", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Mov64Reg(ebpf.R0, ebpf.R5), // uninit read
		ebpf.Exit(),
	}))
	var err error
	if verbs := verbsDuring(r.cp.Registry, func() {
		_, err = Group(r.cfs).Broadcast(bad, BroadcastOptions{Hook: "ingress"})
	}); len(verbs) != 0 {
		t.Errorf("rejected program issued node verbs %v", verbs)
	}
	var verr *verifier.Error
	if !errors.As(err, &verr) {
		t.Fatalf("broadcast error = %v, want the verifier's", err)
	}
	if after := dispatch(); !reflect.DeepEqual(after, before) {
		t.Errorf("dispatch pointers %#x -> %#x after a rejected program", before, after)
	}
}

func TestRemoteStatsAndCCEvent(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	if _, err := cf.InjectExtension(constProg("s", 1), "ingress"); err != nil {
		t.Fatal(err)
	}
	ctx := make([]byte, xabi.CtxSize)
	for i := 0; i < 3; i++ {
		r.nodes[0].ExecHook("ingress", ctx, nil)
	}
	execs, drops, version, err := cf.HookStats("ingress")
	if err != nil {
		t.Fatal(err)
	}
	if execs != 3 || drops != 0 || version == 0 {
		t.Errorf("stats = %d %d %d", execs, drops, version)
	}
	hookAddr, _ := cf.HookAddr("ingress")
	if err := cf.CCEvent(hookAddr); err != nil {
		t.Errorf("cc_event: %v", err)
	}
}

func TestInjectRejectsInvalidExtension(t *testing.T) {
	r := newRig(t, 1)
	bad := ext.FromEBPF(ebpf.NewProgram("bad", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Mov64Reg(ebpf.R0, ebpf.R5), // uninit read
		ebpf.Exit(),
	}))
	if _, err := r.cfs[0].InjectExtension(bad, "ingress"); err == nil {
		t.Error("invalid extension deployed")
	}
	// The failed validation must not have touched the node.
	execs, _, version, _ := r.cfs[0].HookStats("ingress")
	if execs != 0 || version != 0 {
		t.Error("node state mutated by rejected extension")
	}
}
