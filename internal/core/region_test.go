package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdx/internal/ebpf"
	"rdx/internal/ext"
	"rdx/internal/mem"
	"rdx/internal/node"
	"rdx/internal/pipeline"
	"rdx/internal/rdma"
	"rdx/internal/xabi"
)

// fillerProg returns ret after n Mov64Imm fillers: a program whose blob
// grows with n.
func fillerProg(name string, n int, ret int32) *ext.Extension {
	insns := make([]ebpf.Instruction, 0, n+2)
	for i := 0; i < n; i++ {
		insns = append(insns, ebpf.Mov64Imm(ebpf.R1, int32(i)))
	}
	insns = append(insns, ebpf.Mov64Imm(ebpf.R0, ret), ebpf.Exit())
	return ext.FromEBPF(ebpf.NewProgram(name, ebpf.ProgTypeSocketFilter, insns))
}

// wantVerdict fails the test unless hook on n runs to verdict want.
func wantVerdict(t *testing.T, n *node.Node, hook string, want uint64) {
	t.Helper()
	out, err := n.ExecHook(hook, make([]byte, xabi.CtxSize), nil)
	if err != nil || out.Verdict != want {
		t.Fatalf("%s: verdict %d err=%v, want verdict %d", hook, out.Verdict, err, want)
	}
}

// wantExhausted fails the test unless cf's allocations overran the code
// region's fresh space, so later ones carved.
func wantExhausted(t *testing.T, cf *CodeFlow) {
	t.Helper()
	if !cf.exhausted.Load() {
		t.Fatal("the code region never ran out of fresh space")
	}
}

// wantNoStandbyClaimed fails the test if any stage claimed a hook's
// standby blob (as a delta or a full rewrite) instead of allocating.
func wantNoStandbyClaimed(t *testing.T, cp *ControlPlane) {
	t.Helper()
	if n := cp.Registry.Counter("artifact.delta.count").Value() + cp.Registry.Counter("artifact.delta.fallback").Value(); n != 0 {
		t.Fatalf("%d stages claimed a standby blob, want every stage to allocate", n)
	}
}

// TestGrowingPublishesKeepOtherHooksCode publishes ever larger programs on
// ingress, each outgrowing every blob before it, far past the code
// region's capacity: egress's blob is dispatched the whole time, so no
// allocation may land on it.
func TestGrowingPublishesKeepOtherHooksCode(t *testing.T) {
	r := newRig(t, 1, "ingress", "egress")
	cf := r.cfs[0]
	if _, err := cf.InjectExtension(bigProg("egress-9", 9), "egress"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := cf.InjectExtension(fillerProg("grow", 64+8*i, 5), "ingress"); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		wantVerdict(t, r.nodes[0], "egress", 9)
	}
	wantVerdict(t, r.nodes[0], "ingress", 5)
}

// TestAllocCodeFillThenPublish fills the code region with Table 1
// AllocCode reservations, which no hook dispatches, until less than a blob
// is left, then publishes on ingress: the publish may reuse that space but
// not egress's blob.
func TestAllocCodeFillThenPublish(t *testing.T) {
	r := newRig(t, 1, "ingress", "egress")
	cf := r.cfs[0]
	if _, err := cf.InjectExtension(bigProg("egress-9", 9), "egress"); err != nil {
		t.Fatal(err)
	}
	fillToBrim(t, cf)
	if _, err := cf.InjectExtension(bigProg("ingress-3", 3), "ingress"); err != nil {
		t.Fatal(err)
	}
	wantVerdict(t, r.nodes[0], "egress", 9)
	wantVerdict(t, r.nodes[0], "ingress", 3)
}

// fillToBrim reserves fresh code-region space with AllocCode until less
// than 64 bytes are left before the code-brk overruns.
func fillToBrim(t *testing.T, cf *CodeFlow) {
	t.Helper()
	const chunk, end = node.CodeSize / 8, node.CodeBase + node.CodeSize
	for {
		a, err := cf.AllocCode(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if a+2*chunk > end {
			if _, err := cf.AllocCode(int(end - a - chunk - 64)); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
}

// TestRepublishAfterOtherTermReusesOnlyLiveHistory hands one node back and
// forth between two controllers. A publishes g1 then g0; B takes over,
// exhausts the code region and stages g2 without publishing it; A takes
// back over and republishes g1. A's commit-only republish must dispatch
// g1's bytes, not whatever B wrote where A once put g1.
func TestRepublishAfterOtherTermReusesOnlyLiveHistory(t *testing.T) {
	r := newRig(t, 1)
	a := r.cfs[0]
	conn, err := r.fab.Dial(nodeID(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewControlPlane().CreateCodeFlow(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	g1, g0, g2 := bigProg("term-g1", 11), bigProg("term-g0", 10), bigProg("term-g2", 12)
	for _, g := range []*ext.Extension{g1, g0} {
		if _, err := a.InjectExtension(g, "ingress"); err != nil {
			t.Fatal(err)
		}
	}

	b.RestoreHistory("ingress", a.History("ingress"))
	for i := 0; i < 3; i++ {
		if _, err := b.AllocCode(node.CodeSize / 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stageWrite(b, g2, "ingress"); err != nil {
		t.Fatal(err)
	}

	a.RestoreHistory("ingress", b.History("ingress"))
	if _, err := a.InjectExtension(g1, "ingress"); err != nil {
		t.Fatal(err)
	}
	wantVerdict(t, r.nodes[0], "ingress", 11)
}

// TestStagedBlobSurvivesExhaustingAllocation stages a deploy, exhausts the
// code region under it with Table 1 allocations, then publishes: the
// staged blob is pending, so no allocation may reuse it, and the publish
// dispatches exactly the staged code.
func TestStagedBlobSurvivesExhaustingAllocation(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	e := bigProg("pending-v1", 1)
	sd, err := stageWrite(cf, e, "ingress")
	if err != nil {
		t.Fatal(err)
	}
	// Each reservation is the caller's to write, as a Table 1 user would.
	junk := bytes.Repeat([]byte{0xCC}, node.CodeSize/4)
	for i := 0; i < 6; i++ {
		a, err := cf.AllocCode(len(junk))
		if err != nil {
			t.Fatal(err)
		}
		if err := cf.Remote.WriteBytes(a, junk); err != nil {
			t.Fatal(err)
		}
	}
	if err := sd.Publish(context.Background()); err != nil {
		t.Fatalf("publish after exhausting allocations: %v", err)
	}
	wantVerdict(t, r.nodes[0], "ingress", 1)
	bin, err := r.cp.JITCompileCode(e, cf.Arch)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := readDispatchedCode(t, cf, "ingress"); !bytes.Equal(code, bin.Code) {
		t.Fatal("dispatched code differs from the staged image")
	}
}

// TestAbortedBroadcastsReleaseTheirBlobs repeats an atomic broadcast that
// always aborts, because one node lacks the hook, until the stages on the
// healthy node have written more than the code region holds. Every
// aborted stage's blob is released, so the region never fills.
func TestAbortedBroadcastsReleaseTheirBlobs(t *testing.T) {
	r := newRig(t, 1)
	bad, err := node.New(node.Config{ID: "hookless", Hooks: []string{"other"}, Latency: rdma.NoLatency(), Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	l, err := r.fab.Listen("hookless")
	if err != nil {
		t.Fatal(err)
	}
	go bad.Serve(l)
	conn, err := r.fab.Dial("hookless")
	if err != nil {
		t.Fatal(err)
	}
	badCF, err := r.cp.CreateCodeFlow(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer badCF.Close()

	e := fillerProg("abort-big", 4000, 7)
	bin, err := r.cp.JITCompileCode(e, r.cfs[0].Arch)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 2*node.CodeSize/(len(bin.Code)+node.BlobHdrSize) + 1
	g := Group{r.cfs[0], badCF}
	for i := 0; i < rounds; i++ {
		_, err := g.Broadcast(e, BroadcastOptions{Hook: "ingress"})
		if err == nil {
			t.Fatal("broadcast to a node without the hook published")
		}
		if errors.Is(err, ErrCodeRegionFull) {
			t.Fatalf("round %d of %d: %v", i, rounds, err)
		}
	}
	if _, err := r.cfs[0].InjectExtension(bigProg("after-aborts", 4), "ingress"); err != nil {
		t.Fatal(err)
	}
	wantVerdict(t, r.nodes[0], "ingress", 4)
}

// failWriteTarget is a CodeFlow whose reserves succeed and whose writes
// fail for good, without a verb.
type failWriteTarget struct{ *CodeFlow }

var errWriteRefused = errors.New("test: write refused")

func (f failWriteTarget) Stage(ctx context.Context, e *ext.Extension, hook string) (pipeline.Staged, error) {
	st, err := f.CodeFlow.Stage(ctx, e, hook)
	if err != nil {
		return nil, err
	}
	return failWriteStaged{st}, nil
}

type failWriteStaged struct{ pipeline.Staged }

func (failWriteStaged) Write(context.Context) error { return errWriteRefused }

// TestAbortedWritesReleaseTheirBlobs repeats a job in which every node
// reserves and one node's write fails, until the healthy node's writes
// have covered the code region twice. No node flips, every reserved blob
// leaves pending (so the region never fills), and the standbys the first
// job claimed stay tombstoned in the leader's history and journaled.
func TestAbortedWritesReleaseTheirBlobs(t *testing.T) {
	r := newRig(t, 2)
	sink := &recordingSink{}
	r.cp.SetJournal(sink)
	g := Group(r.cfs)
	for gen := int32(1); gen <= 2; gen++ {
		if _, err := g.Broadcast(fillerProg(fmt.Sprintf("gen%d", gen), 4000, gen), BroadcastOptions{Hook: "ingress"}); err != nil {
			t.Fatal(err)
		}
	}
	var claimed []uint64
	for _, cf := range r.cfs {
		claimed = append(claimed, cf.History("ingress")[0].Blob)
	}
	e := fillerProg("abort-write", 4000, 7)
	bin, err := r.cp.JITCompileCode(e, r.cfs[0].Arch)
	if err != nil {
		t.Fatal(err)
	}
	sink.take()
	rounds := 2*node.CodeSize/(len(bin.Code)+node.BlobHdrSize) + 1
	targets := []pipeline.Target{r.cfs[0], failWriteTarget{r.cfs[1]}}
	for i := 0; i < rounds; i++ {
		res, err := r.cp.sched.Inject(pipeline.Request{Ext: e, Hook: "ingress", Targets: targets})
		if err != nil {
			t.Fatal(err)
		}
		if res.Published || !errors.Is(res.Outcomes[1].Err, errWriteRefused) {
			t.Fatalf("round %d: published %v, failing node's outcome %v", i, res.Published, res.Outcomes[1].Err)
		}
		if errors.Is(res.Outcomes[0].Err, ErrCodeRegionFull) {
			t.Fatalf("round %d of %d: %v", i, rounds, res.Outcomes[0].Err)
		}
		for n, cf := range r.cfs {
			cf.mu.Lock()
			pending := len(cf.pending)
			cf.mu.Unlock()
			if pending != 0 {
				t.Fatalf("round %d: node %d keeps %d blobs pending after the abort", i, n, pending)
			}
		}
		if i == 0 {
			if rec := sink.take(); len(rec) < 2 || fmt.Sprint(rec[:2]) != "[claim claim]" || slices.Contains(rec, "publish") {
				t.Errorf("first aborted job journaled %v, want both claims and no publish", rec)
			}
		}
	}
	for n, cf := range r.cfs {
		wantVerdict(t, r.nodes[n], "ingress", 2)
		if h := cf.History("ingress"); h[0].Blob != claimed[n] || !h[0].Reclaimed {
			t.Errorf("node %d: claimed standby %#x not tombstoned: %+v", n, claimed[n], h)
		}
	}
}

// TestDispatchedBlobsFillRegion dispatches blobs that cover the whole code
// region through raw Table 1 calls, as another controller would: a publish
// then fails with ErrCodeRegionFull and no byte of the region changes.
func TestDispatchedBlobsFillRegion(t *testing.T) {
	hooks := []string{"h0", "h1", "h2", "h3", "ingress"}
	r := newRig(t, 1, hooks...)
	cf := r.cfs[0]
	const quarter = node.CodeSize / 4
	for i, h := range hooks[:4] {
		blob, err := cf.AllocCode(quarter)
		if err != nil {
			t.Fatal(err)
		}
		hdr := node.EncodeBlobHeader(cf.Arch, node.BlobParams{Kind: node.KindEBPF, Version: uint64(i + 1)},
			quarter-node.BlobHdrSize)
		hookAddr, err := cf.HookAddr(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := cf.Tx([]TxWrite{{Addr: blob, Bytes: hdr}},
			QwordSwap{Addr: hookAddr + node.HookOffDispatch, New: blob}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := r.nodes[0].Arena.Read(node.CodeBase, node.CodeSize)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cf.InjectExtension(bigProg("no-room", 2), "ingress")
	if !errors.Is(err, ErrCodeRegionFull) {
		t.Fatalf("publish into a region of dispatched blobs = %v, want ErrCodeRegionFull", err)
	}
	after, err := r.nodes[0].Arena.Read(node.CodeBase, node.CodeSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a failed publish changed bytes of dispatched blobs")
	}
}

// TestPressureReclaimsOnlySoftLiveBlobs publishes programs of about a
// twelfth of the code region each on ingress until the live history
// outgrows the region. Reusing space then tombstones the oldest history
// entries through the claim path — counted and journaled — while egress's
// blob, ingress's dispatched blob and every history entry left live keep
// their exact bytes.
func TestPressureReclaimsOnlySoftLiveBlobs(t *testing.T) {
	r := newRig(t, 1, "ingress", "egress")
	cf := r.cfs[0]
	sink := &recordingSink{}
	r.cp.SetJournal(sink)
	if _, err := cf.InjectExtension(bigProg("egress-9", 9), "egress"); err != nil {
		t.Fatal(err)
	}
	images := map[string][]byte{}
	for i := 0; i < 14; i++ {
		e := fillerProg(fmt.Sprintf("press-%d", i), 48000+i, int32(20+i))
		bin, err := r.cp.JITCompileCode(e, cf.Arch)
		if err != nil {
			t.Fatal(err)
		}
		images[e.Digest()] = bin.Code
		if _, err := cf.InjectExtension(e, "ingress"); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		wantVerdict(t, r.nodes[0], "egress", 9)
		wantVerdict(t, r.nodes[0], "ingress", uint64(20+i))
	}
	if r.cp.Registry.Counter("core.history.reclaimed").Value() == 0 {
		t.Fatal("no history entry reclaimed: the region never came under pressure")
	}
	claims := 0
	for _, e := range sink.take() {
		if e == "claim" {
			claims++
		}
	}
	if claims == 0 {
		t.Fatal("a reclaim under pressure journaled no claim")
	}
	live := 0
	for _, d := range cf.History("ingress") {
		if d.Reclaimed {
			continue
		}
		live++
		want := images[d.Digest]
		got, err := cf.Remote.ReadBytes(d.Blob+node.BlobHdrSize, len(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("live history entry %s at %#x lost its code", d.Name, d.Blob)
		}
	}
	if live < 2 {
		t.Fatalf("%d live history entries, want at least the dispatched one and one to roll back to", live)
	}
	if _, err := cf.Rollback("ingress"); err != nil {
		t.Fatal(err)
	}
	wantVerdict(t, r.nodes[0], "ingress", 32)
	// The first version's blob was reclaimed: republishing it must not
	// take the commit-only path onto the bytes that replaced it.
	if _, err := cf.InjectExtension(fillerProg("press-0", 48000, 20), "ingress"); err != nil {
		t.Fatal(err)
	}
	wantVerdict(t, r.nodes[0], "ingress", 20)
}

// TestCarveRacesCommitOnlyDispatch runs, on an exhausted region, full
// stages that carve on ingress against commit-only republishes on egress
// of the digests ingress published, and Table 1 allocations that drain the
// free list, under -race: every hook must end up dispatching one complete
// version. Each ingress stage outgrows the one before, so its standby is
// too small to claim and the stage allocates.
func TestCarveRacesCommitOnlyDispatch(t *testing.T) {
	r := newRig(t, 1, "ingress", "egress")
	cf := r.cfs[0]
	var vs []*ext.Extension
	for i := 0; i < 23; i++ {
		vs = append(vs, fillerProg(fmt.Sprintf("carve-%d", i), 512+8*i, int32(51+i)))
	}
	for _, e := range vs[:3] {
		injectOn(t, r.cp, cf, e)
	}
	for i := 0; i < 5; i++ {
		if _, err := cf.AllocCode(node.CodeSize / 4); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			res, err := r.cp.sched.Inject(pipeline.Request{
				Ext: vs[3+i], Hook: "ingress",
				Targets: []pipeline.Target{cf},
			})
			if err != nil {
				t.Error(err)
				return
			}
			if oerr := res.Outcomes[0].Err; oerr != nil {
				t.Errorf("staged inject %d: %v", i, oerr)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := cf.InjectExtension(vs[i%3], "egress"); err != nil {
				t.Errorf("inject %d on egress: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := cf.AllocCode(node.CodeSize / 4); err != nil {
				t.Errorf("alloc %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	wantExhausted(t, cf)

	var images [][]byte
	for _, e := range vs {
		bin, err := r.cp.JITCompileCode(e, cf.Arch)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, bin.Code)
	}
	for _, hook := range []string{"ingress", "egress"} {
		_, code := readDispatchedCode(t, cf, hook)
		match := false
		for _, img := range images {
			match = match || bytes.Equal(code, img)
		}
		if !match {
			t.Fatalf("hook %q dispatches code matching no racing version", hook)
		}
	}
}

// TestConcurrentStagesAcrossExhaustion stages and publishes on four hooks
// at once until the region has been exhausted and swept several times.
// Each publish on a hook outgrows the one before, so the hook's standby is
// too small to claim and every stage allocates: allocations racing the
// overrun, fresh ones and carved ones alike, must never share space, so
// every hook runs exactly what its own goroutine last published.
func TestConcurrentStagesAcrossExhaustion(t *testing.T) {
	hooks := []string{"h0", "h1", "h2", "h3"}
	r := newRig(t, 1, hooks...)
	cf := r.cfs[0]
	var wg sync.WaitGroup
	for g, hook := range hooks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				e := fillerProg(fmt.Sprintf("%s-v%d", hook, i), 8000+8*i, int32(100*g+i+1))
				res, err := r.cp.sched.Inject(pipeline.Request{
					Ext: e, Hook: hook, Targets: []pipeline.Target{cf},
				})
				if err == nil {
					err = res.FirstErr()
				}
				if err != nil {
					t.Errorf("%s publish %d: %v", hook, i, err)
					return
				}
				out, err := r.nodes[0].ExecHook(hook, make([]byte, xabi.CtxSize), nil)
				if want := uint64(100*g + i + 1); err != nil || out.Verdict != want {
					t.Errorf("%s after publish %d: verdict %d err=%v, want %d", hook, i, out.Verdict, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	wantExhausted(t, cf)
	wantNoStandbyClaimed(t, r.cp)
}

// hookedVerbs runs a test hook after the node executes each READ,
// FETCH_ADD and CAS; the hook may block, and an error it returns replaces
// the verb's completion, as a lost one would.
type hookedVerbs struct {
	rdma.Verbs
	after func(verb string) error
}

func (h *hookedVerbs) ReadCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) ([]byte, error) {
	b, err := h.Verbs.ReadCtx(ctx, rkey, addr, n)
	if err == nil {
		err = h.after("read")
	}
	return b, err
}

func (h *hookedVerbs) FetchAddCtx(ctx context.Context, rkey uint32, addr mem.Addr, delta uint64) (uint64, error) {
	prev, err := h.Verbs.FetchAddCtx(ctx, rkey, addr, delta)
	if err == nil {
		err = h.after("fetch_add")
	}
	return prev, err
}

func (h *hookedVerbs) CompareAndSwapCtx(ctx context.Context, rkey uint32, addr mem.Addr, old, new uint64) (uint64, error) {
	prev, err := h.Verbs.CompareAndSwapCtx(ctx, rkey, addr, old, new)
	if err == nil {
		err = h.after("cas")
	}
	return prev, err
}

// hookedFlow opens a CodeFlow on the rig's node over hookedVerbs.
func hookedFlow(t *testing.T, r *rig, after func(verb string) error) *CodeFlow {
	t.Helper()
	conn, err := r.fab.Dial(nodeID(0))
	if err != nil {
		t.Fatal(err)
	}
	cf, err := r.cp.CreateCodeFlowQP(&hookedVerbs{Verbs: rdma.NewQP(conn), after: after})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cf.Close() })
	return cf
}

// TestSweepWaitsOutFreshAllocations pauses a fresh allocation between its
// FETCH_ADD, which took the region's last free bytes, and marking the
// space pending, while another allocation overruns the region and sweeps.
// The sweep must wait for the paused allocation, or it hands the same
// space out twice.
func TestSweepWaitsOutFreshAllocations(t *testing.T) {
	r := newRig(t, 1)
	var armed atomic.Bool
	paused, resume := make(chan struct{}), make(chan struct{})
	cf := hookedFlow(t, r, func(verb string) error {
		if verb == "fetch_add" && armed.CompareAndSwap(true, false) {
			close(paused)
			<-resume
		}
		return nil
	})
	const last = 64 << 10
	for _, sz := range []uint64{node.CodeSize / 2, node.CodeSize/2 - last} {
		if _, err := cf.allocCode(cf.Remote, sz, cf.cp.checkFence); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	type alloc struct {
		addr uint64
		err  error
	}
	first, second := make(chan alloc, 1), make(chan alloc, 1)
	go func() {
		a, err := cf.allocCode(cf.Remote, last, cf.cp.checkFence)
		first <- alloc{a, err}
	}()
	<-paused
	go func() {
		a, err := cf.allocCode(cf.Remote, last, cf.cp.checkFence)
		second <- alloc{a, err}
	}()
	select {
	case <-second:
		t.Fatal("an overrunning allocation swept while a fresh one was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(resume)
	a, b := <-first, <-second
	if a.err != nil || a.addr != codeEnd-last {
		t.Fatalf("paused allocation = %#x, %v; want the last %d bytes at %#x", a.addr, a.err, last, codeEnd-last)
	}
	if !errors.Is(b.err, ErrCodeRegionFull) {
		t.Fatalf("allocation into a region of pending blobs = %#x, %v; want ErrCodeRegionFull", b.addr, b.err)
	}
}

// TestDeadlinePassedBeforePublishReleasesBlob stages deploys whose job
// deadline passes after the stage, until their stages have written more
// than the code region holds. The scheduler either never calls Publish on
// such a deploy or calls it under the expired context, then aborts it
// (pipeline's TestAbortEveryUnpublishedStage pins that half). Both leave
// no CAS posted, so Abort releases the blob and the region never fills.
// Nothing publishes on the hook before the last inject, so it has no
// standby to claim: every stage allocates.
func TestDeadlinePassedBeforePublishReleasesBlob(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	e := fillerProg("late", 40000, 6)
	bin, err := r.cp.JITCompileCode(e, cf.Arch)
	if err != nil {
		t.Fatal(err)
	}
	rounds := node.CodeSize/(len(bin.Code)+node.BlobHdrSize) + 2
	for i := 0; i < rounds; i++ {
		sd, err := stageWrite(cf, e, "ingress")
		if err != nil {
			t.Fatalf("round %d of %d: %v", i, rounds, err)
		}
		if i%2 == 1 {
			expired, cancel := context.WithDeadline(context.Background(), time.Now())
			err := sd.Publish(expired)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("round %d: publish past the deadline = %v, want DeadlineExceeded", i, err)
			}
		}
		sd.Abort()
	}
	wantExhausted(t, cf)
	wantNoStandbyClaimed(t, r.cp)
	if _, err := cf.InjectExtension(e, "ingress"); err != nil {
		t.Fatal(err)
	}
	wantVerdict(t, r.nodes[0], "ingress", 6)
}

// TestInDoubtBlobHeldUntilLaterFlip fails each publish's CAS completion
// after the CAS landed, so the blob is in doubt: it stays pending through
// Abort, and a later publish on the hook releases it. Repeated past the
// region's capacity, the region never fills; the in-doubt deploy may not
// be published once released, and the hook keeps the later version. The
// hook's standby only ever holds the later version's small blob, which the
// staged image outgrows, so every stage allocates.
func TestInDoubtBlobHeldUntilLaterFlip(t *testing.T) {
	r := newRig(t, 1)
	var lose atomic.Bool
	cf := hookedFlow(t, r, func(verb string) error {
		if verb == "cas" && lose.CompareAndSwap(true, false) {
			return rdma.ErrUncertain
		}
		return nil
	})
	e := fillerProg("doubt", 40000, 8)
	bin, err := r.cp.JITCompileCode(e, cf.Arch)
	if err != nil {
		t.Fatal(err)
	}
	rounds := node.CodeSize/(len(bin.Code)+node.BlobHdrSize) + 2
	for i := 0; i < rounds; i++ {
		sd, err := stageWrite(cf, e, "ingress")
		if err != nil {
			t.Fatalf("round %d of %d: %v", i, rounds, err)
		}
		lose.Store(true)
		if err := sd.Publish(context.Background()); !errors.Is(err, rdma.ErrUncertain) {
			t.Fatalf("publish with a lost CAS completion = %v", err)
		}
		sd.Abort()
		wantVerdict(t, r.nodes[0], "ingress", 8) // the CAS landed
		if _, err := cf.InjectExtension(constProg("later", 9), "ingress"); err != nil {
			t.Fatal(err)
		}
		if err := sd.Publish(context.Background()); err == nil {
			t.Fatal("a released in-doubt deploy published")
		}
		wantVerdict(t, r.nodes[0], "ingress", 9)
	}
	wantExhausted(t, cf)
	wantNoStandbyClaimed(t, r.cp)
}

// TestInDoubtBlobSurvivesAbort loses a publish's CAS before it executes,
// so the blob is in doubt, aborts the deploy, exhausts the region with
// Table 1 allocations the caller overwrites, then lands the CAS late: the
// hook must dispatch the staged code intact.
func TestInDoubtBlobSurvivesAbort(t *testing.T) {
	r := newRig(t, 1)
	var lose atomic.Bool
	cf := hookedFlow(t, r, func(verb string) error {
		if verb == "cas" && lose.CompareAndSwap(true, false) {
			return rdma.ErrUncertain
		}
		return nil
	})
	hookAddr, err := cf.HookAddr("ingress")
	if err != nil {
		t.Fatal(err)
	}
	sd, err := stageWrite(cf, bigProg("late-cas", 4), "ingress")
	if err != nil {
		t.Fatal(err)
	}
	old, err := cf.Remote.ReadMem(hookAddr+node.HookOffDispatch, 8)
	if err != nil {
		t.Fatal(err)
	}
	lose.Store(true)
	if err := sd.Publish(context.Background()); !errors.Is(err, rdma.ErrUncertain) {
		t.Fatalf("publish with a lost CAS completion = %v", err)
	}
	// The hook word still holds the old blob: undo the CAS, which the
	// fabric executed, so it can land late below.
	if err := cf.Remote.WriteMem(hookAddr+node.HookOffDispatch, 8, old); err != nil {
		t.Fatal(err)
	}
	sd.Abort()
	junk := bytes.Repeat([]byte{0xCC}, node.CodeSize/4)
	for i := 0; i < 6; i++ {
		a, err := cf.AllocCode(len(junk))
		if err != nil {
			t.Fatal(err)
		}
		if err := cf.Remote.WriteBytes(a, junk); err != nil {
			t.Fatal(err)
		}
	}
	if err := cf.Remote.WriteMem(hookAddr+node.HookOffDispatch, 8, sd.blob); err != nil {
		t.Fatal(err)
	}
	wantVerdict(t, r.nodes[0], "ingress", 4)
}

// wantInDoubtFlipKeepsStandby publishes A then B on a hookedFlow, so A is
// the hook's standby, then runs inDoubt, a commit-only flip back to A whose
// CAS lands but whose completion is lost. A is dispatched though no
// bookkeeping says so, and a stage on the hook must leave it alone: its
// bytes and the hook's verdict do not change before a publish. inDoubt may
// store lose again to lose a later CAS completion too.
func wantInDoubtFlipKeepsStandby(t *testing.T, inDoubt func(cf *CodeFlow, lose *atomic.Bool) error) {
	t.Helper()
	r := newRig(t, 1, "ingress", "egress")
	var lose atomic.Bool
	cf := hookedFlow(t, r, func(verb string) error {
		if verb == "cas" && lose.CompareAndSwap(true, false) {
			return rdma.ErrUncertain
		}
		return nil
	})
	for i, name := range []string{"doubt-a", "doubt-b"} {
		if _, err := cf.InjectExtension(bigProg(name, int32(i+1)), "ingress"); err != nil {
			t.Fatal(err)
		}
	}
	lose.Store(true)
	if err := inDoubt(cf, &lose); !errors.Is(err, rdma.ErrUncertain) {
		t.Fatalf("flip with a lost CAS completion = %v", err)
	}
	wantVerdict(t, r.nodes[0], "ingress", 1) // the CAS landed
	blob, code := readDispatchedCode(t, cf, "ingress")
	if _, err := stageWrite(cf, bigProg("doubt-c", 3), "ingress"); err != nil {
		t.Fatal(err)
	}
	if after, again := readDispatchedCode(t, cf, "ingress"); after != blob || !bytes.Equal(again, code) {
		t.Fatalf("a stage wrote into the in-doubt blob at %#x", blob)
	}
	wantVerdict(t, r.nodes[0], "ingress", 1)
}

// TestInDoubtResidentFlipKeepsStandby: the in-doubt flip is a resident
// re-inject of A.
func TestInDoubtResidentFlipKeepsStandby(t *testing.T) {
	wantInDoubtFlipKeepsStandby(t, func(cf *CodeFlow, _ *atomic.Bool) error {
		_, err := cf.InjectExtension(bigProg("doubt-a", 1), "ingress")
		return err
	})
}

// TestInDoubtFlipsOnTwoHooksKeepStandby: resident injects of A on the hook
// and on a second hook both lose their completions, then a flip on the
// second hook lands. That flip says nothing of the first hook, where A
// stays in doubt.
func TestInDoubtFlipsOnTwoHooksKeepStandby(t *testing.T) {
	wantInDoubtFlipKeepsStandby(t, func(cf *CodeFlow, lose *atomic.Bool) error {
		_, err := cf.InjectExtension(bigProg("doubt-a", 1), "ingress")
		lose.Store(true)
		if _, err := cf.InjectExtension(bigProg("doubt-a", 1), "egress"); !errors.Is(err, rdma.ErrUncertain) {
			t.Fatalf("second resident flip with a lost CAS completion = %v", err)
		}
		if _, err := cf.InjectExtension(constProg("later", 9), "egress"); err != nil {
			t.Fatal(err)
		}
		return err
	})
}

// TestInDoubtRollbackKeepsStandby: the in-doubt flip is a rollback to A.
func TestInDoubtRollbackKeepsStandby(t *testing.T) {
	wantInDoubtFlipKeepsStandby(t, func(cf *CodeFlow, _ *atomic.Bool) error {
		_, err := cf.Rollback("ingress")
		return err
	})
}

// TestInDoubtBlobReusedRefusesStalePublish leaves one deploy after another
// in doubt, each released by a later publish on the hook, until a stage
// reuses an earlier in-doubt deploy's blob and its publish is in doubt
// too. The earlier deploy must not publish: its blob now holds the later
// stage's code.
func TestInDoubtBlobReusedRefusesStalePublish(t *testing.T) {
	r := newRig(t, 1)
	var lose atomic.Bool
	cf := hookedFlow(t, r, func(verb string) error {
		if verb == "cas" && lose.CompareAndSwap(true, false) {
			return rdma.ErrUncertain
		}
		return nil
	})
	bin, err := r.cp.JITCompileCode(fillerProg("stale", 40000, 1), cf.Arch)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 2 * (node.CodeSize/(len(bin.Code)+node.BlobHdrSize) + 2)
	earlier := map[uint64]*StagedDeploy{}
	for i := 0; i < rounds; i++ {
		ret := int32(10 + i)
		sd, err := stageWrite(cf, fillerProg("stale", 40000, ret), "ingress")
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		lose.Store(true)
		if err := sd.Publish(context.Background()); !errors.Is(err, rdma.ErrUncertain) {
			t.Fatalf("publish with a lost CAS completion = %v", err)
		}
		if old := earlier[sd.blob]; old != nil {
			if err := old.Publish(context.Background()); err == nil {
				t.Fatalf("a released in-doubt deploy published onto blob %#x, reused by round %d", sd.blob, i)
			}
			wantVerdict(t, r.nodes[0], "ingress", uint64(ret))
			return
		}
		earlier[sd.blob] = sd
		if _, err := cf.InjectExtension(constProg("later", 9), "ingress"); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("no stage reused an in-doubt deploy's released blob")
}

// TestInDoubtPublishRetriesAfterFlipElsewhere leaves a staged deploy in
// doubt on each of two hooks, then lands a flip on the second. The first
// deploy's blob is still in doubt on its own hook, so its retry publishes.
func TestInDoubtPublishRetriesAfterFlipElsewhere(t *testing.T) {
	r := newRig(t, 1, "ingress", "egress")
	var lose atomic.Bool
	cf := hookedFlow(t, r, func(verb string) error {
		if verb == "cas" && lose.CompareAndSwap(true, false) {
			return rdma.ErrUncertain
		}
		return nil
	})
	var staged []*StagedDeploy
	for i, hook := range []string{"ingress", "egress"} {
		sd, err := stageWrite(cf, constProg("retry", int32(i+1)), hook)
		if err != nil {
			t.Fatal(err)
		}
		lose.Store(true)
		if err := sd.Publish(context.Background()); !errors.Is(err, rdma.ErrUncertain) {
			t.Fatalf("publish on %s with a lost CAS completion = %v", hook, err)
		}
		staged = append(staged, sd)
	}
	if _, err := cf.InjectExtension(constProg("later", 9), "egress"); err != nil {
		t.Fatal(err)
	}
	if err := staged[0].Publish(context.Background()); err != nil {
		t.Fatalf("retry of the deploy in doubt on ingress: %v", err)
	}
	wantVerdict(t, r.nodes[0], "ingress", 1)
	if err := staged[1].Publish(context.Background()); err == nil {
		t.Fatal("a released in-doubt deploy published")
	}
	wantVerdict(t, r.nodes[0], "egress", 9)
}

// TestDeployProgFencedAfterCarve exhausts the code region, then deposes the
// leader at the first READ of a cold deploy's carve, a sweep of the hooks'
// dispatch words. The deploy must fail fenced without writing its blob or
// posting a CAS: the hook keeps dispatching the code it ran before.
func TestDeployProgFencedAfterCarve(t *testing.T) {
	r := newRig(t, 1)
	var armed, deposed atomic.Bool
	var cas atomic.Int32
	cf := hookedFlow(t, r, func(verb string) error {
		switch {
		case verb == "read" && armed.CompareAndSwap(true, false):
			deposed.Store(true)
		case verb == "cas":
			cas.Add(1)
		}
		return nil
	})
	r.cp.SetFence(func() error {
		if deposed.Load() {
			return ErrFenced
		}
		return nil
	})
	if _, err := cf.InjectExtension(constProg("before", 5), "ingress"); err != nil {
		t.Fatal(err)
	}
	fillToBrim(t, cf)
	cas.Store(0)
	armed.Store(true)
	if _, err := cf.InjectExtension(bigProg("after", 6), "ingress"); !errors.Is(err, ErrFenced) {
		t.Fatalf("deploy deposed during its carve = %v, want ErrFenced", err)
	}
	if !deposed.Load() || cas.Load() != 0 {
		t.Fatalf("deposed=%v, %d CAS posted after the deposal", deposed.Load(), cas.Load())
	}
	wantExhausted(t, cf)
	wantVerdict(t, r.nodes[0], "ingress", 5)
}
