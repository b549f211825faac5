package controlha_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rdx/internal/cluster"
	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/pipeline"
)

// nameLimit is core's bound on extension and hook names, in bytes;
// TestLongNameRefusedBeforeAnyVerb pins it.
const nameLimit = 1 << 10

// nodeVerbs sums the control plane's node-link verb counters.
func nodeVerbs(cp *core.ControlPlane) uint64 {
	var n uint64
	for _, op := range []string{"read", "write", "cas", "fetch_add", "write_imm", "batch"} {
		n += cp.Registry.Counter("rdma.qp.verbs." + op).Value()
	}
	return n
}

// namedExt is a Wasm generation renamed to name.
func namedExt(gen int, name string) *ext.Extension {
	e := cluster.GenerationExt(ext.KindWasm, gen, 50)
	e.Wasm.Name = name
	return e
}

// TestLongNameRefusedBeforeAnyVerb publishes a Wasm filter with a 70 KiB
// name under an attached leader. A publish entry carrying that name would
// be too large for the standby to decode, latching its fold and failing
// every later takeover. Every publish path must refuse the name with
// core.ErrNameTooLong before it issues a node verb, and the standby must
// still fold. A name at the limit publishes and folds.
func TestLongNameRefusedBeforeAnyVerb(t *testing.T) {
	rig := newHARig(t, 1)
	cp, g, _ := rig.controller(t)
	if _, err := controlha.AttachLeader(cp, rig.hostQP(t), 1, time.Minute); err != nil {
		t.Fatal(err)
	}
	cf := g[0]
	for _, long := range []string{strings.Repeat("x", 70<<10), strings.Repeat("x", nameLimit+1)} {
		e := namedExt(1, long)
		before := nodeVerbs(cp)
		if _, err := cf.InjectExtension(e, "ingress"); !errors.Is(err, core.ErrNameTooLong) {
			t.Fatalf("InjectExtension of a %d-byte name = %v, want ErrNameTooLong", len(long), err)
		}
		if _, err := cf.Stage(context.Background(), e, "ingress"); !errors.Is(err, core.ErrNameTooLong) {
			t.Fatalf("Stage of a %d-byte name = %v, want ErrNameTooLong", len(long), err)
		}
		bin, err := cp.JITCompileCode(e, cf.Arch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cf.DeployProg(bin, "ingress", core.DeployParams{}); !errors.Is(err, core.ErrNameTooLong) {
			t.Fatalf("DeployProg of a %d-byte name = %v, want ErrNameTooLong", len(long), err)
		}
		if n := nodeVerbs(cp) - before; n != 0 {
			t.Fatalf("refusing a %d-byte name issued %d node verbs", len(long), n)
		}
	}
	if _, err := cf.InjectExtension(namedExt(2, strings.Repeat("y", nameLimit)), "ingress"); err != nil {
		t.Fatalf("publish of a name at the limit: %v", err)
	}
	if _, err := rig.host.Pump(); err != nil {
		t.Fatal(err)
	}
	st, err := rig.host.State()
	if err != nil {
		t.Fatalf("standby fold: %v", err)
	}
	if dv := st.Versions[controlha.Key{Node: cf.NodeKey(), Hook: "ingress"}]; dv.Version == 0 {
		t.Fatalf("standby folded no publish: %+v", st.Versions)
	}
}

// TestEntryAtNameLimitRoundTrips journals an entry with every string at
// the name limit: it stays under an eighth of the 64 KiB entry payload the
// decoder accepts, and replays to itself.
func TestEntryAtNameLimitRoundTrips(t *testing.T) {
	s := strings.Repeat("n", nameLimit)
	e := controlha.Entry{Type: controlha.EntryPublish, Node: s, Hook: s, Name: s, Digest: s,
		Arch: ^uint32(0), Version: ^uint64(0), Blob: ^uint64(0), Flags: 1}
	j := controlha.NewJournal(nil)
	j.SetFenceSource(func() uint64 { return ^uint64(0) })
	if err := j.Append(e); err != nil {
		t.Fatal(err)
	}
	b := j.Bytes()
	if len(b) > (64<<10)/8 {
		t.Fatalf("entry at the name limit encodes to %d bytes", len(b))
	}
	got, n, err := controlha.DecodeEntry(b)
	e.Seq, e.Fence = 1, ^uint64(0)
	if err != nil || n != len(b) || got != e {
		t.Fatalf("decode = %+v, %d of %d bytes, %v; want %+v", got, n, len(b), err, e)
	}
}

// TestVersionMapFollowsDispatch stages A, then B, on one node's hook, and
// publishes B, then A. The node dispatches A, so the deployed-version map,
// the hook's version word, the top of the rollback stack and a replay of
// the journal must all name A, though B's version is higher.
func TestVersionMapFollowsDispatch(t *testing.T) {
	rig := newHARig(t, 1)
	cp, g, _ := rig.controller(t)
	j := controlha.NewJournal(nil)
	cp.SetJournal(j)
	cf, ctx := g[0], context.Background()
	stage := func(gen int) pipeline.Staged {
		sd, err := cf.Stage(ctx, cluster.GenerationExt(ext.KindEBPF, gen, 200), "ingress")
		if err != nil {
			t.Fatal(err)
		}
		sd.Durable()
		if err := sd.Write(ctx); err != nil {
			t.Fatal(err)
		}
		return sd
	}
	a, b := stage(1), stage(2)
	for _, sd := range []pipeline.Staged{b, a} {
		if err := sd.Publish(ctx); err != nil {
			t.Fatal(err)
		}
	}
	want := a.Version()
	if want >= b.Version() {
		t.Fatalf("A staged at version %d, B at %d; want A lower", want, b.Version())
	}
	dv, _ := cp.DeployedVersion(cf.NodeKey(), "ingress")
	_, _, hookVer, err := cf.HookStats("ingress")
	if err != nil {
		t.Fatal(err)
	}
	h := cf.History("ingress")
	st, err := controlha.Replay(j.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	replayed := st.Versions[controlha.Key{Node: cf.NodeKey(), Hook: "ingress"}]
	if dv.Version != want || hookVer != want || h[len(h)-1].Version != want || replayed.Version != want {
		t.Fatalf("version map %d, hook word %d, stack top %d, replay %d; want A's %d",
			dv.Version, hookVer, h[len(h)-1].Version, replayed.Version, want)
	}
	if dv != replayed {
		t.Fatalf("replayed map entry %+v, leader's %+v", replayed, dv)
	}
}
