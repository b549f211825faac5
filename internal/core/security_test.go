package core

import (
	"errors"
	"testing"

	"rdx/internal/ext"
	"rdx/internal/node"
	"rdx/internal/pipeline"
	"rdx/internal/wasm"
	"rdx/internal/xabi"
)

func TestAccessPolicyHookRestriction(t *testing.T) {
	r := newRig(t, 1, "ingress", "egress")
	cf := r.cfs[0]
	r.cp.SetPolicy(&AccessPolicy{Roles: map[Role]Privilege{
		"edge-team": {Hooks: []string{"ingress"}},
	}})
	cf.Bind("edge-team")

	if _, err := cf.InjectExtension(constProg("ok", 1), "ingress"); err != nil {
		t.Fatalf("allowed hook rejected: %v", err)
	}
	if _, err := cf.InjectExtension(constProg("no", 1), "egress"); !errors.Is(err, ErrDenied) {
		t.Errorf("forbidden hook: %v, want ErrDenied", err)
	}
	// Unknown role denied entirely.
	cf.Bind("nobody")
	if _, err := cf.InjectExtension(constProg("no2", 1), "ingress"); !errors.Is(err, ErrDenied) {
		t.Errorf("unknown role: %v, want ErrDenied", err)
	}
	// Clearing the policy restores open access.
	r.cp.SetPolicy(nil)
	if _, err := cf.InjectExtension(constProg("open", 2), "egress"); err != nil {
		t.Errorf("open access after clearing policy: %v", err)
	}
}

// TestPolicyCoversSchedulerPath: the scheduler's stage — behind every
// Broadcast and every multi-node shard job — passes the same policy gate
// as InjectExtension, per node and before any verb: a role limited to
// ingress reaches egress on no node and moves no dispatch pointer.
func TestPolicyCoversSchedulerPath(t *testing.T) {
	r := newRig(t, 3, "ingress", "egress")
	r.cp.SetPolicy(&AccessPolicy{Roles: map[Role]Privilege{
		"edge-team": {Hooks: []string{"ingress"}},
	}})
	targets := make([]pipeline.Target, len(r.cfs))
	for i, cf := range r.cfs {
		cf.Bind("edge-team")
		targets[i] = cf
	}

	res, err := r.cp.sched.Inject(pipeline.Request{
		Ext: constProg("sneak", 7), Hook: "egress", Targets: targets,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if !errors.Is(o.Err, ErrDenied) {
			t.Errorf("node %d: scheduler outcome %v, want ErrDenied", i, o.Err)
		}
	}
	if _, err := Group(r.cfs).Broadcast(constProg("sneak", 7), BroadcastOptions{Hook: "egress"}); !errors.Is(err, ErrDenied) {
		t.Errorf("broadcast to a forbidden hook: %v, want ErrDenied", err)
	}
	for i, cf := range r.cfs {
		hookAddr, _ := cf.HookAddr("egress")
		if blob, err := cf.Remote.ReadMem(hookAddr+node.HookOffDispatch, 8); err != nil || blob != 0 {
			t.Errorf("node %d: egress dispatch pointer = %#x (err %v), want untouched", i, blob, err)
		}
	}

	// The allowed hook still broadcasts, and each node's stage is audited.
	before := r.cp.AuditLen()
	if _, err := Group(r.cfs).Broadcast(constProg("fine", 3), BroadcastOptions{Hook: "ingress"}); err != nil {
		t.Fatalf("broadcast to an allowed hook: %v", err)
	}
	if got := r.cp.AuditLen() - before; got != len(r.cfs) {
		t.Errorf("audit entries for a %d-node broadcast = %d, want one stage per node", len(r.cfs), got)
	}
}

// TestRollbackNeedsCanRollback: with a policy installed, Rollback — and so
// Quarantine — needs Privilege.CanRollback; a refused rollback moves
// nothing.
func TestRollbackNeedsCanRollback(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	r.cp.SetPolicy(&AccessPolicy{Roles: map[Role]Privilege{
		"deployer": {},
		"operator": {CanRollback: true},
	}})
	cf.Bind("deployer")
	for i, e := range []*ext.Extension{constProg("good", 1), constProg("bad", 2)} {
		if _, err := cf.InjectExtension(e, "ingress"); err != nil {
			t.Fatalf("inject %d: %v", i, err)
		}
	}
	if _, err := cf.Rollback("ingress"); !errors.Is(err, ErrDenied) {
		t.Errorf("rollback without CanRollback: %v, want ErrDenied", err)
	}
	if _, err := cf.Quarantine("ingress", 5000); !errors.Is(err, ErrDenied) {
		t.Errorf("quarantine without CanRollback: %v, want ErrDenied", err)
	}
	res, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil || res.Verdict != 2 || len(cf.History("ingress")) != 2 {
		t.Fatalf("after refused rollbacks: verdict %d err %v, %d history entries; want 2, nil, 2",
			res.Verdict, err, len(cf.History("ingress")))
	}

	cf.Bind("operator")
	if prev, err := cf.Rollback("ingress"); err != nil || prev.Name != "good" {
		t.Fatalf("rollback with CanRollback: %+v, %v", prev, err)
	}
}

func TestAccessPolicyKindAndSize(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	r.cp.SetPolicy(&AccessPolicy{Roles: map[Role]Privilege{
		"udf-only": {Kinds: []ext.Kind{ext.KindUDF}, MaxOps: 10},
	}})
	cf.Bind("udf-only")

	if _, err := cf.InjectExtension(constProg("ebpf", 1), "ingress"); !errors.Is(err, ErrDenied) {
		t.Errorf("wrong kind: %v, want ErrDenied", err)
	}
	// Oversized extension of an allowed kind.
	r.cp.SetPolicy(&AccessPolicy{Roles: map[Role]Privilege{
		"udf-only": {MaxOps: 1},
	}})
	if _, err := cf.InjectExtension(constProg("big", 1), "ingress"); !errors.Is(err, ErrDenied) {
		t.Errorf("oversized: %v, want ErrDenied", err)
	}
}

func TestRuntimeLimitAbortsLoopingFilter(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]

	// A Wasm filter with an unbounded loop (legal in Wasm, unlike eBPF).
	body := wasm.NewBody().
		Loop(wasm.BlockEmpty).
		Br(0).
		End().
		I64Const(1).
		End().Bytes()
	spinner := ext.FromWasm(wasm.SimpleFilter("spinner", 0, nil, body))
	if _, err := cf.InjectExtension(spinner, "ingress"); err != nil {
		t.Fatal(err)
	}
	if err := cf.SetRuntimeLimit("ingress", 10_000); err != nil {
		t.Fatal(err)
	}

	_, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if !errors.Is(err, node.ErrRuntimeLimit) {
		t.Fatalf("err = %v, want ErrRuntimeLimit", err)
	}
	aborts, err := cf.RuntimeAborts("ingress")
	if err != nil || aborts != 1 {
		t.Errorf("aborts = %d err=%v", aborts, err)
	}

	// Clearing the limit restores the (large) engine default; the spinner
	// still dies eventually, but a well-behaved extension runs fine.
	if err := cf.SetRuntimeLimit("ingress", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.InjectExtension(constProg("fine", 1), "ingress"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil); err != nil {
		t.Errorf("well-behaved extension under no limit: %v", err)
	}
}

func TestQuarantine(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	if _, err := cf.InjectExtension(constProg("good", 1), "ingress"); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.InjectExtension(constProg("bad", 2), "ingress"); err != nil {
		t.Fatal(err)
	}
	prev, err := cf.Quarantine("ingress", 5000)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Name != "good" {
		t.Errorf("quarantine restored %q", prev.Name)
	}
	res, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil || res.Verdict != 1 {
		t.Errorf("post-quarantine exec: %+v err=%v", res, err)
	}
	// The runtime limit is in force.
	hookAddr, _ := cf.HookAddr("ingress")
	fuel, _ := cf.Remote.ReadMem(hookAddr+node.HookOffFuel, 8)
	if fuel != 5000 {
		t.Errorf("fuel = %d", fuel)
	}
}

func TestAuditLog(t *testing.T) {
	r := newRig(t, 1)
	before := r.cp.AuditLen()
	r.cfs[0].InjectExtension(constProg("a", 1), "ingress")
	r.cfs[0].InjectExtension(constProg("b", 2), "ingress")
	if got := r.cp.AuditLen() - before; got != 2 {
		t.Errorf("audit entries = %d, want 2", got)
	}
}

func TestVerifyIntegrity(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	dep, err := cf.InjectExtension(constProg("trusted", 5), "ingress")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cf.VerifyIntegrity("ingress")
	if err != nil || !rep.Intact {
		t.Fatalf("fresh deploy: %+v err=%v", rep, err)
	}
	if rep.Version != dep.Version || rep.Blob != dep.Blob {
		t.Errorf("report identity mismatch: %+v vs %+v", rep, dep)
	}

	// An attacker with node access flips a byte of the live code.
	r.nodes[0].Arena.Write(dep.Blob+node.BlobHdrSize+4, []byte{0xFF})
	rep, err = cf.VerifyIntegrity("ingress")
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("tampered code: err=%v rep=%+v", err, rep)
	}
	if rep.Intact || rep.Expected == rep.Actual {
		t.Errorf("tampering not reflected in report: %+v", rep)
	}

	// Recovery: redeploying restores integrity.
	if _, err := cf.InjectExtension(constProg("trusted2", 6), "ingress"); err != nil {
		t.Fatal(err)
	}
	if rep, err := cf.VerifyIntegrity("ingress"); err != nil || !rep.Intact {
		t.Errorf("post-recovery: %+v err=%v", rep, err)
	}
}

func TestVerifyIntegrityEmptyHook(t *testing.T) {
	r := newRig(t, 1)
	rep, err := r.cfs[0].VerifyIntegrity("ingress")
	if err != nil || !rep.Intact || rep.Blob != 0 {
		t.Errorf("empty hook: %+v err=%v", rep, err)
	}
}
