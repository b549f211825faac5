package rdx_test

import (
	"encoding/binary"
	"errors"
	"testing"

	"rdx"
)

// apiRig boots one node + CodeFlow through the public facade only.
func apiRig(t *testing.T, hooks ...string) (*rdx.Node, *rdx.ControlPlane, *rdx.CodeFlow) {
	t.Helper()
	if len(hooks) == 0 {
		hooks = []string{"ingress"}
	}
	n, err := rdx.NewNode(rdx.NodeConfig{
		ID: t.Name(), Hooks: hooks, Latency: rdx.NoLatency(), Cores: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fabric := rdx.NewFabric()
	l, err := fabric.Listen(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	go n.Serve(l)
	cp := rdx.NewControlPlane()
	conn, err := fabric.Dial(t.Name())
	if err != nil {
		t.Fatal(err)
	}
	cf, err := cp.CreateCodeFlow(conn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cf.Close()
		n.Close()
	})
	return n, cp, cf
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	n, _, cf := apiRig(t)

	sampler, err := rdx.NewUDF("sampler", "tenant == 9")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cf.InjectExtension(sampler, "ingress")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version == 0 {
		t.Errorf("report = %+v", rep)
	}

	ctx := make([]byte, rdx.CtxSize)
	binary.LittleEndian.PutUint64(ctx[rdx.CtxOffTenant:], 9)
	res, err := n.ExecHook("ingress", ctx, nil)
	if err != nil || res.Verdict != 1 {
		t.Fatalf("matching tenant: %+v err=%v", res, err)
	}
	binary.LittleEndian.PutUint64(ctx[rdx.CtxOffTenant:], 10)
	if _, err := n.ExecHook("ingress", ctx, nil); !errors.Is(err, rdx.ErrDropped) {
		t.Fatalf("non-matching tenant: %v, want ErrDropped", err)
	}

	execs, drops, _, err := cf.HookStats("ingress")
	if err != nil || execs != 2 || drops != 1 {
		t.Errorf("stats = %d/%d err=%v", execs, drops, err)
	}
}

func TestPublicAPIBadUDFRejected(t *testing.T) {
	if _, err := rdx.NewUDF("bad", "len >"); err == nil {
		t.Error("malformed UDF accepted")
	}
}

func TestPublicAPIOrchestration(t *testing.T) {
	n, cp, cf := apiRig(t, "ingress", "egress")
	o := rdx.NewOrchestrator(cp)
	o.AddNode("n1", cf)

	plan, err := rdx.ParsePlan(`
extension guard udf "len > 10"
deploy guard to egress on n1
limit egress on n1 90000
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Execute(plan); err != nil {
		t.Fatal(err)
	}
	ctx := make([]byte, rdx.CtxSize)
	if _, err := n.ExecHook("egress", ctx, nil); !errors.Is(err, rdx.ErrDropped) {
		t.Errorf("plan-deployed guard inactive: %v", err)
	}
}

func TestPublicAPISecurityControls(t *testing.T) {
	_, cp, cf := apiRig(t)
	cp.SetPolicy(&rdx.AccessPolicy{Roles: map[rdx.Role]rdx.Privilege{
		"ops": {Hooks: []string{"ingress"}},
	}})
	cf.Bind("ops")
	e, _ := rdx.NewUDF("p", "len >= 0")
	if _, err := cf.InjectExtension(e, "ingress"); err != nil {
		t.Fatal(err)
	}
	cf.Bind("intruder")
	e2, _ := rdx.NewUDF("q", "len >= 1")
	if _, err := cf.InjectExtension(e2, "ingress"); !errors.Is(err, rdx.ErrDenied) {
		t.Errorf("unknown role deployed: %v", err)
	}
	cp.SetPolicy(nil)

	if err := cf.SetRuntimeLimit("ingress", 12345); err != nil {
		t.Fatal(err)
	}
	if rep, err := cf.VerifyIntegrity("ingress"); err != nil || !rep.Intact {
		t.Errorf("integrity: %+v err=%v", rep, err)
	}
}

func TestPublicAPIBroadcastGroup(t *testing.T) {
	fabric := rdx.NewFabric()
	cp := rdx.NewControlPlane()
	var group rdx.Group
	var nodes []*rdx.Node
	for i := 0; i < 3; i++ {
		id := string(rune('x'+i)) + "-pub"
		n, err := rdx.NewNode(rdx.NodeConfig{ID: id, Hooks: []string{"h"}, Latency: rdx.NoLatency()})
		if err != nil {
			t.Fatal(err)
		}
		l, _ := fabric.Listen(id)
		go n.Serve(l)
		conn, _ := fabric.Dial(id)
		cf, err := cp.CreateCodeFlow(conn)
		if err != nil {
			t.Fatal(err)
		}
		group = append(group, cf)
		nodes = append(nodes, n)
		t.Cleanup(n.Close)
	}
	e, _ := rdx.NewUDF("all", "len < 1000")
	rep, err := group.Broadcast(e, rdx.BroadcastOptions{Hook: "h", BBU: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 3 {
		t.Fatalf("outcomes = %+v", rep.Outcomes)
	}
	for i, n := range nodes {
		res, err := n.ExecHook("h", make([]byte, rdx.CtxSize), nil)
		if err != nil || res.Verdict != 1 {
			t.Errorf("node %d: %+v err=%v", i, res, err)
		}
	}
}
