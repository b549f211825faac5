package main

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/node"
	"rdx/internal/rdma"
)

// TestShardRowUnreplayable: a shard whose journal cannot be replayed (the
// ring wrapped, or its bytes are corrupt) has no State. Its row reports the
// replay error and "-" for deployments instead of reading the missing state.
func TestShardRowUnreplayable(t *testing.T) {
	st := &controlha.HAStatus{
		Owner: 0x7, Epoch: 3, RingHwm: 4096, RingCap: 4096,
		ReplayErr: fmt.Errorf("controlha: ring overrun"),
	}
	row := shardRow(1, "127.0.0.1:7801", st)
	want := []string{"1", "127.0.0.1:7801", "held by 0x7", "3", "4096/4096",
		"unreplayable: controlha: ring overrun", "-"}
	if !reflect.DeepEqual(row, want) {
		t.Fatalf("row = %q\nwant  %q", row, want)
	}
}

// TestShardRowReplayed: a replayed journal reports its entries, sequence,
// deployments and open intents.
func TestShardRowReplayed(t *testing.T) {
	state := controlha.NewState()
	state.Entries, state.LastSeq = 5, 5
	state.Versions[controlha.Key{Node: "0x1", Hook: "ingress"}] = core.DeployedVersion{Version: 1}
	state.Open = []controlha.Intent{{Node: "0x1", Hook: "kv", Version: 2}}
	row := shardRow(0, "127.0.0.1:7800", &controlha.HAStatus{RingHwm: 128, RingCap: 4096, State: state})
	if got := strings.Join(row, "|"); got != "0|127.0.0.1:7800|vacant|0|128/4096|5 entries, seq 5|1 (+1 open intents)" {
		t.Fatalf("row = %s", got)
	}
}

// TestFailoverCountsStandbyVerbs: the failover path binds its standby link
// to the control plane's registry, so the wire table rdxctl prints counts
// the lease CAS and the ring's ROTATE_MR.
func TestFailoverCountsStandbyVerbs(t *testing.T) {
	host, err := controlha.NewHostWith(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go host.Serve(l)

	cp := core.NewControlPlane()
	ldr, _, err := takeOverStandby(cp, l.Addr().String(), 0x42, time.Second, 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ldr.Lease.Release(); err != nil {
		t.Fatal(err)
	}
	counters := cp.Registry.Snapshot().Counters
	for _, verb := range []string{"cas", "rotate_mr"} {
		if n := counters["rdma.qp.verbs."+verb]; n < 1 {
			t.Errorf("rdma.qp.verbs.%s = %d after a failover, want >= 1", verb, n)
		}
	}
}

// TestDialNodesRejectsMalformedEntry: an entry without "=" fails the list
// with an error that names it, and no flow comes back.
func TestDialNodesRejectsMalformedEntry(t *testing.T) {
	names, flows, err := dialNodes(core.NewControlPlane(), "n0 127.0.0.1:1,n1=127.0.0.1:1", false, time.Second)
	if err == nil || !strings.Contains(err.Error(), `bad -nodes entry "n0 127.0.0.1:1"`) {
		t.Fatalf("err = %v, want the bad entry named", err)
	}
	if names != nil || flows != nil {
		t.Errorf("failed dial returned names %v, %d flows", names, len(flows))
	}
}

// TestDialNodesInListOrder: two nodes served over TCP come back in -nodes
// order, each flow attached to its own node.
func TestDialNodesInListOrder(t *testing.T) {
	var addrs []string
	for _, id := range []string{"a", "b"} {
		n, err := node.New(node.Config{ID: id, Hooks: []string{"ingress"}, Latency: rdma.NoLatency(), Cores: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go n.Serve(l)
		addrs = append(addrs, l.Addr().String())
	}

	names, flows, err := dialNodes(core.NewControlPlane(), "second="+addrs[1]+", first="+addrs[0], false, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFlows(flows)
	if !reflect.DeepEqual(names, []string{"second", "first"}) || len(flows) != 2 {
		t.Fatalf("names %v, %d flows; want [second first] and 2 flows", names, len(flows))
	}
	if flows[0].NodeKey() == flows[1].NodeKey() {
		t.Errorf("both flows attached to node %s", flows[0].NodeKey())
	}
}
