package shard

import (
	"fmt"
	"testing"
)

// TestMapBalance: with virtual nodes, key shares across shards stay within
// a reasonable band of the mean.
func TestMapBalance(t *testing.T) {
	m := NewMap(0)
	const shards = 8
	for i := 0; i < shards; i++ {
		m.Add(i)
	}
	counts := map[int]int{}
	const keys = 8000
	for i := 0; i < keys; i++ {
		id, ok := m.Lookup(fmt.Sprintf("tenant-%d", i), "ingress")
		if !ok {
			t.Fatal("lookup on populated ring failed")
		}
		counts[id]++
	}
	mean := keys / shards
	for id, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Errorf("shard %d owns %d of %d keys (mean %d): imbalance beyond 2x", id, c, keys, mean)
		}
	}
	if len(counts) != shards {
		t.Errorf("only %d of %d shards own keys", len(counts), shards)
	}
}

// TestMapStableAssignment: adding shard 3 to a 7-shard ring moves keys
// only onto shard 3; every other key keeps its shard. Placement is
// deterministic in shard ID, so building the ring in another order gives
// the same assignment.
func TestMapStableAssignment(t *testing.T) {
	m := NewMap(0)
	for _, id := range []int{0, 1, 2, 4, 5, 6, 7} {
		m.Add(id)
	}
	const keys = 4000
	before := make([]int, keys)
	for i := range before {
		before[i], _ = m.Lookup(fmt.Sprintf("t%d", i), "h")
	}

	m.Add(3)
	after := make([]int, keys)
	moved := 0
	for i := range before {
		id, _ := m.Lookup(fmt.Sprintf("t%d", i), "h")
		after[i] = id
		if id == before[i] {
			continue
		}
		if id != 3 {
			t.Errorf("key t%d moved %d -> %d though only shard 3 was added", i, before[i], id)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("shard 3 took no keys; balance test should have caught this")
	}

	inOrder := NewMap(0)
	for id := 0; id < 8; id++ {
		inOrder.Add(id)
	}
	for i := range after {
		if id, _ := inOrder.Lookup(fmt.Sprintf("t%d", i), "h"); id != after[i] {
			t.Errorf("key t%d: %d on a ring built in order, want %d", i, id, after[i])
		}
	}
}

// TestMapKeyComposition: the tenant/hook separator keeps adjacent
// compositions distinct, and the empty ring reports !ok.
func TestMapKeyComposition(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("Key collapses (ab,c) and (a,bc)")
	}
	m := NewMap(4)
	if _, ok := m.Lookup("t", "h"); ok {
		t.Error("empty ring returned a shard")
	}
	m.Add(1)
	id, ok := m.Lookup("t", "h")
	if !ok || id != 1 {
		t.Errorf("single-shard ring: got (%d, %v), want (1, true)", id, ok)
	}
	m.Add(1)
	if len(m.points) != 4 {
		t.Errorf("re-adding shard 1 left %d ring points, want 4", len(m.points))
	}
}
