// Package shard partitions the RDX control plane: CodeFlows are owned by
// N independent control-plane shards, each with its own leadership lease,
// deployment journal, standby, and publish serialization from
// internal/controlha — so shards elect leaders, replicate, and fail over
// independently, and a deposed shard leader fences only its own key range.
//
// In front of the shards sits a thin Router keyed by consistent hashing
// over (tenant, hook): round-robin fair-share scheduling of queued jobs
// across tenants within each shard, and per-shard telemetry wired into the
// fleet registry. Ring membership is fixed once set-up is done: a shard's
// state moves only by journal replay on takeover. The deployment model
// gives each tenant a disjoint hook namespace, so the shard owning a
// (tenant, hook) key exclusively owns the (node, hook) dispatch slots
// reachable through it — the per-shard pubMu argument of DESIGN.md §11
// depends on that disjointness.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVNodes is the virtual-node count per shard on a Router's ring.
// 64 points per shard keeps the maximum/mean key-share imbalance
// under ~30% for small shard counts without bloating the ring.
const DefaultVNodes = 64

// Map is a consistent-hash ring assigning (tenant, hook) keys to shard
// IDs. Each shard contributes vnodes points; a key belongs to the first
// point clockwise from its hash. Assignment is stable across Add: only
// keys on arcs ending at the new shard's points move, so adding a shard
// reshuffles ~1/N of the key space instead of all of it. All methods are
// safe for concurrent use.
type Map struct {
	vnodes int

	mu     sync.RWMutex
	points []point // sorted by hash
	shards map[int]struct{}
}

type point struct {
	hash uint64
	id   int
}

// NewMap builds an empty ring with vnodes virtual nodes per shard
// (DefaultVNodes if <= 0).
func NewMap(vnodes int) *Map {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Map{vnodes: vnodes, shards: map[int]struct{}{}}
}

// hash64 collapses a string onto the ring. SHA-256 (truncated) rather than
// a multiplicative hash: vnode placement quality is what bounds shard
// imbalance, and this is far off any hot path — Lookup only hashes the
// key, never the ring.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Key composes the routing key for a tenant's hook. The NUL separator
// keeps ("ab","c") and ("a","bc") distinct.
func Key(tenant, hook string) string { return tenant + "\x00" + hook }

// pointsFor computes a shard's vnode placement (deterministic in id).
func (m *Map) pointsFor(id int) []point {
	pts := make([]point, 0, m.vnodes)
	for v := 0; v < m.vnodes; v++ {
		pts = append(pts, point{hash: hash64(fmt.Sprintf("shard-%d-vnode-%d", id, v)), id: id})
	}
	return pts
}

// Add inserts a shard's virtual nodes into the ring (no-op if present).
func (m *Map) Add(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.shards[id]; ok {
		return
	}
	m.shards[id] = struct{}{}
	m.points = append(m.points, m.pointsFor(id)...)
	sort.Slice(m.points, func(i, j int) bool { return m.points[i].hash < m.points[j].hash })
}

// Lookup returns the shard owning (tenant, hook); ok is false on an empty
// ring.
func (m *Map) Lookup(tenant, hook string) (id int, ok bool) {
	h := hash64(Key(tenant, hook))
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := len(m.points)
	if n == 0 {
		return 0, false
	}
	// The first point clockwise from h; i == n wraps to the top of the ring.
	i := sort.Search(n, func(i int) bool { return m.points[i].hash >= h })
	return m.points[i%n].id, true
}
