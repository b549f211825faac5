package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"rdx/internal/artifact"
	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/node"
	"rdx/internal/rdma"
	"rdx/internal/shard"
	"rdx/internal/telemetry"
)

// The rig is fixed: a later change is compared against numbers measured on
// exactly this fleet, so none of it is a flag.
const (
	hookName  = "h00"
	genFiller = 900      // cluster.GenerationExt cold-path size, as in `rdxbench serve`
	ringCap   = 64 << 20 // standby journal ring; the pump keeps the full copy
	pumpEvery = 10 * time.Millisecond
	leaseTTL  = time.Hour // nothing here deposes by expiry
	jobBytes  = 256       // staged-bytes estimate charged at admission
)

// sizes are the workload dimensions; smoke shrinks them for `go test`.
type sizes struct {
	nodes, shards int // flip, cold, rollout
	pool          int // rollout: precompiled generations
	foNodes       int // failover rig (one shard)
	history       int // failover: commit-only publishes journaled before the window
	warmTakeovers int // failover: untimed takeovers that make both successors resident
}

var (
	fullSizes  = sizes{nodes: 64, shards: 2, pool: 64, foNodes: 8, history: 20000, warmTakeovers: 4}
	smokeSizes = sizes{nodes: 8, shards: 2, pool: 8, foNodes: 8, history: 500, warmTakeovers: 2}
)

// plan is the tenant/node/shard layout: tenant i deploys to node i, and
// tenant names are picked (in name order, independent of the seed) so the
// consistent-hash ring gives every shard the same number of them.
type plan struct {
	tenants []string
	nodes   []string
	owner   []int    // tenant index -> shard
	fleet   []string // shard -> a tenant name the ring pins to it (rollout jobs)
}

func newPlan(nodes, shards int) (plan, error) {
	ring := shard.NewMap(shard.DefaultVNodes)
	for s := 0; s < shards; s++ {
		ring.Add(s)
	}
	p := plan{fleet: make([]string, shards)}
	per := nodes / shards
	have := make([]int, shards)
	for k := 0; len(p.tenants) < per*shards; k++ {
		if k > 100*nodes {
			return plan{}, fmt.Errorf("plan: ring never balanced %d tenants over %d shards", nodes, shards)
		}
		name := fmt.Sprintf("tenant-%04d", k)
		s, ok := ring.Lookup(name, hookName)
		if !ok || have[s] == per {
			continue
		}
		have[s]++
		p.tenants = append(p.tenants, name)
		p.nodes = append(p.nodes, fmt.Sprintf("node-%04d", len(p.nodes)))
		p.owner = append(p.owner, s)
	}
	for s := range p.fleet {
		for k := 0; p.fleet[s] == ""; k++ {
			name := fmt.Sprintf("fleet-%d-%d", s, k)
			if got, _ := ring.Lookup(name, hookName); got == s {
				p.fleet[s] = name
			}
		}
	}
	return p, nil
}

// planFor lays out the fleet a workload runs on: failover has a small rig of
// its own, one shard wide.
func planFor(workload string, sz sizes) (plan, error) {
	if workload == "failover" {
		return newPlan(sz.foNodes, 1)
	}
	return newPlan(sz.nodes, sz.shards)
}

// nodesOf lists the node names shard s owns.
func (p plan) nodesOf(s int) []string {
	var out []string
	for i, o := range p.owner {
		if o == s {
			out = append(out, p.nodes[i])
		}
	}
	return out
}

// controller is one control plane bound to a shard's nodes and to the
// shard's standby host: the leader, or (failover) a warm successor.
type controller struct {
	shard int
	cp    *core.ControlPlane
	flows map[string]*core.CodeFlow // by node name: the executor's view
	byKey map[string]*core.CodeFlow // by NodeKey: the journal's view
	names map[string]string         // NodeKey -> node name
	stby  rdma.Verbs                // link to the standby host
	stbyQ *rdma.QP                  // the same link, undecorated
	term  *controlha.Leader         // current leadership term, nil while deposed
	// termBase is how many journal bytes the standby held when term began.
	termBase uint64
}

type rig struct {
	plan   plan
	fab    *rdma.Fabric
	reg    *telemetry.Registry
	arts   *artifact.Cache
	nodes  map[string]*node.Node
	hosts  []*controlha.Host
	ctl    []*controller // the controller each shard started under, by shard
	all    []*controller // every controller dialled, for closing
	router *shard.Router
	tr     *tracer // nil on an untraced run

	pumpErrs atomic.Int64 // standby pump failures (ring overrun)

	dials   int           // CodeFlows created
	dialDur time.Duration // total time in CreateCodeFlow
}

// buildRig stands up the fleet: nodes, one standby host per shard, one
// leader control plane per shard attached to it, and the router. Every link
// pays rdma.DefaultLatency, spin-waited, over the in-process fabric.
func buildRig(p plan, tr *tracer) (*rig, error) {
	r := &rig{
		plan:  p,
		fab:   rdma.NewFabric(),
		reg:   telemetry.NewRegistry(),
		nodes: map[string]*node.Node{},
		tr:    tr,
	}
	rdma.BindWireInstruments(r.reg)
	r.arts = artifact.NewCache(artifact.Config{Registry: r.reg})
	for i, name := range p.nodes {
		n, err := node.New(node.Config{ID: name, Hooks: []string{hookName}, Cores: 2, Seed: int64(i)})
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes[name] = n
		l, err := r.fab.Listen(name)
		if err != nil {
			r.close()
			return nil, err
		}
		go n.Serve(l)
	}
	r.router = shard.NewRouter(shard.Config{Registry: r.reg})
	for s := range p.fleet {
		host, err := controlha.NewHostWith(ringCap, rdma.DefaultLatency())
		if err != nil {
			r.close()
			return nil, err
		}
		r.hosts = append(r.hosts, host)
		hl, err := r.fab.Listen(hostName(s))
		if err != nil {
			r.close()
			return nil, err
		}
		go host.Serve(hl)
		host.StartPump(pumpEvery, func(string, ...interface{}) { r.pumpErrs.Add(1) })
		c, err := r.newController(s, fmt.Sprintf("rdma.qp.shard%d", s))
		if err != nil {
			r.close()
			return nil, err
		}
		r.ctl = append(r.ctl, c)
		c.term, err = controlha.AttachLeader(c.cp, c.stby, uint64(1+s), leaseTTL)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("shard %d: attach leader: %w", s, err)
		}
		r.decorate(c)
		if err := r.router.AddShard(s, r.executor(c)); err != nil {
			r.close()
			return nil, err
		}
	}
	for i, t := range p.tenants {
		if got, ok := r.router.ShardFor(t, hookName); !ok || got != p.owner[i] {
			r.close()
			return nil, fmt.Errorf("shard plan mismatch for %s: planned %d, router %d", t, p.owner[i], got)
		}
	}
	return r, nil
}

func hostName(s int) string { return fmt.Sprintf("standby-%d", s) }

// newController dials a control plane to shard s's nodes and standby host.
// It holds no lease yet: AttachLeader or TakeOver starts its term.
func (r *rig) newController(s int, wirePrefix string) (*controller, error) {
	c := &controller{
		shard: s,
		cp:    core.NewControlPlaneLabeled(r.arts, r.reg, wirePrefix),
		flows: map[string]*core.CodeFlow{},
		byKey: map[string]*core.CodeFlow{},
		names: map[string]string{},
	}
	r.all = append(r.all, c)
	for _, name := range r.plan.nodesOf(s) {
		conn, err := r.fab.Dial(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		var cf *core.CodeFlow
		if r.tr != nil {
			cf, err = c.cp.CreateCodeFlowQP(r.tr.verbs(rdma.NewQP(conn), s, name))
		} else {
			cf, err = c.cp.CreateCodeFlow(conn)
		}
		if err != nil {
			return nil, err
		}
		r.dialDur += time.Since(t0)
		r.dials++
		c.flows[name] = cf
		c.byKey[cf.NodeKey()] = cf
		c.names[cf.NodeKey()] = name
	}
	conn, err := r.fab.Dial(hostName(s))
	if err != nil {
		return nil, err
	}
	// Nothing instruments a standby link by default; the registry series
	// makes its verbs and bytes countable on traced and untraced runs alike.
	c.stbyQ = rdma.NewQP(conn)
	c.stbyQ.SetInstruments(rdma.NewWireMetrics(r.reg, fmt.Sprintf("rdma.qp.stby%d", s)), nil, "")
	c.stby = c.stbyQ
	if r.tr != nil {
		c.stby = r.tr.verbs(c.stbyQ, s, "")
	}
	return c, nil
}

// decorate wraps the journal sink and fence a new term just installed on
// c's control plane. A no-op on an untraced run.
func (r *rig) decorate(c *controller) {
	if r.tr == nil {
		return
	}
	c.cp.SetJournal(r.tr.sink(c.cp.Journal(), c.shard, c.names))
	c.cp.SetFence(r.tr.fence(c.term.Lease.Check, c.shard))
}

func (r *rig) executor(c *controller) shard.Executor {
	ex := shard.NewCPExecutor(c.cp, c.flows)
	if r.tr == nil {
		return ex
	}
	return &tracedExecutor{tr: r.tr, inner: ex, shard: c.shard}
}

func (c *controller) close() {
	for _, cf := range c.flows {
		cf.Close()
	}
	if c.stbyQ != nil {
		c.stbyQ.Close()
	}
}

func (r *rig) close() {
	if r.router != nil {
		r.router.Close()
	}
	for _, c := range r.all {
		c.close()
	}
	for _, h := range r.hosts {
		h.Close()
	}
	for _, n := range r.nodes {
		n.Close()
	}
}
