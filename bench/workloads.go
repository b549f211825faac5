package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/native"
	"rdx/internal/shard"
	"rdx/internal/xabi"
)

var workloadNames = []string{"flip", "cold", "rollout", "failover"}

// run is one workload set up and ready to be measured.
type run struct {
	workload string
	rig      *rig
	in       *inputs
	clients  int
	// do performs one op and blocks until it is acked. rec is the op's trace
	// record, nil unless spans are being recorded.
	do func(j *shard.Job, rec *opRec) error
	// after, when set, checks an acked op outside its timed interval.
	after func(j *shard.Job) error
	// last is, by client and tenant, the last job acked: what every node
	// must be running when the window closes.
	last []map[string]*shard.Job
	// live0 is the live heap of the rig as built, before any op; setupOps
	// counts the ops set-up has acked since. setupTime is how long set-up
	// took, without the two collections that reading live0 cost.
	live0     uint64
	setupOps  int
	setupTime time.Duration

	// failover: the two controllers that take over from each other.
	pair      [2]*controller
	leader    int // index into pair
	takeovers int
	retired   int64 // journal bytes of the terms already ended
}

// setUp builds the workload's rig and brings it to the state the window
// starts from: artifacts compiled, generations resident, history journaled.
func setUp(workload string, seed int64, sz sizes, p plan, clients int, tr *tracer) (*run, error) {
	start := time.Now()
	in, err := newInputs(workload, seed, sz, p, clients)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		for i, t := range p.tenants {
			tr.tenant[t] = tenantRef{client: i % clients, shard: p.owner[i]}
		}
		for s, t := range p.fleet {
			tr.tenant[t] = tenantRef{client: s % clients, shard: s}
		}
	}
	r, err := buildRig(p, tr)
	if err != nil {
		return nil, err
	}
	rn := &run{workload: workload, rig: r, in: in, clients: clients}
	collecting := time.Now()
	rn.live0 = collect().HeapAlloc
	start = start.Add(time.Since(collecting))
	for c := 0; c < clients; c++ {
		rn.last = append(rn.last, map[string]*shard.Job{})
	}
	rn.do = func(j *shard.Job, _ *opRec) error { return rn.publish(j) }
	switch workload {
	case "flip":
		err = rn.stageGenerations()
	case "cold":
		// One op per tenant: pools, maps and every node's code path warm.
		err = rn.warm(len(p.tenants) / clients)
	case "rollout":
		for _, e := range in.exts {
			if err = r.ctl[0].cp.Precompile(e, native.ArchX64); err != nil {
				break
			}
		}
		if err == nil {
			// One pass over the pool prepares every digest on both shards'
			// schedulers and double-buffers every hook: the window is all
			// delta stages.
			err = rn.warm(sz.pool)
		}
	case "failover":
		err = rn.setUpFailover(sz)
	}
	if err != nil {
		rn.close()
		return nil, fmt.Errorf("%s set-up: %w", workload, err)
	}
	rn.setupTime = time.Since(start)
	return rn, nil
}

func (rn *run) close() { rn.rig.close() }

func (rn *run) publish(j *shard.Job) error {
	return rn.rig.router.Publish(context.Background(), j)
}

// warm runs n untimed publishes per client from its stream.
func (rn *run) warm(n int) error {
	errs := make([]error, rn.clients)
	var wg sync.WaitGroup
	for c := 0; c < rn.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n && errs[c] == nil; i++ {
				j := rn.in.next[c]()
				if errs[c] = rn.publish(j); errs[c] == nil {
					rn.last[c][j.Tenant] = j
				}
			}
		}()
	}
	wg.Wait()
	rn.setupOps += n * rn.clients
	return errors.Join(errs...)
}

// stageGenerations publishes gens[1] then gens[0] to every tenant's node
// (two full injections), leaving both resident and gens[0] live: from here
// every op of the flip stream is a commit-only republish.
func (rn *run) stageGenerations() error {
	p := rn.rig.plan
	for _, g := range []int{1, 0} {
		for i, t := range p.tenants {
			j := &shard.Job{Tenant: t, Hook: hookName, Ext: rn.in.exts[g],
				Nodes: []string{p.nodes[i]}, Bytes: jobBytes}
			if err := rn.publish(j); err != nil {
				return err
			}
			rn.setupOps++
		}
	}
	// Two passes of the stream, so every pool and queue has seen steady state.
	return rn.warm(2 * len(p.tenants) / rn.clients)
}

// setUpFailover journals the fixed history, then makes both controllers
// warm successors: flows pre-dialled and both generations resident on every
// node from either side, so that each timed outage ends in a commit-only
// publish and measures takeover, not staging.
func (rn *run) setUpFailover(sz sizes) error {
	r := rn.rig
	succ, err := r.newController(0, "rdma.qp.succ0")
	if err != nil {
		return err
	}
	rn.pair = [2]*controller{r.ctl[0], succ}
	if err := rn.stageGenerations(); err != nil {
		return err
	}
	// History is fixed by count, not by time: faster publishing must not
	// lengthen what every takeover replays.
	if err := rn.warm(sz.history); err != nil {
		return err
	}
	rn.do = rn.failover
	rn.after = rn.deposedIsFenced
	for k := 0; k < sz.warmTakeovers; k++ {
		j := rn.in.next[0]()
		if err := rn.failover(j, nil); err != nil {
			return err
		}
		rn.last[0][j.Tenant] = j
		rn.setupOps++
		if err := rn.deposedIsFenced(j); err != nil {
			return err
		}
		// Both generations to every node under this leader.
		if err := rn.warm(2 * len(r.plan.tenants)); err != nil {
			return err
		}
	}
	return nil
}

// failover is one outage: the standby controller takes the lease over
// (fencing the leader), the router reinstates the shard on it, and the
// first publish on the victim key range is acked.
func (rn *run) failover(j *shard.Job, rec *opRec) error {
	r, tr := rn.rig, rn.rig.tr
	succ := rn.pair[1-rn.leader]
	rn.takeovers++
	var t0, t1, t2 int64
	if rec != nil {
		// Everything until the ack, the successor's standby verbs included,
		// happens on behalf of this op.
		rec.executing.Store(true)
		t0 = tr.now()
	}
	term, _, err := controlha.TakeOver(succ.cp, r.hosts[0], succ.stby, uint64(100+rn.takeovers), leaseTTL, succ.byKey)
	if err != nil {
		return fmt.Errorf("takeover: %w", err)
	}
	rn.retired += int64(len(rn.pair[rn.leader].term.Journal.Bytes()))
	rn.pair[rn.leader].term = nil
	rn.leader = 1 - rn.leader
	succ.term, succ.termBase = term, r.hosts[0].Consumed()
	r.decorate(succ)
	if rec != nil {
		t1 = tr.now()
		tr.record(spTakeover, 0, rec, t0, t1, 0)
	}
	if err := r.router.Reinstate(0, r.executor(succ)); err != nil {
		return fmt.Errorf("reinstate: %w", err)
	}
	if rec != nil {
		t2 = tr.now()
		tr.record(spReinstate, 0, rec, t1, t2, 0)
	}
	err = rn.publish(j)
	if rec != nil {
		tr.record(spPublish, 0, rec, t2, tr.now(), 0)
		rec.executing.Store(false)
	}
	return err
}

// deposedIsFenced checks that the controller just deposed can no longer
// publish: its next inject must fail typed core.ErrFenced.
func (rn *run) deposedIsFenced(j *shard.Job) error {
	old := rn.pair[1-rn.leader]
	_, err := old.flows[j.Nodes[0]].InjectExtension(j.Ext, j.Hook)
	if !errors.Is(err, core.ErrFenced) {
		return fmt.Errorf("deposed leader's publish to %s returned %v, want core.ErrFenced", j.Nodes[0], err)
	}
	return nil
}

// leaders returns the controller currently leading each shard.
func (rn *run) leaders() []*controller {
	if rn.workload == "failover" {
		return []*controller{rn.pair[rn.leader]}
	}
	return rn.rig.ctl
}

// verify checks, after the window, that what was acked is what runs: on
// every node, in the leader's books, and on the standby.
func (rn *run) verify() []error {
	var errs []error
	r := rn.rig
	fail := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }
	leaders := rn.leaders()
	ctx := make([]byte, xabi.CtxSize)
	for c := range rn.last {
		for tenant, j := range rn.last[c] {
			s, _ := r.router.ShardFor(tenant, hookName)
			ctl := leaders[s]
			targets := j.Nodes
			if len(targets) == 0 {
				targets = r.plan.nodesOf(s)
			}
			for _, name := range targets {
				cf := ctl.flows[name]
				_, _, version, err := cf.HookStats(hookName)
				if err != nil {
					fail("%s: hook stats: %v", name, err)
					continue
				}
				dv, ok := ctl.cp.DeployedVersion(cf.NodeKey(), hookName)
				if !ok || dv.Digest != j.Ext.Digest() || dv.Version != version {
					fail("%s: last acked %.12s, control plane has %.12s v%d, node hook at v%d",
						name, j.Ext.Digest(), dv.Digest, dv.Version, version)
				}
				want, ok := rn.in.verdict[j.Ext.Digest()]
				if !ok {
					continue
				}
				res, err := r.nodes[name].ExecHook(hookName, ctx, nil)
				if err != nil || res.Verdict != want {
					fail("%s: hook returned %d (%v), last acked generation returns %d", name, res.Verdict, err, want)
				}
			}
		}
	}
	// Acked means on the standby: Journal.append swallows replication
	// errors, so replay the standby's copy and compare it with the leader.
	for s, h := range r.hosts {
		if _, err := h.Pump(); err != nil {
			fail("shard %d: final pump: %v", s, err)
			continue
		}
		st, err := controlha.Replay(h.JournalBytes())
		if err != nil {
			fail("shard %d: standby journal replay: %v", s, err)
			continue
		}
		have := leaders[s].cp.DeployedVersions()
		if len(have) != len(st.Versions) {
			fail("shard %d: leader tracks %d deployed versions, standby journal %d", s, len(have), len(st.Versions))
		}
		for k, dv := range have {
			if got := st.Versions[controlha.Key{Node: k.Node, Hook: k.Hook}]; got != dv {
				fail("shard %d: %s/%s leader %+v, standby journal %+v", s, k.Node, k.Hook, dv, got)
			}
		}
	}
	if n := r.pumpErrs.Load(); n != 0 {
		fail("standby pump failed %d times (ring overrun)", n)
	}
	return errs
}

// lagBytes is what the leaders journaled this term that their standbys do
// not hold; call after verify's final pump.
func (rn *run) lagBytes() int64 {
	var lag int64
	for s, ctl := range rn.leaders() {
		lag += int64(len(ctl.term.Journal.Bytes())) - int64(rn.rig.hosts[s].Consumed()-ctl.termBase)
	}
	return lag
}
