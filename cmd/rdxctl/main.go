// Command rdxctl is the RDX control-plane CLI: it binds CodeFlows to
// running rdxd nodes over TCP and manages their extensions remotely.
//
// Usage:
//
//	rdxctl info    -node host:7700
//	rdxctl deploy  -node host:7700 -hook kv -udf 'len > 128 && proto != 3'
//	rdxctl deploy  -node host:7700 -hook ingress -synthetic 1300
//	rdxctl stats   -node host:7700 -hook kv
//	rdxctl stats   -http host:7702 [-trace 7]
//	rdxctl detach  -node host:7700 -hook kv
//	rdxctl bench   -node host:7700 -hook ingress -n 50 -synthetic 1300
//	rdxctl apply   -plan plan.rdx -nodes edge-1=host1:7700,edge-2=host2:7700
//	rdxctl broadcast -nodes edge-1=host1:7700,edge-2=host2:7700 -hook ingress -synthetic 1300 -trace 1
//	rdxctl stats   -ha -standby host:7800
//	rdxctl stats   -shards 8 -standby host:7800
//	rdxctl failover -standby host:7800 -nodes edge-1=host1:7700,... -lease-id 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/ebpf/progen"
	"rdx/internal/ext"
	"rdx/internal/node"
	"rdx/internal/orchestrator"
	"rdx/internal/pipeline"
	"rdx/internal/rdma"
	"rdx/internal/shard"
	"rdx/internal/telemetry"
	"rdx/internal/udf"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: rdxctl <command> [flags]

commands:
  info     show a node's architecture, hooks, GOT, and XState index
  deploy   validate, compile, link, and deploy an extension to a hook
  stats    read a hook's data-plane counters and the wire-verb registry;
           with -http, scrape a node's /metrics (and /trace with -trace);
           with -shards N, inspect N shard standby hosts on consecutive
           ports from -standby (lease, epoch, ring, journal per shard)
  detach   clear a hook's dispatch pointer (remote teardown)
  bench    deploy repeatedly and report injection latency
  apply    execute a declarative orchestration plan across nodes
  broadcast  deploy to a fleet through the injection scheduler
             (-trace 1 dumps the job's end-to-end trace afterwards)
  failover promote this controller: steal the HA lease on a standby host,
           replay the replicated deployment journal, and re-attach the fleet
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		nodeAddr  = fs.String("node", "127.0.0.1:7700", "rdxd RNIC address")
		hook      = fs.String("hook", "ingress", "target hook")
		udfSrc    = fs.String("udf", "", "UDF expression to deploy")
		synthetic = fs.Int("synthetic", 0, "deploy a synthetic eBPF program of N instructions")
		n         = fs.Int("n", 20, "bench repetitions")
		planFile  = fs.String("plan", "", "orchestration plan file (apply)")
		nodeList  = fs.String("nodes", "", "name=addr pairs for apply/broadcast, comma-separated")
		atomic    = fs.Bool("atomic", false, "broadcast: withhold every publish if any node fails to stage")
		reconnect = fs.Bool("reconnect", false, "redial on transport failure and replay idempotent verbs")
		timeout   = fs.Duration("timeout", 2*time.Second, "per-verb deadline (0 disables)")
		httpAddr  = fs.String("http", "", "stats: scrape a node's observability endpoint instead of its RNIC")
		traceSpec = fs.Bool("trace", false, "broadcast/stats: dump per-trace spans")
		ha        = fs.Bool("ha", false, "stats: read the HA witness and journal ring from -standby")
		shards    = fs.Int("shards", 0, "stats: inspect N shard standby hosts on consecutive ports from -standby")
		standby   = fs.String("standby", "", "HA standby host address (stats -ha/-shards, failover)")
		leaseID   = fs.Uint64("lease-id", 2, "controller ID to stamp into the HA lease (failover)")
		leaseTTL  = fs.Duration("ttl", 2*time.Second, "HA lease TTL (failover)")
	)
	fs.Parse(os.Args[2:])

	if cmd == "stats" && *shards > 0 {
		runShardStats(*standby, *shards, *timeout)
		return
	}
	if cmd == "stats" && *ha {
		runHAStats(*standby, *timeout)
		return
	}
	if cmd == "failover" {
		runFailover(*standby, *nodeList, *leaseID, *leaseTTL, *timeout)
		return
	}
	if cmd == "apply" {
		runApply(*planFile, *nodeList, *reconnect, *timeout)
		return
	}
	if cmd == "broadcast" {
		runBroadcast(*nodeList, *hook, buildExtension(*udfSrc, *synthetic), *atomic, *reconnect, *timeout, *traceSpec)
		return
	}
	if cmd == "stats" && *httpAddr != "" {
		runHTTPStats(*httpAddr, *traceSpec)
		return
	}

	cf, cp := mustConnect(*nodeAddr, *reconnect, *timeout)
	defer cf.Close()

	switch cmd {
	case "info":
		runInfo(cf)
	case "deploy":
		e := buildExtension(*udfSrc, *synthetic)
		rep, err := cf.InjectExtension(e, *hook)
		if err != nil {
			log.Fatalf("rdxctl: deploy: %v", err)
		}
		fmt.Printf("deployed %s to %s: version=%d blob=%#x total=%s (validate=%s compile=%s link=%s alloc=%s write=%s cacheHit=%v)\n",
			e.Name(), *hook, rep.Version, rep.Blob,
			telemetry.FormatDuration(rep.Total), telemetry.FormatDuration(rep.Validate),
			telemetry.FormatDuration(rep.Compile), telemetry.FormatDuration(rep.Link),
			telemetry.FormatDuration(rep.Alloc), telemetry.FormatDuration(rep.Write), rep.CacheHit)
	case "stats":
		execs, drops, version, err := cf.HookStats(*hook)
		if err != nil {
			log.Fatalf("rdxctl: stats: %v", err)
		}
		fmt.Printf("hook %s: execs=%d drops=%d version=%d\n", *hook, execs, drops, version)
		// The control plane's own registry: every verb this invocation issued
		// (MR discovery, control-block reads, the counter reads above) with
		// per-opcode counts and completion-latency percentiles.
		fmt.Println(cp.Registry.Snapshot().Table("control-plane wire registry").String())
	case "detach":
		hookAddr, err := cf.HookAddr(*hook)
		if err != nil {
			log.Fatalf("rdxctl: %v", err)
		}
		if err := cf.Tx(nil, core.QwordSwap{Addr: hookAddr + node.HookOffDispatch, New: 0}); err != nil {
			log.Fatalf("rdxctl: detach: %v", err)
		}
		fmt.Printf("hook %s detached (pass-through)\n", *hook)
	case "bench":
		runBench(cf, *hook, buildExtension(*udfSrc, *synthetic), *n)
	default:
		usage()
	}
}

func mustConnect(addr string, reconnect bool, timeout time.Duration) (*core.CodeFlow, *core.ControlPlane) {
	qp, err := dialVerbs(addr, reconnect, timeout)
	if err != nil {
		log.Fatalf("rdxctl: dial %s: %v", addr, err)
	}
	cp := core.NewControlPlane()
	cf, err := cp.CreateCodeFlowQP(qp)
	if err != nil {
		log.Fatalf("rdxctl: create codeflow: %v", err)
	}
	return cf, cp
}

// runHTTPStats scrapes a node's observability endpoint (rdxd -http): the
// /metrics registry snapshot, plus /trace when -trace is set.
func runHTTPStats(addr string, withTrace bool) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	var snap telemetry.RegistrySnapshot
	if err := fetchJSON(base+"/metrics", &snap); err != nil {
		log.Fatalf("rdxctl: stats: %v", err)
	}
	fmt.Println(snap.Table("node metrics (" + addr + ")").String())
	if withTrace {
		var evs []telemetry.TraceEvent
		if err := fetchJSON(base+"/trace", &evs); err != nil {
			log.Fatalf("rdxctl: trace: %v", err)
		}
		byTrace := map[telemetry.TraceID][]telemetry.TraceEvent{}
		var order []telemetry.TraceID
		for _, ev := range evs {
			if _, ok := byTrace[ev.Trace]; !ok {
				order = append(order, ev.Trace)
			}
			byTrace[ev.Trace] = append(byTrace[ev.Trace], ev)
		}
		for _, id := range order {
			fmt.Println(telemetry.TraceTable(id, byTrace[id]).String())
		}
	}
}

func fetchJSON(url string, into interface{}) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// dialVerbs opens the node's RNIC as either a plain QP (transport failures
// are fatal) or, with -reconnect, a ReconnQP that redials and replays
// idempotent verbs. Either way every verb gets the -timeout deadline so a
// dead node fails the verb with rdma.ErrTimeout instead of hanging the CLI.
func dialVerbs(addr string, reconnect bool, timeout time.Duration) (rdma.Verbs, error) {
	if timeout == 0 {
		timeout = -1 // ReconnConfig/SetTimeout treat <0 as "no deadline"
	}
	if reconnect {
		return rdma.NewReconnQP(rdma.ReconnConfig{
			Dial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
			VerbTimeout: timeout,
			Logf:        log.Printf,
		})
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	qp := rdma.NewQP(conn)
	if timeout > 0 {
		qp.SetTimeout(timeout)
	}
	return qp, nil
}

func buildExtension(udfSrc string, synthetic int) *ext.Extension {
	switch {
	case udfSrc != "":
		p, err := udf.New("cli-udf", udfSrc)
		if err != nil {
			log.Fatalf("rdxctl: %v", err)
		}
		return ext.FromUDF(p)
	case synthetic > 0:
		return ext.FromEBPF(progen.MustGenerate(progen.Options{
			Size: synthetic, Seed: time.Now().UnixNano() % 1000, WithHelpers: true,
		}))
	default:
		log.Fatal("rdxctl: specify -udf or -synthetic")
		return nil
	}
}

func runInfo(cf *core.CodeFlow) {
	fmt.Printf("node %#x, architecture %s\n", cf.NodeID, cf.Arch)
	got := cf.GOT()
	var hooks, helpers, others []string
	for sym := range got {
		switch {
		case strings.HasPrefix(sym, "hook:"):
			hooks = append(hooks, sym[5:])
		case strings.HasPrefix(sym, "helper:"):
			helpers = append(helpers, sym[7:])
		default:
			others = append(others, sym)
		}
	}
	sort.Strings(hooks)
	sort.Strings(helpers)
	sort.Strings(others)
	fmt.Printf("hooks:   %s\n", strings.Join(hooks, ", "))
	fmt.Printf("helpers: %s\n", strings.Join(helpers, ", "))
	fmt.Printf("context: %s\n", strings.Join(others, ", "))
	if xs, err := cf.ListXStates(); err == nil {
		fmt.Printf("xstates: %d deployed", len(xs))
		for _, addr := range xs {
			if v, err := cf.AttachXState(addr); err == nil {
				count, _ := v.Count()
				fmt.Printf("  [%#x %s k=%d v=%d n=%d]", addr, v.Type(), v.KeySize(), v.ValueSize(), count)
			}
		}
		fmt.Println()
	}
}

func runBench(cf *core.CodeFlow, hook string, e *ext.Extension, n int) {
	hist := telemetry.NewHistogram()
	var cacheHits int
	for i := 0; i < n; i++ {
		rep, err := cf.InjectExtension(e, hook)
		if err != nil {
			log.Fatalf("rdxctl: bench deploy %d: %v", i, err)
		}
		hist.RecordDuration(rep.Total)
		if rep.CacheHit {
			cacheHits++
		}
	}
	fmt.Printf("%d deploys of %s: %s (registry hits: %d)\n", n, e.Name(), hist.Summary(), cacheHits)
}

// runBroadcast deploys one extension to every listed node through the
// control plane's injection scheduler and prints the per-node outcomes plus
// the scheduler's per-stage span table. With trace, it also dumps the job's
// end-to-end span trace — every pipeline stage and every wire verb the job
// issued, correlated under the job's trace ID.
func runBroadcast(nodeList, hook string, e *ext.Extension, atomic, reconnect bool, timeout time.Duration, trace bool) {
	if nodeList == "" {
		log.Fatal("rdxctl: broadcast requires -nodes")
	}
	cp := core.NewControlPlane()
	var targets []pipeline.Target
	var names []string
	for _, pair := range strings.Split(nodeList, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			log.Fatalf("rdxctl: bad -nodes entry %q (want name=addr)", pair)
		}
		qp, err := dialVerbs(addr, reconnect, timeout)
		if err != nil {
			log.Fatalf("rdxctl: dial %s (%s): %v", addr, name, err)
		}
		cf, err := cp.CreateCodeFlowQP(qp)
		if err != nil {
			log.Fatalf("rdxctl: codeflow %s: %v", name, err)
		}
		defer cf.Close()
		targets = append(targets, cf)
		names = append(names, name)
	}

	res, err := cp.Scheduler().Inject(pipeline.Request{
		Ext: e, Hook: hook, Targets: targets, Atomic: atomic,
	})
	if err != nil {
		log.Fatalf("rdxctl: broadcast: %v", err)
	}
	for i, o := range res.Outcomes {
		status := fmt.Sprintf("version=%d", o.Version)
		if o.Err != nil {
			status = "FAILED: " + o.Err.Error()
		}
		fmt.Printf("%-16s attempts=%d latency=%s %s\n",
			names[i], o.Attempts, telemetry.FormatDuration(o.Latency), status)
	}
	fmt.Printf("published=%v failed=%d total=%s\n", res.Published, len(res.Failed()), telemetry.FormatDuration(res.Total))
	fmt.Println(cp.Scheduler().Stats().String())
	if trace {
		fmt.Println(telemetry.TraceTable(res.Trace, cp.Tracer.Trace(res.Trace)).String())
	}
	if !res.Published || res.FirstErr() != nil {
		os.Exit(1)
	}
}

// runHAStats reads a standby host's witness word and journal ring with
// one-sided verbs and prints the lease, ring, and replayed journal state.
func runHAStats(standbyAddr string, timeout time.Duration) {
	if standbyAddr == "" {
		log.Fatal("rdxctl: stats -ha requires -standby")
	}
	qp, err := dialVerbs(standbyAddr, false, timeout)
	if err != nil {
		log.Fatalf("rdxctl: dial standby %s: %v", standbyAddr, err)
	}
	st, err := controlha.Inspect(qp)
	if err != nil {
		log.Fatalf("rdxctl: ha stats: %v", err)
	}
	leaseState := "vacant"
	if st.Owner != 0 {
		leaseState = fmt.Sprintf("held by %#x", st.Owner)
		if !st.Expiry.IsZero() && time.Now().After(st.Expiry) {
			leaseState += " (expired)"
		} else if !st.Expiry.IsZero() {
			leaseState += fmt.Sprintf(" (expires in %s)", telemetry.FormatDuration(time.Until(st.Expiry)))
		}
	}
	fmt.Printf("lease: %s, fencing epoch %d\n", leaseState, st.Epoch)
	fmt.Printf("ring:  tail=%d hwm=%d cap=%d epoch=%d\n", st.RingTail, st.RingHwm, st.RingCap, st.RingEpoch)
	if st.ReplayErr != nil {
		fmt.Printf("journal: unreplayable: %v\n", st.ReplayErr)
		return
	}
	fmt.Printf("journal: %d entries, last seq %d, last fence %d\n",
		st.State.Entries, st.State.LastSeq, st.State.LastFence)
	var keys []controlha.Key
	for k := range st.State.Versions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Hook < keys[j].Hook
	})
	for _, k := range keys {
		dv := st.State.Versions[k]
		fmt.Printf("  node=%#x hook=%s version=%d digest=%.12s blob=%#x\n",
			k.Node, k.Hook, dv.Version, dv.Digest, dv.Blob)
	}
	for _, in := range st.State.Open {
		fmt.Printf("  OPEN intent: node=%#x hook=%s name=%s version=%d (staged, never published)\n",
			in.Node, in.Hook, in.Name, in.Version)
	}
}

// runShardStats inspects a sharded control plane: one witness+ring host
// per shard on consecutive ports from -standby (the rdxd -standby -shards
// layout), each read with one-sided verbs, rendered one row per shard. A
// dead or unreachable shard host gets an error row instead of aborting —
// per-shard failure isolation is the point of the deployment.
func runShardStats(standbyAddr string, shards int, timeout time.Duration) {
	if standbyAddr == "" {
		log.Fatal("rdxctl: stats -shards requires -standby")
	}
	addrs, err := shard.Addrs(standbyAddr, shards)
	if err != nil {
		log.Fatalf("rdxctl: stats -shards: %v", err)
	}
	tbl := telemetry.NewTable(
		fmt.Sprintf("sharded control plane — %d shard hosts from %s", shards, standbyAddr),
		"shard", "addr", "lease", "epoch", "ring hwm/cap", "journal", "deployments", "handoffs")
	for i, addr := range addrs {
		qp, err := dialVerbs(addr, false, timeout)
		if err != nil {
			tbl.AddRowf(fmt.Sprintf("%d", i), addr, "UNREACHABLE: "+err.Error(), "-", "-", "-", "-", "-")
			continue
		}
		st, err := controlha.Inspect(qp)
		if err != nil {
			tbl.AddRowf(fmt.Sprintf("%d", i), addr, "INSPECT FAILED: "+err.Error(), "-", "-", "-", "-", "-")
			continue
		}
		lease := "vacant"
		if st.Owner != 0 {
			lease = fmt.Sprintf("held by %#x", st.Owner)
			if !st.Expiry.IsZero() && time.Now().After(st.Expiry) {
				lease += " (expired)"
			}
		}
		journal := fmt.Sprintf("%d entries, seq %d", st.State.Entries, st.State.LastSeq)
		if st.ReplayErr != nil {
			journal = "unreplayable: " + st.ReplayErr.Error()
		}
		deploys := fmt.Sprintf("%d", len(st.State.Versions))
		if n := len(st.State.Open); n > 0 {
			deploys += fmt.Sprintf(" (+%d open intents)", n)
		}
		// Rebalance barrier markers in this shard's journal: how many times
		// the shard handed its key range off, and the ring epoch the most
		// recent handoff departed at.
		handoffs := "none"
		if st.State != nil && st.State.Handoffs > 0 {
			handoffs = fmt.Sprintf("%d (last ring epoch %d)", st.State.Handoffs, st.State.LastHandoffEpoch)
		}
		tbl.AddRowf(fmt.Sprintf("%d", i), addr, lease, fmt.Sprintf("%d", st.Epoch),
			fmt.Sprintf("%d/%d", st.RingHwm, st.RingCap), journal, deploys, handoffs)
	}
	fmt.Println(tbl.String())
}

// runFailover promotes this rdxctl invocation to fleet leader: steal the
// lease on the standby (fencing the previous controller out of every
// dispatch CAS), fetch and replay the replicated journal, and re-attach
// CodeFlows to the listed nodes so the reconstructed deployment state maps
// onto live fleet members.
func runFailover(standbyAddr, nodeList string, id uint64, ttl, timeout time.Duration) {
	if standbyAddr == "" {
		log.Fatal("rdxctl: failover requires -standby")
	}
	qp, err := dialVerbs(standbyAddr, false, timeout)
	if err != nil {
		log.Fatalf("rdxctl: dial standby %s: %v", standbyAddr, err)
	}
	cp := core.NewControlPlane()
	flows := map[string]*core.CodeFlow{}
	if nodeList != "" {
		for _, pair := range strings.Split(nodeList, ",") {
			name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				log.Fatalf("rdxctl: bad -nodes entry %q (want name=addr)", pair)
			}
			nqp, err := dialVerbs(addr, true, timeout)
			if err != nil {
				log.Fatalf("rdxctl: dial %s (%s): %v", addr, name, err)
			}
			cf, err := cp.CreateCodeFlowQP(nqp)
			if err != nil {
				log.Fatalf("rdxctl: codeflow %s: %v", name, err)
			}
			defer cf.Close()
			flows[name] = cf
		}
	}
	ldr, state, err := controlha.TakeOverRemote(cp, qp, id, ttl, flows)
	if err != nil {
		log.Fatalf("rdxctl: failover: %v", err)
	}
	fmt.Printf("failover complete: controller %#x leads at fencing epoch %d\n", id, ldr.Lease.Epoch())
	fmt.Printf("replayed %d journal entries (last seq %d): %d deployments across the fleet\n",
		state.Entries, state.LastSeq, len(state.Versions))
	for _, in := range state.Open {
		fmt.Printf("  interrupted: node=%#x hook=%s name=%s version=%d — re-drive with deploy/broadcast\n",
			in.Node, in.Hook, in.Name, in.Version)
	}
	ldr.Lease.StartRenewal()
	fmt.Println(cp.Registry.Snapshot().Table("failover wire registry").String())
}

func runApply(planFile, nodeList string, reconnect bool, timeout time.Duration) {
	if planFile == "" || nodeList == "" {
		log.Fatal("rdxctl: apply requires -plan and -nodes")
	}
	src, err := os.ReadFile(planFile)
	if err != nil {
		log.Fatalf("rdxctl: %v", err)
	}
	plan, err := orchestrator.Parse(string(src))
	if err != nil {
		log.Fatalf("rdxctl: %v", err)
	}
	cp := core.NewControlPlane()
	o := orchestrator.New(cp)
	for _, pair := range strings.Split(nodeList, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			log.Fatalf("rdxctl: bad -nodes entry %q (want name=addr)", pair)
		}
		qp, err := dialVerbs(addr, reconnect, timeout)
		if err != nil {
			log.Fatalf("rdxctl: dial %s (%s): %v", addr, name, err)
		}
		cf, err := cp.CreateCodeFlowQP(qp)
		if err != nil {
			log.Fatalf("rdxctl: codeflow %s: %v", name, err)
		}
		defer cf.Close()
		o.AddNode(name, cf)
	}
	res, err := o.Execute(plan)
	for _, sr := range res.Steps {
		status := "ok"
		if sr.Err != nil {
			status = "FAILED: " + sr.Err.Error()
		}
		fmt.Printf("line %d: %v hook=%s nodes=%v took=%s versions=%v %s\n",
			sr.Step.Line, stepName(sr.Step.Kind), sr.Step.Hook, sr.Step.Nodes,
			telemetry.FormatDuration(sr.Took), sr.Versions, status)
		for _, info := range sr.Info {
			fmt.Printf("  %s\n", info)
		}
	}
	if err != nil {
		log.Fatalf("rdxctl: %v", err)
	}
	fmt.Printf("plan applied in %s\n", telemetry.FormatDuration(res.Took))
}

func stepName(k orchestrator.StepKind) string {
	switch k {
	case orchestrator.StepDeploy:
		return "deploy"
	case orchestrator.StepLimit:
		return "limit"
	case orchestrator.StepRollback:
		return "rollback"
	case orchestrator.StepStatus:
		return "status"
	default:
		return "step"
	}
}
