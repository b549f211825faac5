package main

import (
	"fmt"
	"sort"
	"time"

	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units; the smoke test holds the two together.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"ops_per_s", "1/s"},
	{"retained_bytes_per_op", "B"},
}

var perLayer = []metricDef{
	{"shard.overhead_us", "us"},
	{"shard.queue_wait_us_p99", "us"},
	{"shard.rejected", "count"},
	{"core.validate_us", "us"},
	{"core.compile_us", "us"},
	{"core.alloc_us", "us"},
	{"core.link_us", "us"},
	{"core.write_us", "us"},
	{"core.commit_us", "us"},
	{"core.resident_ratio", "ratio"},
	{"core.delta_written_ratio", "ratio"},
	{"core.delta_fallback_ratio", "ratio"},
	{"core.self_us", "us"},
	{"pipeline.queue_us", "us"},
	{"pipeline.stage_us", "us"},
	{"pipeline.publish_us", "us"},
	{"pipeline.total_us", "us"},
	{"pipeline.prepare_hit_ratio", "ratio"},
	{"pipeline.retries_per_op", "count"},
	{"artifact.hit_ratio", "ratio"},
	{"artifact.compiles_per_op", "count"},
	{"artifact.evictions_per_op", "count"},
	{"ebpf.verify_ns_per_insn", "ns"},
	{"ebpf.jit_ns_per_insn", "ns"},
	{"native.link_us", "us"},
	{"controlha.entries_per_op", "count"},
	{"controlha.append_us", "us"},
	{"controlha.journal_share", "ratio"},
	{"controlha.fence_us", "us"},
	{"controlha.standby_verbs_per_op", "count"},
	{"controlha.standby_bytes_per_op", "B"},
	{"controlha.replication_errors", "count"},
	{"controlha.lag_bytes_end", "B"},
	{"controlha.leader_journal_bytes_per_op", "B"},
	{"controlha.takeover_us", "us"},
	{"controlha.reinstate_publish_us", "us"},
	{"controlha.replay_us_per_kentry", "us"},
	{"controlha.predial_us_per_node", "us"},
	{"rdma.node_verbs_per_op", "count"},
	{"rdma.node_bytes_per_op", "B"},
	{"rdma.node_link_us", "us"},
	{"rdma.modeled_us_per_op", "us"},
	{"rdma.verb_overhead_us", "us"},
	{"rdma.batch_ops_per_batch", "count"},
	{"rdma.frames_per_poll", "count"},
	{"rdma.pool_hit_ratio", "ratio"},
	{"rdma.write128_rtt_us", "us"},
	{"rdma.write128_allocs", "count"},
	{"verbchain.trigger_us", "us"},
	{"node.exec_ns", "ns"},
	{"node.exec_under_load_ns", "ns"},
	{"node.bad_verdicts", "count"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.gc_cpu_fraction", "ratio"},
	{"proc.peak_rss_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
	{"fail_ratio", "ratio"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// opParts is one traced op taken apart, in µs. The parts add up to total:
// self is what is left of the executor's span once the decorated calls made
// inside it are taken out, overhead what is left of the publish call once
// the executor's span is.
type opParts struct {
	total, overhead, self, fence, sink, node float64
}

// spanStats is what the recorded spans say about the traced window.
type spanStats struct {
	ops                       []opParts // ops that reached an executor
	sink, fence, verbOverhead []float64 // per call, µs
	takeover, reinstatePub    []float64 // per op, µs (failover)
	opNS, sinkNS, modeledNS   int64
	nodeVerbs, nodeBytes      int64 // node-link verbs claimed by an op
	stray                     int64 // node-link verbs, sink and fence calls no op claimed
}

// part extracts one field of every op, for a median.
func (st *spanStats) part(f func(*opParts) float64) []float64 {
	out := make([]float64, len(st.ops))
	for i := range st.ops {
		out[i] = f(&st.ops[i])
	}
	return out
}

// analyse decomposes every op whose root span was recorded. The root is the
// last span an op records, so its presence means the op's spans are all there.
func analyse(tr *tracer) *spanStats {
	spans := tr.recorded()
	ops := int(tr.nextOp.Load())
	idx, off := byOp(spans, ops)
	model := rdma.DefaultLatency()
	st := &spanStats{}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for i := range spans {
		s := &spans[i]
		if s.op == 0 && (s.kind == spNodeVerb || s.kind == spSink || s.kind == spFence) {
			st.stray++
		}
		switch s.kind {
		case spOp:
			st.opNS += int64(s.dur)
		case spSink:
			st.sinkNS += int64(s.dur)
			st.sink = append(st.sink, us(int64(s.dur)))
		case spFence:
			st.fence = append(st.fence, us(int64(s.dur)))
		case spTakeover:
			st.takeover = append(st.takeover, us(int64(s.dur)))
		case spNodeVerb, spStbyVerb:
			if int32(s.aux) == noCharge {
				continue
			}
			m := int64(model.Duration(int(s.aux)))
			st.modeledNS += m
			st.verbOverhead = append(st.verbOverhead, us(int64(s.dur)-m))
			if s.kind == spNodeVerb && s.op != 0 {
				st.nodeVerbs++
				st.nodeBytes += int64(s.aux)
			}
		}
	}
	var kids []int32
	for op := 1; op <= ops; op++ {
		root, pub, exec, reinst := int32(-1), int32(-1), int32(-1), int32(-1)
		kids = kids[:0]
		var parts opParts
		for _, i := range idx[off[op]:off[op+1]] {
			d := us(int64(spans[i].dur))
			switch spans[i].kind {
			case spOp:
				root = i
			case spPublish:
				pub = i
			case spExecute:
				exec = i
			case spReinstate:
				reinst = i
			case spNodeVerb:
				parts.node += d
				kids = append(kids, i)
			case spSink:
				parts.sink += d
				kids = append(kids, i)
			case spFence:
				parts.fence += d
				kids = append(kids, i)
			}
		}
		if root < 0 || exec < 0 {
			continue
		}
		// On failover the publish is one step of the outage.
		call := root
		if pub >= 0 {
			call = pub
			st.reinstatePub = append(st.reinstatePub, us(int64(spans[reinst].dur)+int64(spans[pub].dur)))
		}
		lo := spans[exec].start
		hi := lo + int64(spans[exec].dur)
		parts.total = us(int64(spans[call].dur))
		parts.overhead = parts.total - us(hi-lo)
		parts.self = us(hi - lo - covered(spans, kids, lo, hi))
		st.ops = append(st.ops, parts)
	}
	return st
}

// layers computes every per-layer metric of a traced run: ref is the
// window measured with recording off, w the one with it on.
func (rn *run) layers(ref, w *window, st *spanStats, pr *probe, cal *calibration, journaled int64) map[string]float64 {
	r, tr := rn.rig, rn.rig.tr
	ops := float64(w.acked())
	m := map[string]float64{}

	m["shard.overhead_us"] = median(st.part(func(o *opParts) float64 { return o.overhead }))
	wait := telemetry.NewHistogram()
	for s := range r.hosts {
		wait.Merge(r.reg.Histogram(fmt.Sprintf("shard.%d.queue.wait", s)))
	}
	m["shard.queue_wait_us_p99"] = float64(wait.Percentile(99)) / 1e3
	m["shard.rejected"] = w.deltaSum("", "shard.admission.rejected.", "shard.admission.refunded")

	var val, comp, alloc, link, write, commit []float64
	resident := 0
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, rep := range tr.reports.all() {
		val = append(val, us(rep.Validate))
		comp = append(comp, us(rep.Compile))
		alloc = append(alloc, us(rep.Alloc))
		link = append(link, us(rep.Link))
		write = append(write, us(rep.Write))
		commit = append(commit, us(rep.Commit))
		if rep.Commit > 0 && rep.Write == 0 {
			resident++
		}
	}
	m["core.validate_us"] = median(val)
	m["core.compile_us"] = median(comp)
	m["core.alloc_us"] = median(alloc)
	m["core.link_us"] = median(link)
	m["core.write_us"] = median(write)
	m["core.commit_us"] = median(commit)
	m["core.resident_ratio"] = ratio(float64(resident), float64(len(val)))
	// Of the images staged through the scheduler: the share of their bytes
	// that crossed the wire, and the share of stages that gave up on the
	// delta. Both are 0 where nothing is staged that way (single-node ops
	// deploy into fresh ring space; flip stages nothing at all).
	written, saved := w.delta("artifact.delta.bytes_written"), w.delta("artifact.delta.bytes_saved")
	deltas, fallbacks := w.delta("artifact.delta.count"), w.delta("artifact.delta.fallback")
	m["core.delta_written_ratio"] = ratio(written, written+saved)
	m["core.delta_fallback_ratio"] = ratio(fallbacks, fallbacks+deltas)
	m["core.self_us"] = median(st.part(func(o *opParts) float64 { return o.self }))

	m["pipeline.queue_us"] = meanUS(r.reg.Histogram("pipeline.span.queue"))
	m["pipeline.stage_us"] = meanUS(r.reg.Histogram("pipeline.span.stage_fanout"))
	m["pipeline.publish_us"] = meanUS(r.reg.Histogram("pipeline.span.publish"))
	m["pipeline.total_us"] = meanUS(r.reg.Histogram("pipeline.span.total"))
	hits := w.delta("pipeline.prepare_hits")
	m["pipeline.prepare_hit_ratio"] = ratio(hits, hits+w.delta("pipeline.prepare_misses"))
	m["pipeline.retries_per_op"] = ratio(w.delta("pipeline.retries"), ops)

	ahit := w.delta("artifact.cache.hit")
	m["artifact.hit_ratio"] = ratio(ahit, ahit+w.delta("artifact.cache.miss"))
	m["artifact.compiles_per_op"] = ratio(w.delta("artifact.compile.invocations"), ops)
	m["artifact.evictions_per_op"] = ratio(w.delta("artifact.cache.evictions"), ops)
	m["ebpf.verify_ns_per_insn"] = cal.verifyNSPerInsn
	m["ebpf.jit_ns_per_insn"] = cal.jitNSPerInsn
	m["native.link_us"] = cal.linkUS

	m["controlha.entries_per_op"] = ratio(w.delta("controlha.journal.appended"), ops)
	m["controlha.append_us"] = median(st.sink)
	m["controlha.journal_share"] = ratio(float64(st.sinkNS), float64(st.opNS))
	m["controlha.fence_us"] = median(st.fence)
	m["controlha.standby_verbs_per_op"] = ratio(w.standbyVerbs(), ops)
	m["controlha.standby_bytes_per_op"] = ratio(w.deltaSum(".bytes_", "rdma.qp.stby"), ops)
	m["controlha.replication_errors"] = w.delta("controlha.journal.replication_errors")
	m["controlha.lag_bytes_end"] = float64(rn.lagBytes())
	m["controlha.leader_journal_bytes_per_op"] = ratio(float64(journaled), ops)
	m["controlha.takeover_us"] = median(st.takeover)
	m["controlha.reinstate_publish_us"] = median(st.reinstatePub)
	m["controlha.replay_us_per_kentry"] = cal.replayUSPerKEntry
	m["controlha.predial_us_per_node"] = ratio(float64(r.dialDur.Microseconds()), float64(r.dials))

	m["rdma.node_verbs_per_op"] = ratio(float64(st.nodeVerbs), ops)
	m["rdma.node_bytes_per_op"] = ratio(float64(st.nodeBytes), ops)
	m["rdma.node_link_us"] = median(st.part(func(o *opParts) float64 { return o.node }))
	m["rdma.modeled_us_per_op"] = ratio(float64(st.modeledNS)/1e3, ops)
	m["rdma.verb_overhead_us"] = median(st.verbOverhead)
	m["rdma.batch_ops_per_batch"] = ratio(float64(tr.batched.Load()), float64(tr.batches.Load()))
	m["rdma.frames_per_poll"] = r.reg.Histogram("rdma.wire.frames_per_poll").Mean()
	phit := w.delta("rdma.wire.pool.hits")
	m["rdma.pool_hit_ratio"] = ratio(phit, phit+w.delta("rdma.wire.pool.misses"))
	m["rdma.write128_rtt_us"] = cal.write128US
	m["rdma.write128_allocs"] = cal.write128Allocs
	m["verbchain.trigger_us"] = cal.chainTriggerUS

	m["node.exec_ns"] = cal.execNS
	sort.Float64s(pr.ns)
	m["node.exec_under_load_ns"] = quantile(pr.ns, 0.5)
	m["node.bad_verdicts"] = float64(pr.bad)

	m["proc.allocs_per_op"] = ratio(float64(w.proc1.mallocs-w.proc0.mallocs), ops)
	m["proc.alloc_bytes_per_op"] = ratio(float64(w.proc1.allocBytes-w.proc0.allocBytes), ops)
	m["proc.cpu_us_per_op"] = ratio(float64((w.proc1.cpu - w.proc0.cpu).Microseconds()), ops)
	m["proc.gc_cpu_fraction"] = ratio(w.proc1.gcCPU-w.proc0.gcCPU, w.proc1.totalCPU-w.proc0.totalCPU)
	m["proc.peak_rss_mb"] = float64(w.proc1.maxRSSKB) / 1024

	m["trace.overhead_ratio"] = ratio(rn.opsPerSec(w), rn.opsPerSec(ref))
	m["fail_ratio"] = ratio(float64(w.failed), float64(w.attempted))
	return m
}
