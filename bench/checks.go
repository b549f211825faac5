package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// journalBytes is how many bytes the shards' leaders have journaled: the
// current terms' journals plus (failover) those of the terms already ended.
func (rn *run) journalBytes() int64 {
	n := rn.retired
	for _, ctl := range rn.leaders() {
		n += int64(len(ctl.term.Journal.Bytes()))
	}
	return n
}

// resetHistograms clears the registry histograms the per-layer metrics read,
// so that they describe the traced window only.
func (rn *run) resetHistograms() {
	reg := rn.rig.reg
	for s := range rn.rig.hosts {
		reg.Histogram(fmt.Sprintf("shard.%d.queue.wait", s)).Reset()
	}
	for _, name := range []string{"queue", "stage_fanout", "publish", "total"} {
		reg.Histogram("pipeline.span." + name).Reset()
	}
	reg.Histogram("rdma.wire.frames_per_poll").Reset()
}

// identity asserts that the window did the work its workload is defined by,
// from the registry's counters; st and m add the trace's view on a traced run.
func (rn *run) identity(w *window, st *spanStats, m map[string]float64) []error {
	var errs []error
	ops := float64(w.acked())
	exact := func(what string, got, want float64) {
		if got != want {
			errs = append(errs, fmt.Errorf("%s: %s is %.0f over %.0f ops, want exactly %.0f", rn.workload, what, got, ops, want))
		}
	}
	entries := w.delta("controlha.journal.appended")
	compiles := w.delta("artifact.compile.invocations")
	deltas, fallbacks := w.delta("artifact.delta.count"), w.delta("artifact.delta.fallback")
	exact("refused or refunded admissions", w.deltaSum("", "shard.admission.rejected.", "shard.admission.refunded"), 0)
	exact("journal replication errors", w.delta("controlha.journal.replication_errors"), 0)
	exact("journal bytes missing on the standby", float64(rn.lagBytes()), 0)
	switch rn.workload {
	case "flip":
		// The commit-only path: version FETCH-ADD, version WRITE, dispatch
		// READ + CAS, cc_event on the node; fence READ and the 4-verb
		// append on the standby; one journal entry; no compiler.
		exact("journal entries", entries, ops)
		exact("node-link verbs", w.nodeVerbs(), 5*ops)
		exact("standby-link verbs", w.standbyVerbs(), 5*ops)
		exact("compiles", compiles, 0)
	case "cold":
		exact("compiles", compiles, ops)
		exact("delta stages", deltas+fallbacks, 0)
		if entries < 3*ops {
			errs = append(errs, fmt.Errorf("cold: %.0f journal entries over %.0f ops, want validate+compile+publish each", entries, ops))
		}
	case "rollout":
		exact("compiles", compiles, 0)
		exact("artifact evictions", w.delta("artifact.cache.evictions"), 0)
		exact("delta stages", deltas, ops*float64(len(rn.rig.plan.nodes)/len(rn.rig.hosts)))
		exact("delta fallbacks", fallbacks, 0)
	case "failover":
		exact("compiles", compiles, 0)
	}
	if st == nil {
		return errs
	}
	switch rn.workload {
	case "flip", "failover":
		if m["core.resident_ratio"] < 0.99 {
			errs = append(errs, fmt.Errorf("%s: resident ratio %.3f, every op should be commit-only", rn.workload, m["core.resident_ratio"]))
		}
	case "cold":
		exact("commit-only ops", m["core.resident_ratio"], 0)
	}
	if rn.workload != "failover" {
		// Failover's fencing check runs the deposed leader outside any op.
		exact("decorated calls no op claimed", float64(st.stray), 0)
		if rn.rig.tr.dropped() == 0 {
			exact("node-link verbs the decorator saw", float64(st.nodeVerbs), w.nodeVerbs())
		}
	}
	return errs
}

// closure checks on flip that the trace accounts for the median op. An
// op's parts add up to it by construction once every decorated call has an
// owner (identity checks that), so what can still fail is the decomposition
// at the median: take the ops in the middle tenth by latency, and the
// medians of their parts must add up to op_p50 within a tenth. Each part's
// own median over all ops (what the metrics report) is printed beside it:
// with two clients the parts of one op are slow together, so those do not
// add up, and are not expected to.
func (rn *run) closure(w *window, st *spanStats, m map[string]float64, inf *info) []error {
	if rn.workload != "flip" {
		return nil
	}
	ops := append([]opParts(nil), st.ops...)
	sort.Slice(ops, func(a, b int) bool { return ops[a].total < ops[b].total })
	mid := &spanStats{ops: ops[len(ops)*45/100 : len(ops)*55/100+1]}
	var sum float64
	text := "trace closure, parts of the median op (45th-55th percentile):"
	for _, part := range []struct {
		name string
		f    func(*opParts) float64
	}{
		{"shard.overhead", func(o *opParts) float64 { return o.overhead }},
		{"core.self", func(o *opParts) float64 { return o.self }},
		{"controlha.fence", func(o *opParts) float64 { return o.fence }},
		{"controlha.append", func(o *opParts) float64 { return o.sink }},
		{"rdma.node_link", func(o *opParts) float64 { return o.node }},
	} {
		v := median(mid.part(part.f))
		sum += v
		text += fmt.Sprintf(" %s %.1f +", part.name, v)
	}
	whole := quantile(w.lat, 0.5) / 1e3
	own := m["shard.overhead_us"] + m["core.self_us"] + m["controlha.fence_us"] + m["controlha.append_us"] + m["rdma.node_link_us"]
	inf.Notes = append(inf.Notes, fmt.Sprintf("%s = %.1f us against a traced op_p50 of %.1f us; the parts' own medians add up to %.1f us",
		strings.TrimSuffix(text, " +"), sum, whole, own))
	if math.Abs(sum-whole) > 0.1*whole {
		return []error{fmt.Errorf("flip: the trace does not close: the median op's parts add up to %.1f us, traced op_p50 is %.1f us", sum, whole)}
	}
	return nil
}
