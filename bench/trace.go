package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"rdx/internal/core"
	"rdx/internal/mem"
	"rdx/internal/native"
	"rdx/internal/rdma"
	"rdx/internal/shard"
	"rdx/internal/telemetry"
)

// The trace is recorded from outside the program: every span below wraps a
// call through one of the layers' public seams (shard.Executor,
// core.JournalSink, core.FenceCheck, rdma.Verbs), from this package only.

type spanKind uint8

const (
	spOp        spanKind = iota // root: what the client waited for (on failover, the outage)
	spPublish                   // failover: Router.Publish inside the outage
	spTakeover                  // failover: controlha.TakeOver
	spReinstate                 // failover: Router.Reinstate
	spExecute                   // shard.Executor.Execute
	spNodeVerb                  // one verb on a node link
	spStbyVerb                  // one verb on a standby link
	spSink                      // one core.JournalSink call
	spFence                     // one core.FenceCheck call
)

var spanNames = [...]string{
	spOp: "op", spPublish: "shard.publish", spTakeover: "controlha.takeover",
	spReinstate: "shard.reinstate", spExecute: "shard.execute",
	spNodeVerb: "rdma.node_verb", spStbyVerb: "rdma.standby_verb",
	spSink: "controlha.journal_sink", spFence: "controlha.fence",
}

// noCharge, as a verb's byte count, marks one the endpoint serves without a
// latency-model charge (QueryMRs, RotateMR).
const noCharge = -1

type span struct {
	start int64  // ns since the tracer's epoch
	dur   uint32 // ns; the longest span here is a takeover, milliseconds
	op    uint32 // 1-based op id, 0 = not attributed to an op
	aux   uint32 // verbs: bytes the latency model charged for
	kind  spanKind
	shard uint8
}

// opRec is a client's in-flight op as the decorators see it. Its plain
// fields are written before it is published in tracer.cur and never again: a
// decorator of another client's op may still be scanning a record after its
// op has ended, so records are not reused.
type opRec struct {
	id        uint32
	shard     int
	node      string // target node; "" when the job targets every node of the shard
	digest    string
	executing atomic.Bool  // inside Executor.Execute, or (failover) inside the outage
	inNode    atomic.Int32 // node-link verbs in flight
	lastNode  atomic.Int64 // when the latest node-link verb completed
	fenced    atomic.Bool  // a fence check has been attributed to it
}

// tenantRef is the client that publishes for a tenant and the shard the ring
// maps the tenant to.
type tenantRef struct{ client, shard int }

type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	spans   []span // preallocated; recording stops when full
	n       atomic.Int64
	nextOp  atomic.Uint32
	cur     []atomic.Pointer[opRec] // by client
	tenant  map[string]tenantRef    // who drives a tenant, and where it lives
	reports reportLog               // stage timings of single-node ops
	batches atomic.Int64
	batched atomic.Int64 // sub-verbs carried by those batches
}

// newTracer preallocates room for capacity spans and for the reports of
// ops single-node ops, so that recording allocates nothing.
func newTracer(clients, capacity, ops int) *tracer {
	return &tracer{
		epoch:   time.Now(),
		spans:   make([]span, capacity),
		cur:     make([]atomic.Pointer[opRec], clients),
		tenant:  map[string]tenantRef{},
		reports: reportLog{reps: make([]core.Report, ops)},
	}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) record(k spanKind, shardID int, op *opRec, start, end int64, aux uint32) {
	i := tr.n.Add(1) - 1
	if i >= int64(len(tr.spans)) {
		return
	}
	var id uint32
	if op != nil {
		id = op.id
	}
	tr.spans[i] = span{start: start, dur: uint32(end - start), op: id, aux: aux, kind: k, shard: uint8(shardID)}
}

// dropped reports how many spans did not fit the preallocated buffer.
func (tr *tracer) dropped() int64 {
	if d := tr.n.Load() - int64(len(tr.spans)); d > 0 {
		return d
	}
	return 0
}

// begin opens client c's next op in rec, a record no op has used.
func (tr *tracer) begin(c int, rec *opRec, j *shard.Job) {
	rec.id = tr.nextOp.Add(1)
	rec.shard = tr.tenant[j.Tenant].shard
	if len(j.Nodes) == 1 {
		rec.node = j.Nodes[0]
	}
	rec.digest = j.Ext.Digest()
	tr.cur[c].Store(rec)
}

// end closes the op and records its root span.
func (tr *tracer) end(c int, rec *opRec, start, end int64) {
	tr.cur[c].Store(nil)
	tr.record(spOp, rec.shard, rec, start, end, 0)
}

// attribute finds the op a decorated call belongs to. The seams carry no
// request identity, so the call is matched against the ops executing on its
// shard, narrowed by whatever it does carry: a node, a digest. That leaves
// one op, except for a fence check, which carries nothing.
func (tr *tracer) attribute(shardID int, node, digest string) *opRec {
	var hit *opRec
	for i := range tr.cur {
		op := tr.cur[i].Load()
		if op == nil || !op.executing.Load() || op.shard != shardID {
			continue
		}
		if node != "" && op.node != "" && op.node != node {
			continue
		}
		if digest != "" && op.digest != digest {
			continue
		}
		if hit == nil || op.fenceRank() > hit.fenceRank() ||
			(op.fenceRank() == hit.fenceRank() && op.lastNode.Load() > hit.lastNode.Load()) {
			hit = op
		}
	}
	return hit
}

// fenceRank orders the ops of one shard by how likely a fence check made now
// is theirs. Core checks the fence right after a node-link verb of the same
// op returns (the version FETCH-ADD, or the blob WRITE) and once per
// node-publish: so not an op with a node verb in flight, rather not one that
// has been checked already, and, by attribute's tie-break, the one whose last
// node verb completed most recently.
func (op *opRec) fenceRank() int {
	rank := 0
	if op.inNode.Load() == 0 {
		rank += 2
	}
	if !op.fenced.Load() {
		rank++
	}
	return rank
}

// tracedExecutor mirrors shard.CPExecutor.Execute: a single-node job takes
// the direct InjectExtension path (so the core.Report survives), a fleet
// job goes through the shard's scheduler via the real executor.
type tracedExecutor struct {
	tr    *tracer
	inner *shard.CPExecutor
	shard int
}

func (x *tracedExecutor) Execute(ctx context.Context, j *shard.Job) error {
	tr := x.tr
	if !tr.on.Load() {
		return x.inner.Execute(ctx, j)
	}
	var op *opRec
	if t, ok := tr.tenant[j.Tenant]; ok {
		op = tr.cur[t.client].Load()
	}
	if op == nil {
		return x.inner.Execute(ctx, j)
	}
	// On failover the whole outage executes on behalf of the op, and the
	// client has set the flag already; leave it as found.
	was := op.executing.Swap(true)
	t0 := tr.now()
	var err error
	if cf, ok := x.inner.Flows[op.node]; ok {
		var rep core.Report
		rep, err = cf.InjectExtension(j.Ext, j.Hook)
		if err == nil {
			tr.reports.add(rep)
		}
	} else {
		err = x.inner.Execute(ctx, j)
	}
	tr.record(spExecute, x.shard, op, t0, tr.now(), 0)
	op.executing.Store(was)
	return err
}

// reportLog keeps core.Report stage timings of single-node ops.
type reportLog struct {
	n    atomic.Int64
	reps []core.Report
}

func (l *reportLog) add(r core.Report) {
	if i := l.n.Add(1) - 1; i < int64(len(l.reps)) {
		l.reps[i] = r
	}
}

func (l *reportLog) all() []core.Report {
	n := l.n.Load()
	if n > int64(len(l.reps)) {
		n = int64(len(l.reps))
	}
	return l.reps[:n]
}

// tracedVerbs decorates one link. It forwards rdma.FrameReader and
// SetInstruments, so a traced run takes the same code paths (zero-copy
// reads, wire metrics) as an untraced one.
type tracedVerbs struct {
	tr    *tracer
	qp    *rdma.QP
	shard int
	node  string // "" on a standby link
}

func (tr *tracer) verbs(qp *rdma.QP, shardID int, node string) *tracedVerbs {
	return &tracedVerbs{tr: tr, qp: qp, shard: shardID, node: node}
}

// off is post's start time while spans are not being recorded.
const off = -1

// post notes a verb about to be issued and returns what done needs. A
// standby-link verb is left to its enclosing sink, fence or takeover span.
func (v *tracedVerbs) post() (*opRec, int64) {
	if !v.tr.on.Load() {
		return nil, off
	}
	var op *opRec
	if v.node != "" {
		if op = v.tr.attribute(v.shard, v.node, ""); op != nil {
			op.inNode.Add(1)
		}
	}
	return op, v.tr.now()
}

// done records the completed verb; bytes is what the latency model charged for.
func (v *tracedVerbs) done(op *opRec, t0 int64, bytes int) {
	if t0 == off {
		return
	}
	end := v.tr.now()
	kind := spStbyVerb
	if v.node != "" {
		kind = spNodeVerb
	}
	v.tr.record(kind, v.shard, op, t0, end, uint32(bytes))
	if op != nil {
		op.lastNode.Store(end)
		op.inNode.Add(-1)
	}
}

func (v *tracedVerbs) ReadCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) ([]byte, error) {
	op, t0 := v.post()
	b, err := v.qp.ReadCtx(ctx, rkey, addr, n)
	v.done(op, t0, n)
	return b, err
}

func (v *tracedVerbs) ReadFrameCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) (rdma.FrameView, error) {
	op, t0 := v.post()
	fv, err := v.qp.ReadFrameCtx(ctx, rkey, addr, n)
	v.done(op, t0, n)
	return fv, err
}

func (v *tracedVerbs) WriteCtx(ctx context.Context, rkey uint32, addr mem.Addr, data []byte) error {
	op, t0 := v.post()
	err := v.qp.WriteCtx(ctx, rkey, addr, data)
	v.done(op, t0, len(data))
	return err
}

func (v *tracedVerbs) WriteImmCtx(ctx context.Context, rkey uint32, addr mem.Addr, imm uint32, data []byte) error {
	op, t0 := v.post()
	err := v.qp.WriteImmCtx(ctx, rkey, addr, imm, data)
	v.done(op, t0, len(data))
	return err
}

func (v *tracedVerbs) WriteBatchCtx(ctx context.Context, ops []rdma.BatchOp) error {
	op, t0 := v.post()
	err := v.qp.WriteBatchCtx(ctx, ops)
	if t0 != off {
		total := 0
		for i := range ops {
			total += len(ops[i].Data)
		}
		v.tr.batches.Add(1)
		v.tr.batched.Add(int64(len(ops)))
		v.done(op, t0, total)
	}
	return err
}

func (v *tracedVerbs) CompareAndSwapCtx(ctx context.Context, rkey uint32, addr mem.Addr, old, new uint64) (uint64, error) {
	op, t0 := v.post()
	prev, err := v.qp.CompareAndSwapCtx(ctx, rkey, addr, old, new)
	v.done(op, t0, 0)
	return prev, err
}

func (v *tracedVerbs) FetchAddCtx(ctx context.Context, rkey uint32, addr mem.Addr, delta uint64) (uint64, error) {
	op, t0 := v.post()
	prev, err := v.qp.FetchAddCtx(ctx, rkey, addr, delta)
	v.done(op, t0, 0)
	return prev, err
}

func (v *tracedVerbs) ChainTriggerCtx(ctx context.Context, rkey uint32, addr mem.Addr, arg uint64) (rdma.ChainResult, error) {
	op, t0 := v.post()
	res, err := v.qp.ChainTriggerCtx(ctx, rkey, addr, arg)
	v.done(op, t0, 8)
	return res, err
}

func (v *tracedVerbs) RotateMRCtx(ctx context.Context, name string) (uint32, error) {
	op, t0 := v.post()
	rkey, err := v.qp.RotateMRCtx(ctx, name)
	v.done(op, t0, noCharge)
	return rkey, err
}

func (v *tracedVerbs) QueryMRs() ([]rdma.MR, error) {
	op, t0 := v.post()
	mrs, err := v.qp.QueryMRs()
	v.done(op, t0, noCharge)
	return mrs, err
}

func (v *tracedVerbs) SetInstruments(m *rdma.WireMetrics, t *telemetry.TraceRecorder, node string) {
	v.qp.SetInstruments(m, t, node)
}

func (v *tracedVerbs) Close() error { return v.qp.Close() }

var (
	_ rdma.Verbs       = (*tracedVerbs)(nil)
	_ rdma.FrameReader = (*tracedVerbs)(nil)
)

// tracedSink decorates a control plane's journal sink: one span per call.
type tracedSink struct {
	tr    *tracer
	inner core.JournalSink
	shard int
	key   map[string]string // NodeKey -> node name
}

func (tr *tracer) sink(inner core.JournalSink, shardID int, key map[string]string) *tracedSink {
	return &tracedSink{tr: tr, inner: inner, shard: shardID, key: key}
}

// start returns when a sink call began, or off.
func (s *tracedSink) start() int64 {
	if !s.tr.on.Load() {
		return off
	}
	return s.tr.now()
}

// span records the sink call that began at t0, claimed by node or digest.
func (s *tracedSink) span(t0 int64, nodeKey, digest string) {
	if t0 != off {
		s.tr.record(spSink, s.shard, s.tr.attribute(s.shard, s.key[nodeKey], digest), t0, s.tr.now(), 0)
	}
}

func (s *tracedSink) JournalValidate(digest string) {
	t0 := s.start()
	s.inner.JournalValidate(digest)
	s.span(t0, "", digest)
}

func (s *tracedSink) JournalCompile(digest string, arch native.Arch) {
	t0 := s.start()
	s.inner.JournalCompile(digest, arch)
	s.span(t0, "", digest)
}

func (s *tracedSink) JournalStage(node, hook, name, digest string, version, blob uint64) {
	t0 := s.start()
	s.inner.JournalStage(node, hook, name, digest, version, blob)
	s.span(t0, node, digest)
}

func (s *tracedSink) JournalPublish(node, hook string, d core.Deployed) {
	t0 := s.start()
	s.inner.JournalPublish(node, hook, d)
	s.span(t0, node, d.Digest)
}

func (s *tracedSink) JournalRollback(node, hook string, to core.Deployed) {
	t0 := s.start()
	s.inner.JournalRollback(node, hook, to)
	s.span(t0, node, "")
}

func (s *tracedSink) JournalClaim(node string, blob uint64) {
	t0 := s.start()
	s.inner.JournalClaim(node, blob)
	s.span(t0, node, "")
}

func (s *tracedSink) JournalReclaim(node string, wrapEpoch uint64) {
	t0 := s.start()
	s.inner.JournalReclaim(node, wrapEpoch)
	s.span(t0, node, "")
}

func (s *tracedSink) JournalHandoff(ringEpoch uint64) error {
	t0 := s.start()
	err := s.inner.JournalHandoff(ringEpoch)
	s.span(t0, "", "")
	return err
}

// fence decorates a leader's core.FenceCheck: one span per check.
func (tr *tracer) fence(inner core.FenceCheck, shardID int) core.FenceCheck {
	return func() error {
		if !tr.on.Load() {
			return inner()
		}
		// Attributed on entry: by the time the check returns, another op of
		// the shard may be the one that last completed a node verb.
		op, t0 := tr.attribute(shardID, "", ""), tr.now()
		if op != nil {
			op.fenced.Store(true)
		}
		err := inner()
		tr.record(spFence, shardID, op, t0, tr.now(), 0)
		return err
	}
}

// recorded returns the spans that fit the buffer, in completion order.
func (tr *tracer) recorded() []span {
	n := tr.n.Load()
	if n > int64(len(tr.spans)) {
		n = int64(len(tr.spans))
	}
	return tr.spans[:n]
}

// byOp groups recorded spans by op: the spans of op id are
// idx[off[id]:off[id+1]] (positions into spans); op 0 is the unattributed set.
func byOp(spans []span, ops int) (idx []int32, off []int32) {
	off = make([]int32, ops+2)
	for i := range spans {
		off[spans[i].op+1]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	idx = make([]int32, len(spans))
	next := append([]int32(nil), off[:ops+1]...)
	for i := range spans {
		o := spans[i].op
		idx[next[o]] = int32(i)
		next[o]++
	}
	return idx, off
}

// covered returns how much of [lo, hi) the spans at positions kids cover
// (their union, clipped): a parent's self time is its length minus this.
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
	var sum int64
	at := lo
	for _, k := range kids {
		s, e := spans[k].start, spans[k].start+int64(spans[k].dur)
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}

// writeTrace writes every recorded span as one JSON line:
// {id, name, op_id, parent, start_ns, end_ns}. parent is the id of the
// enclosing span, -1 for a root. A standby-link verb has no identity of its
// own: its parent is the tightest sink, fence or takeover span of its shard
// that contains it, and it takes that span's op.
func (tr *tracer) writeTrace(path string) error {
	spans := tr.recorded()
	ops := int(tr.nextOp.Load())
	idx, off := byOp(spans, ops)
	end := func(i int32) int64 { return spans[i].start + int64(spans[i].dur) }
	inside := func(in, out int32) bool {
		return out >= 0 && spans[out].start <= spans[in].start && end(in) <= end(out)
	}
	parent := make([]int32, len(spans))
	for i := range parent {
		parent[i] = -1
	}
	for op := 1; op <= ops; op++ {
		mine := idx[off[op]:off[op+1]]
		root, pub, exec := int32(-1), int32(-1), int32(-1)
		for _, i := range mine {
			switch spans[i].kind {
			case spOp:
				root = i
			case spPublish:
				pub = i
			case spExecute:
				exec = i
			}
		}
		for _, i := range mine {
			switch k := spans[i].kind; {
			case k == spOp:
			case k == spExecute && pub >= 0:
				parent[i] = pub
			case k == spNodeVerb || k == spSink || k == spFence:
				parent[i] = root
				if inside(i, exec) {
					parent[i] = exec
				}
			default:
				parent[i] = root
			}
		}
	}
	// Holders, by shard, in start order; longest bounds the backward scan.
	var holders [256][]int32
	var longest int64
	for i := range spans {
		if k := spans[i].kind; k == spSink || k == spFence || k == spTakeover {
			holders[spans[i].shard] = append(holders[spans[i].shard], int32(i))
			longest = max(longest, int64(spans[i].dur))
		}
	}
	opOf := make([]uint32, len(spans))
	for i := range spans {
		opOf[i] = spans[i].op
	}
	for sh := range holders {
		h := holders[sh]
		sort.Slice(h, func(a, b int) bool { return spans[h[a]].start < spans[h[b]].start })
		for i := range spans {
			if spans[i].kind != spStbyVerb || int(spans[i].shard) != sh {
				continue
			}
			at := sort.Search(len(h), func(k int) bool { return spans[h[k]].start > spans[i].start })
			best := int32(-1)
			for k := at - 1; k >= 0 && spans[h[k]].start >= spans[i].start-longest; k-- {
				if inside(int32(i), h[k]) && (best < 0 || spans[h[k]].dur < spans[best].dur) {
					best = h[k]
				}
			}
			if best >= 0 {
				parent[i], opOf[i] = best, spans[best].op
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"op_id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, spanNames[s.kind], opOf[i], parent[i], s.start, s.start+int64(s.dur))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
