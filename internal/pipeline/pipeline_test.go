package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdx/internal/ebpf"
	"rdx/internal/ext"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// newScheduler builds a scheduler on a private registry, returned with it.
func newScheduler() (*Scheduler, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	return New(reg, nil), reg
}

// withFanOut shrinks s's fan-out to n.
func withFanOut(s *Scheduler, n int) *Scheduler {
	s.nodeSem = make(chan struct{}, n)
	return s
}

// failed returns the outcomes that carry errors.
func failed(res *Result) []Outcome {
	var out []Outcome
	for _, o := range res.Outcomes {
		if o.Err != nil {
			out = append(out, o)
		}
	}
	return out
}

// constExt builds a tiny distinct extension per verdict value.
func constExt(v int32) *ext.Extension {
	return ext.FromEBPF(ebpf.NewProgram(fmt.Sprintf("p%d", v), ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, v),
		ebpf.Exit(),
	}))
}

// fakeTarget simulates one node. stageErrs is consumed one error per stage
// attempt (nil entries succeed); publishErr fails every publish.
type fakeTarget struct {
	key        string
	stageDelay time.Duration
	publishErr error

	mu        sync.Mutex
	stageErrs []error
	attempts  int
	published int
	aborted   int
	nextVer   uint64
}

func (f *fakeTarget) NodeKey() string { return f.key }

func (f *fakeTarget) Stage(ctx context.Context, e *ext.Extension, hook string) (Staged, error) {
	if f.stageDelay > 0 {
		time.Sleep(f.stageDelay)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts++
	if len(f.stageErrs) > 0 {
		err := f.stageErrs[0]
		f.stageErrs = f.stageErrs[1:]
		if err != nil {
			return nil, err
		}
	}
	f.nextVer++
	return &fakeStaged{t: f, ver: f.nextVer}, nil
}

type fakeStaged struct {
	t   *fakeTarget
	ver uint64
}

func (s *fakeStaged) Publish(context.Context) error {
	if s.t.publishErr != nil {
		return s.t.publishErr
	}
	s.t.mu.Lock()
	s.t.published++
	s.t.mu.Unlock()
	return nil
}
func (s *fakeStaged) Abort() {
	s.t.mu.Lock()
	s.t.aborted++
	s.t.mu.Unlock()
}
func (s *fakeStaged) Version() uint64              { return s.ver }
func (s *fakeStaged) LinkDuration() time.Duration  { return time.Microsecond }
func (s *fakeStaged) WriteDuration() time.Duration { return 2 * time.Microsecond }

func targetsOf(fakes ...*fakeTarget) []Target {
	out := make([]Target, len(fakes))
	for i, f := range fakes {
		out[i] = f
	}
	return out
}

func TestInjectFleetHappyPath(t *testing.T) {
	var fakes []*fakeTarget
	for i := 0; i < 8; i++ {
		fakes = append(fakes, &fakeTarget{key: fmt.Sprintf("n%d", i)})
	}
	s, reg := newScheduler()
	res, err := s.Inject(Request{Ext: constExt(1), Hook: "h", Targets: targetsOf(fakes...)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published || res.FirstErr() != nil {
		t.Fatalf("result = %+v firstErr=%v", res, res.FirstErr())
	}
	for i, f := range fakes {
		if f.published != 1 {
			t.Errorf("node %d published %d times", i, f.published)
		}
		if res.Outcomes[i].Version == 0 || res.Outcomes[i].Attempts != 1 {
			t.Errorf("outcome %d = %+v", i, res.Outcomes[i])
		}
	}
	snap := reg.Snapshot()
	if c := snap.Counters; c["pipeline.jobs"] != 1 || c["pipeline.nodes_injected"] != 8 || c["pipeline.nodes_failed"] != 0 {
		t.Errorf("counters = %v", c)
	}
	for name, want := range map[string]uint64{"link": 8, "write": 8, "publish": 8, "stage_fanout": 1, "total": 1} {
		if got := snap.Histograms["pipeline.span."+name].Count; got != want {
			t.Errorf("span %q count = %d, want %d", name, got, want)
		}
	}
}

// TestInjectPartialFailure is the fleet-rollout guarantee: one dead node
// (its QP fails every verb) must not wedge the rollout, and it withholds
// every publish — the other seven keep the old generation — while the
// report pins the failure to the dead node with its retry count.
func TestInjectPartialFailure(t *testing.T) {
	var fakes []*fakeTarget
	for i := 0; i < 8; i++ {
		f := &fakeTarget{key: fmt.Sprintf("n%d", i)}
		if i == 3 { // dead endpoint: every attempt fails with a transport error
			f.stageErrs = []error{rdma.ErrClosed, rdma.ErrClosed, rdma.ErrClosed, rdma.ErrClosed, rdma.ErrClosed}
		}
		fakes = append(fakes, f)
	}
	s, reg := newScheduler()
	res, err := s.Inject(Request{Ext: constExt(2), Hook: "h", Targets: targetsOf(fakes...)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Published {
		t.Fatal("a dead node did not withhold the publishes")
	}
	dead := res.Outcomes[3]
	if !errors.Is(dead.Err, rdma.ErrClosed) {
		t.Errorf("dead node's cause = %v", dead.Err)
	}
	if dead.Attempts != 3 { // initial + 2 retries
		t.Errorf("attempts = %d, want 3", dead.Attempts)
	}
	for i, f := range fakes {
		if f.published != 0 {
			t.Errorf("node %d published %d times, want 0", i, f.published)
		}
		// A live node either staged, and then its stage was aborted, or
		// was skipped with the dead node's cause.
		if i != 3 && f.aborted != f.attempts {
			t.Errorf("node %d staged %d times and aborted %d", i, f.attempts, f.aborted)
		}
		if o := res.Outcomes[i]; i != 3 && o.Err != nil && !errors.Is(o.Err, rdma.ErrClosed) {
			t.Errorf("node %d outcome = %v, want nil or the dead node's cause", i, o.Err)
		}
	}
	if got := reg.Counter("pipeline.retries").Value(); got != 2 {
		t.Errorf("pipeline.retries = %d, want 2", got)
	}
}

func TestInjectAtomicAbort(t *testing.T) {
	good := &fakeTarget{key: "good"}
	dead := &fakeTarget{key: "dead", stageErrs: []error{rdma.ErrClosed, rdma.ErrClosed, rdma.ErrClosed}} // fails past its retries
	s, _ := newScheduler()
	res, err := s.Inject(Request{Ext: constExt(3), Hook: "h", Targets: targetsOf(good, dead)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Published {
		t.Error("job published despite a stage failure")
	}
	if good.published != 0 {
		t.Error("atomic abort still published on the healthy node")
	}
	if res.FirstErr() == nil {
		t.Error("no error surfaced for the dead node")
	}
}

// TestInjectAtomicStopsStaging pins the stage abort: once a stage of a job
// has failed for good no publish can happen, so the nodes not yet staged
// are skipped with the cause on their outcome instead of being written
// garbage.
func TestInjectAtomicStopsStaging(t *testing.T) {
	cause := errors.New("verifier: program rejected")
	var fakes []*fakeTarget
	for i := 0; i < 16; i++ {
		fakes = append(fakes, &fakeTarget{key: fmt.Sprintf("n%d", i)})
	}
	fakes[0].stageErrs = []error{cause}
	s, _ := newScheduler()
	res, err := withFanOut(s, 1).Inject(Request{Ext: constExt(15), Hook: "h", Targets: targetsOf(fakes...)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Published {
		t.Error("job published despite a stage failure")
	}
	calls := 0
	for _, f := range fakes {
		calls += f.attempts
	}
	if calls != 1 {
		t.Errorf("%d Stage calls, want 1: the job kept staging after it had failed", calls)
	}
	for i, o := range res.Outcomes {
		if !errors.Is(o.Err, cause) {
			t.Errorf("outcome %d = %v, want the stage failure's cause", i, o.Err)
		}
		if o.Node != fakes[i].key {
			t.Errorf("outcome %d names node %q, want %q", i, o.Node, fakes[i].key)
		}
	}
}

// TestAbortEveryUnpublishedStage pins Staged.Abort's contract: the
// scheduler aborts, once, every staged node it does not publish — on
// another node's failed stage, a failed BeforePublish, a job aborted before
// that node's publish turn, a failed Publish, and a deadline that passes
// before the publish turn — and never a node it published.
func TestAbortEveryUnpublishedStage(t *testing.T) {
	s, _ := newScheduler()
	withFanOut(s, 1)
	run := func(name string, req Request, fakes []*fakeTarget, wantAborted []int) {
		t.Helper()
		req.Ext, req.Hook, req.Targets = constExt(30), "h", targetsOf(fakes...)
		if _, err := s.Inject(req); err != nil {
			t.Fatal(err)
		}
		for i, f := range fakes {
			if f.aborted != wantAborted[i] {
				t.Errorf("%s: node %d aborted %d times, want %d", name, i, f.aborted, wantAborted[i])
			}
			if f.aborted > 0 && f.published > 0 {
				t.Errorf("%s: node %d both published and aborted", name, i)
			}
		}
	}
	run("stage failure",
		Request{},
		[]*fakeTarget{{key: "n0"}, {key: "n1", stageErrs: []error{errors.New("rejected")}}},
		[]int{1, 0})
	run("failed barrier",
		Request{BeforePublish: func() error { return errors.New("gate stuck") }},
		[]*fakeTarget{{key: "n0"}, {key: "n1"}},
		[]int{1, 1})
	run("first publish failure",
		Request{},
		[]*fakeTarget{{key: "n0", publishErr: errors.New("fenced")}, {key: "n1"}, {key: "n2"}},
		[]int{1, 1, 1})
	run("last publish failure",
		Request{},
		[]*fakeTarget{{key: "n0"}, {key: "n1", publishErr: errors.New("lost")}},
		[]int{0, 1})
	s.deadline = 20 * time.Millisecond
	run("deadline before publish",
		Request{BeforePublish: func() error {
			time.Sleep(40 * time.Millisecond)
			return nil
		}},
		[]*fakeTarget{{key: "n0"}, {key: "n1"}},
		[]int{1, 1})
}

func TestRetryBackoffRecovers(t *testing.T) {
	flaky := &fakeTarget{key: "flaky", stageErrs: []error{rdma.ErrClosed, rdma.ErrClosed, nil}}
	s, _ := newScheduler()
	res, err := s.Inject(Request{Ext: constExt(4), Hook: "h", Targets: targetsOf(flaky)})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstErr() != nil {
		t.Fatalf("flaky node never recovered: %v", res.FirstErr())
	}
	if res.Outcomes[0].Attempts != 3 {
		t.Errorf("attempts = %d, want 3", res.Outcomes[0].Attempts)
	}
	if flaky.published != 1 {
		t.Errorf("published %d times", flaky.published)
	}
}

func TestNonTransientErrorNotRetried(t *testing.T) {
	bad := &fakeTarget{key: "bad", stageErrs: []error{errors.New("validation exploded")}}
	s, _ := newScheduler()
	res, err := s.Inject(Request{Ext: constExt(5), Hook: "h", Targets: targetsOf(bad)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[0].Attempts != 1 {
		t.Errorf("deterministic failure retried %d times", res.Outcomes[0].Attempts)
	}
}

func TestJobDeadlineBoundsRetries(t *testing.T) {
	// The target fails on every possible attempt (100 retries allow at
	// most 101), so the job can never succeed — the only way it ends
	// early is the deadline. Full-jitter backoff can draw near-zero
	// delays, so a merely-finite error list would occasionally be
	// consumed inside the deadline and flake this test into "success".
	errs := make([]error, 101)
	for i := range errs {
		errs[i] = rdma.ErrClosed
	}
	dead := &fakeTarget{key: "dead", stageErrs: errs}
	s, _ := newScheduler()
	s.retries, s.deadline = 100, 50*time.Millisecond
	start := time.Now()
	res, err := s.Inject(Request{Ext: constExt(6), Hook: "h", Targets: targetsOf(dead)})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("deadline ignored: job ran %v", el)
	}
	if res.FirstErr() == nil {
		t.Error("deadline-bounded job reported success")
	}
	if got := res.Outcomes[0].Attempts; got >= 101 {
		t.Errorf("deadline did not bound retries: %d attempts", got)
	}
}

// TestPublishedReflectsPublishOutcomes pins the Result.Published contract:
// true requires at least one per-node publish to succeed — a job whose
// every publish failed must not report itself as live anywhere, and one
// whose publish failed after another landed must not hide that node.
func TestPublishedReflectsPublishOutcomes(t *testing.T) {
	pubErr := errors.New("publish slot CAS lost")

	allDead := []*fakeTarget{
		{key: "n0", publishErr: pubErr},
		{key: "n1", publishErr: pubErr},
	}
	s, _ := newScheduler()
	withFanOut(s, 1) // publishes run in target order
	res, err := s.Inject(Request{Ext: constExt(20), Hook: "h", Targets: targetsOf(allDead...)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Published {
		t.Error("Published = true with zero successful publishes")
	}
	if len(failed(res)) != 2 {
		t.Errorf("failed = %+v, want both nodes", failed(res))
	}

	oneAlive := []*fakeTarget{
		{key: "n0"},
		{key: "n1", publishErr: pubErr},
	}
	res, err = s.Inject(Request{Ext: constExt(21), Hook: "h", Targets: targetsOf(oneAlive...)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published {
		t.Error("Published = false despite one successful publish")
	}
}

func TestPublishBarrierHooks(t *testing.T) {
	var order []string
	var mu sync.Mutex
	note := func(s string) func() error {
		return func() error {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
			return nil
		}
	}
	tgt := &fakeTarget{key: "n"}
	s, _ := newScheduler()
	_, err := s.Inject(Request{
		Ext: constExt(12), Hook: "h", Targets: targetsOf(tgt),
		BeforePublish: note("before"),
		AfterPublish:  func() { note("after")() },
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "before" || order[1] != "after" {
		t.Errorf("barrier order = %v", order)
	}
	if tgt.published != 1 {
		t.Error("publish did not run between barriers")
	}
}

// probeTarget runs stage inside every Stage call and publish inside every
// Publish call, so a test can watch what the scheduler has in flight.
type probeTarget struct {
	key            string
	stage, publish func()
}

func (p *probeTarget) NodeKey() string { return p.key }

func (p *probeTarget) Stage(context.Context, *ext.Extension, string) (Staged, error) {
	p.stage()
	return probeStaged{p}, nil
}

type probeStaged struct{ p *probeTarget }

func (s probeStaged) Publish(context.Context) error { s.p.publish(); return nil }
func (s probeStaged) Abort()                        {}
func (s probeStaged) Version() uint64               { return 1 }
func (s probeStaged) LinkDuration() time.Duration   { return 0 }
func (s probeStaged) WriteDuration() time.Duration  { return 0 }

// TestInjectWorkersBounded pins the worker set: a 64-node job with fan-out 4
// never has more than 4 Stage or Publish calls in flight, never runs more
// than 4 goroutines beyond those alive before it (the caller is one of
// them), and leaves none behind.
func TestInjectWorkersBounded(t *testing.T) {
	const fanOut, nodes, slack = 4, 64, 2
	base := runtime.NumGoroutine()
	var inflight, maxInflight, maxGoroutines atomic.Int64
	raise := func(m *atomic.Int64, v int64) {
		for cur := m.Load(); v > cur && !m.CompareAndSwap(cur, v); cur = m.Load() {
		}
	}
	call := func() {
		raise(&maxInflight, inflight.Add(1))
		raise(&maxGoroutines, int64(runtime.NumGoroutine()))
		time.Sleep(100 * time.Microsecond)
		inflight.Add(-1)
	}
	targets := make([]Target, nodes)
	for i := range targets {
		targets[i] = &probeTarget{key: fmt.Sprintf("n%d", i), stage: call, publish: call}
	}
	s, _ := newScheduler()
	res, err := withFanOut(s, fanOut).Inject(Request{Ext: constExt(13), Hook: "h", Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstErr() != nil || !res.Published {
		t.Fatalf("job failed: %v", res.FirstErr())
	}
	if got := maxInflight.Load(); got > fanOut {
		t.Errorf("%d Stage/Publish calls in flight, fan-out is %d", got, fanOut)
	}
	if got := maxGoroutines.Load(); got > int64(base+fanOut+slack) {
		t.Errorf("%d goroutines during the job, %d before it: the worker set exceeds fan-out %d", got, base, fanOut)
	}
	// A worker's last act is to mark itself done, so it may still be
	// unwinding for an instant after Inject returns.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the job, %d before it: a worker outlived its job", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInjectStagesBeforeAnyPublish pins the barrier: every Stage returns
// before BeforePublish runs, and BeforePublish returns before any Publish
// starts, however the workers interleave.
func TestInjectStagesBeforeAnyPublish(t *testing.T) {
	const nodes = 16
	var mu sync.Mutex
	var events []string
	note := func(ev string) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	targets := make([]Target, nodes)
	for i := range targets {
		// Uneven stage times let fast workers run dry while slow ones are
		// still staging.
		delay := time.Duration(i%4) * 200 * time.Microsecond
		targets[i] = &probeTarget{
			key:     fmt.Sprintf("n%d", i),
			stage:   func() { time.Sleep(delay); note("staged") },
			publish: func() { note("publish") },
		}
	}
	s, _ := newScheduler()
	res, err := withFanOut(s, 4).Inject(Request{
		Ext: constExt(14), Hook: "h", Targets: targets,
		BeforePublish: func() error { note("before"); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstErr() != nil || !res.Published {
		t.Fatalf("job failed: %v", res.FirstErr())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2*nodes+1 {
		t.Fatalf("events = %v", events)
	}
	for i, ev := range events {
		want := "staged"
		switch {
		case i == nodes:
			want = "before"
		case i > nodes:
			want = "publish"
		}
		if ev != want {
			t.Fatalf("event %d = %q, want %q: %v", i, ev, want, events)
		}
	}
}

// TestStatsConcurrentWithInject hammers the registry's snapshot of the
// scheduler's "pipeline.*" instruments while jobs are in flight. Run with
// -race: the point is that snapshotting registry instruments is safe
// against concurrent recording, and that every reader observes monotonic
// counters (never a torn or reset value).
func TestStatsConcurrentWithInject(t *testing.T) {
	s, reg := newScheduler()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastJobs uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := reg.Snapshot() // percentile reads under recording
				jobs := snap.Counters["pipeline.jobs"]
				if jobs < lastJobs {
					t.Errorf("pipeline.jobs went backwards: %d -> %d", lastJobs, jobs)
					return
				}
				lastJobs = jobs
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 10; i++ {
				tgt := &fakeTarget{key: fmt.Sprintf("n%d", w)}
				if _, err := s.Inject(Request{Ext: constExt(int32(100 + w*10 + i)), Hook: "h", Targets: targetsOf(tgt)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if jobs, nodes := reg.Counter("pipeline.jobs").Value(), reg.Counter("pipeline.nodes_injected").Value(); jobs != 40 || nodes != 40 {
		t.Errorf("final counters = jobs %d nodes %d, want 40/40", jobs, nodes)
	}
}

// TestInjectAllocatesDistinctTraceIDs pins the Result.Trace contract: every
// job gets a non-zero, unique trace ID whether or not a tracer is attached.
func TestInjectAllocatesDistinctTraceIDs(t *testing.T) {
	s, _ := newScheduler()
	seen := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		res, err := s.Inject(Request{Ext: constExt(int32(200 + i)), Hook: "h", Targets: targetsOf(&fakeTarget{key: "n"})})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == 0 {
			t.Fatal("job got a zero trace ID")
		}
		if seen[uint64(res.Trace)] {
			t.Fatalf("trace ID %d reused", res.Trace)
		}
		seen[uint64(res.Trace)] = true
	}
}

func TestBadRequestsRejected(t *testing.T) {
	s, _ := newScheduler()
	if _, err := s.Inject(Request{Hook: "h", Targets: targetsOf(&fakeTarget{})}); err == nil {
		t.Error("nil extension accepted")
	}
	if _, err := s.Inject(Request{Ext: constExt(13), Targets: targetsOf(&fakeTarget{})}); err == nil {
		t.Error("empty hook accepted")
	}
	if _, err := s.Inject(Request{Ext: constExt(13), Hook: "h"}); err == nil {
		t.Error("no targets accepted")
	}
}
