package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdx/internal/ebpf"
	"rdx/internal/ext"
	"rdx/internal/rdma"
)

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
	var validated, compiled atomic.Int32
	s := New(Config{
		Validate: func(*ext.Extension) error { validated.Add(1); return nil },
		Compile:  func(*ext.Extension, []Target) error { compiled.Add(1); return nil },
	})
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
	if validated.Load() != 1 || compiled.Load() != 1 {
		t.Errorf("validate/compile ran %d/%d times, want 1/1", validated.Load(), compiled.Load())
	}
	st := s.Stats()
	if st.Jobs != 1 || st.NodesInjected != 8 || st.NodesFailed != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Link.Count != 8 || st.Write.Count != 8 || st.Publish.Count != 8 || st.Total.Count != 1 {
		t.Errorf("span counts = link %d write %d publish %d total %d",
			st.Link.Count, st.Write.Count, st.Publish.Count, st.Total.Count)
	}
	if !strings.Contains(st.String(), "stage-fanout") {
		t.Errorf("stats table missing stages:\n%s", st)
	}
}

// TestInjectPartialFailure is the fleet-rollout guarantee: one dead node
// (its QP fails every verb) must not wedge the rollout — the other seven
// publish, and the report pins the failure to the dead node with its
// retry count.
func TestInjectPartialFailure(t *testing.T) {
	var fakes []*fakeTarget
	for i := 0; i < 8; i++ {
		f := &fakeTarget{key: fmt.Sprintf("n%d", i)}
		if i == 3 { // dead endpoint: every attempt fails with a transport error
			f.stageErrs = []error{rdma.ErrClosed, rdma.ErrClosed, rdma.ErrClosed, rdma.ErrClosed, rdma.ErrClosed}
		}
		fakes = append(fakes, f)
	}
	s := New(Config{Retries: 2, Backoff: time.Microsecond})
	res, err := s.Inject(Request{Ext: constExt(2), Hook: "h", Targets: targetsOf(fakes...)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published {
		t.Fatal("partial failure withheld all publishes")
	}
	failed := res.Failed()
	if len(failed) != 1 || failed[0].Node != "n3" {
		t.Fatalf("failed = %+v, want exactly n3", failed)
	}
	if !errors.Is(failed[0].Err, rdma.ErrClosed) {
		t.Errorf("failure cause = %v", failed[0].Err)
	}
	if failed[0].Attempts != 3 { // initial + 2 retries
		t.Errorf("attempts = %d, want 3", failed[0].Attempts)
	}
	for i, f := range fakes {
		want := 1
		if i == 3 {
			want = 0
		}
		if f.published != want {
			t.Errorf("node %d published %d times, want %d", i, f.published, want)
		}
	}
	st := s.Stats()
	if st.NodesInjected != 7 || st.NodesFailed != 1 || st.Retries != 2 {
		t.Errorf("stats = injected %d failed %d retries %d", st.NodesInjected, st.NodesFailed, st.Retries)
	}
}

func TestInjectAtomicAbort(t *testing.T) {
	good := &fakeTarget{key: "good"}
	dead := &fakeTarget{key: "dead", stageErrs: []error{rdma.ErrClosed}}
	s := New(Config{}) // no retries
	res, err := s.Inject(Request{Ext: constExt(3), Hook: "h", Targets: targetsOf(good, dead), Atomic: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Published {
		t.Error("atomic job published despite a stage failure")
	}
	if good.published != 0 {
		t.Error("atomic abort still published on the healthy node")
	}
	if res.FirstErr() == nil {
		t.Error("no error surfaced for the dead node")
	}
}

func TestRetryBackoffRecovers(t *testing.T) {
	flaky := &fakeTarget{key: "flaky", stageErrs: []error{rdma.ErrClosed, rdma.ErrClosed, nil}}
	s := New(Config{Retries: 3, Backoff: time.Microsecond})
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
	s := New(Config{Retries: 5, Backoff: time.Microsecond})
	res, err := s.Inject(Request{Ext: constExt(5), Hook: "h", Targets: targetsOf(bad)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[0].Attempts != 1 {
		t.Errorf("deterministic failure retried %d times", res.Outcomes[0].Attempts)
	}
}

func TestJobDeadlineBoundsRetries(t *testing.T) {
	// The target fails on every possible attempt (Retries:100 allows at
	// most 101), so the job can never succeed — the only way it ends
	// early is the deadline. Full-jitter backoff can draw near-zero
	// delays, so a merely-finite error list would occasionally be
	// consumed inside the deadline and flake this test into "success".
	errs := make([]error, 101)
	for i := range errs {
		errs[i] = rdma.ErrClosed
	}
	dead := &fakeTarget{key: "dead", stageErrs: errs}
	s := New(Config{Retries: 100, Backoff: 20 * time.Millisecond, MaxBackoff: 20 * time.Millisecond})
	start := time.Now()
	res, err := s.Inject(Request{Ext: constExt(6), Hook: "h", Targets: targetsOf(dead), Deadline: 50 * time.Millisecond})
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

func TestQueueAdmissionRejectsOnDeadline(t *testing.T) {
	block := make(chan struct{})
	slow := &fakeTarget{key: "slow"}
	s := New(Config{Workers: 1})
	// Occupy the single worker slot with a job whose stage blocks.
	slowDone := s.Submit(Request{Ext: constExt(7), Hook: "h", Targets: []Target{blockingTarget{block}}})
	time.Sleep(10 * time.Millisecond) // let it be admitted
	_, err := s.Inject(Request{Ext: constExt(8), Hook: "h", Targets: targetsOf(slow), Deadline: 20 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "admission") {
		t.Errorf("expected admission rejection, got %v", err)
	}
	close(block)
	<-slowDone
	if s.Stats().Rejected != 1 {
		t.Errorf("rejected counter = %d", s.Stats().Rejected)
	}
}

type blockingTarget struct{ ch chan struct{} }

func (b blockingTarget) NodeKey() string { return "blocker" }
func (b blockingTarget) Stage(context.Context, *ext.Extension, string) (Staged, error) {
	<-b.ch
	return nil, errors.New("unblocked")
}

func TestPrepareSingleFlightPerDigest(t *testing.T) {
	var compiles atomic.Int32
	s := New(Config{
		Compile: func(*ext.Extension, []Target) error {
			compiles.Add(1)
			time.Sleep(5 * time.Millisecond) // widen the race window
			return nil
		},
	})
	e := constExt(9)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tgt := &fakeTarget{key: "n"}
			if _, err := s.Inject(Request{Ext: e, Hook: "h", Targets: targetsOf(tgt)}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if compiles.Load() != 1 {
		t.Errorf("compile ran %d times for one digest", compiles.Load())
	}
	// A different extension compiles separately.
	if _, err := s.Inject(Request{Ext: constExt(10), Hook: "h", Targets: targetsOf(&fakeTarget{key: "n"})}); err != nil {
		t.Fatal(err)
	}
	if compiles.Load() != 2 {
		t.Errorf("compile ran %d times for two digests", compiles.Load())
	}
	st := s.Stats()
	if st.PrepareMisses != 2 || st.PrepareHits != 5 {
		t.Errorf("prepare hit/miss = %d/%d, want 5/2", st.PrepareHits, st.PrepareMisses)
	}
}

func TestPrepareFailureNotCached(t *testing.T) {
	calls := 0
	s := New(Config{Validate: func(*ext.Extension) error {
		calls++
		if calls == 1 {
			return errors.New("transient validator outage")
		}
		return nil
	}})
	e := constExt(11)
	if _, err := s.Inject(Request{Ext: e, Hook: "h", Targets: targetsOf(&fakeTarget{key: "n"})}); err == nil {
		t.Fatal("first job should fail prepare")
	}
	if _, err := s.Inject(Request{Ext: e, Hook: "h", Targets: targetsOf(&fakeTarget{key: "n"})}); err != nil {
		t.Fatalf("second job hit a poisoned prepare cache: %v", err)
	}
}

// TestPrepareMemoBounded pins the PrepareCap contract: the per-digest memo
// is an LRU, so a long-lived scheduler churning through unique digests
// holds at most PrepareCap of them, and an evicted digest re-prepares on
// its next job (cheaply — the artifact cache still holds the compiled
// binary; only the memo entry is gone).
func TestPrepareMemoBounded(t *testing.T) {
	var compiles atomic.Int32
	s := New(Config{
		PrepareCap: 2,
		Compile:    func(*ext.Extension, []Target) error { compiles.Add(1); return nil },
	})
	inject := func(v int32) {
		t.Helper()
		if _, err := s.Inject(Request{Ext: constExt(v), Hook: "h", Targets: targetsOf(&fakeTarget{key: "n"})}); err != nil {
			t.Fatal(err)
		}
	}
	inject(30)
	inject(31)
	inject(32) // evicts digest 30 from the memo
	if got := s.preparedLen(); got != 2 {
		t.Fatalf("memo holds %d digests, want PrepareCap=2", got)
	}
	if compiles.Load() != 3 {
		t.Fatalf("compile ran %d times for three digests", compiles.Load())
	}
	inject(30) // evicted: must re-prepare
	if compiles.Load() != 4 {
		t.Fatalf("evicted digest did not re-prepare: %d compiles", compiles.Load())
	}
	inject(32) // still memoized: no extra compile
	if compiles.Load() != 4 {
		t.Fatalf("memoized digest recompiled: %d compiles", compiles.Load())
	}
	if got := s.preparedLen(); got != 2 {
		t.Fatalf("memo grew past its cap: %d", got)
	}
}

// TestPublishedReflectsPublishOutcomes pins the Result.Published contract:
// true requires at least one per-node publish to succeed — a job whose
// every publish failed must not report itself as live anywhere.
func TestPublishedReflectsPublishOutcomes(t *testing.T) {
	pubErr := errors.New("publish slot CAS lost")

	allDead := []*fakeTarget{
		{key: "n0", publishErr: pubErr},
		{key: "n1", publishErr: pubErr},
	}
	s := New(Config{})
	res, err := s.Inject(Request{Ext: constExt(20), Hook: "h", Targets: targetsOf(allDead...)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Published {
		t.Error("Published = true with zero successful publishes")
	}
	if len(res.Failed()) != 2 {
		t.Errorf("failed = %+v, want both nodes", res.Failed())
	}

	oneAlive := []*fakeTarget{
		{key: "n0", publishErr: pubErr},
		{key: "n1"},
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
	s := New(Config{})
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

// TestStatsConcurrentWithInject hammers Stats() while jobs are in flight.
// Run with -race: the point is that snapshotting registry instruments is
// safe against concurrent recording, and that every reader observes
// monotonic counters (never a torn or reset value).
func TestStatsConcurrentWithInject(t *testing.T) {
	s := New(Config{Workers: 4})
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
				st := s.Stats()
				if st.Jobs < lastJobs {
					t.Errorf("Jobs went backwards: %d -> %d", lastJobs, st.Jobs)
					return
				}
				lastJobs = st.Jobs
				_ = st.String() // exercises percentile reads under recording
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

	if st := s.Stats(); st.Jobs != 40 || st.NodesInjected != 40 {
		t.Errorf("final stats = jobs %d nodes %d, want 40/40", st.Jobs, st.NodesInjected)
	}
}

// TestInjectAllocatesDistinctTraceIDs pins the Result.Trace contract: every
// job gets a non-zero, unique trace ID whether or not a tracer is attached.
func TestInjectAllocatesDistinctTraceIDs(t *testing.T) {
	s := New(Config{})
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
	s := New(Config{})
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
