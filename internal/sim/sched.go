package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrAborted reports a verb or sleep cut short because the scheduler
// finished its run (violation found, step budget exhausted) while the
// issuing proc was still parked. Scenario code treats it like any other
// transport failure and unwinds.
var ErrAborted = errors.New("sim: run aborted")

// watchdogStall is how long the scheduler tolerates zero progress in real
// time before panicking with a state dump. A spawned proc that blocks on
// synchronization the scheduler cannot see (a channel, a foreign mutex)
// never parks, so the quiescence wait would hang silently without this.
const watchdogStall = 10 * time.Second

const (
	kindVerb = iota
	kindTimer
)

// pendingStep is one parked proc's next communication point: a remote
// verb waiting to fire, or a virtual-clock sleep waiting for time.
type pendingStep struct {
	seq      uint64
	label    string
	kind     int
	deadline time.Time // kindTimer
	exec     func()    // kindVerb: applies the op and records its result
	fired    bool
	executed bool // false when released by abort
}

// Action is a standing fault the scheduler may fire as a schedule step:
// partition, heal, clock jump, duplicate delivery. Fire runs in the
// scheduler goroutine and must not issue verbs or sleep.
type action struct {
	label   string
	budget  int
	enabled func() bool
	fire    func()
}

// invariant is one predicate checked after every step.
type invariant struct {
	name  string
	check func() error
}

// enabledEntry is one choosable step: a parked proc's step or an action.
type enabledEntry struct {
	step *pendingStep
	act  *action
}

// Config shapes one scheduler run.
type Config struct {
	// Seed drives the schedule PRNG (choices beyond Replay).
	Seed int64
	// Replay forces the first len(Replay) choices (indices into the
	// enabled-step list, taken modulo its length), replaying a recorded
	// schedule exactly.
	Replay []int
	// Det makes choices beyond Replay deterministic (always index 0)
	// instead of random — the systematic explorer's and shrinker's mode.
	Det bool
	// MaxSteps bounds the schedule length (default 4096). Hitting it ends
	// the run cleanly with Result.Truncated set.
	MaxSteps int
	// Start is the virtual clock's start instant (fixed sim epoch if zero).
	Start time.Time
}

// Violation is one invariant failure with everything needed to reproduce
// and display it.
type Violation struct {
	Invariant string   `json:"invariant"`
	Err       string   `json:"err"`
	Seed      int64    `json:"seed"`
	Choices   []int    `json:"choices"`
	Trace     []string `json:"trace"`
}

func (v *Violation) String() string {
	s := fmt.Sprintf("invariant %q violated after %d steps (seed %d): %s",
		v.Invariant, len(v.Trace), v.Seed, v.Err)
	for i, t := range v.Trace {
		s += fmt.Sprintf("\n  %3d. %s", i+1, t)
	}
	return s
}

// Result summarizes one scheduler run.
type Result struct {
	Violation *Violation
	Steps     int
	Choices   []int
	Counts    []int    // enabled-step count at each choice (systematic explorer input)
	Trace     []string // label of every fired step and fault, in order
	Truncated bool
}

// Scheduler owns one deterministic run: spawned procs execute real
// protocol code and park at every verb/sleep; Run repeatedly waits for
// quiescence, checks invariants, and fires one chosen step.
type Scheduler struct {
	cfg   Config
	clock *VirtualClock
	rng   *rand.Rand

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []*pendingStep
	actions  []*action
	invs     []invariant
	running  int
	live     int
	nextSeq  uint64
	pos      int
	choices  []int
	counts   []int
	trace    []string
	aborted  bool
	panicMsg string

	progress atomic.Uint64 // bumped on every park/fire; the watchdog's pulse
}

// New builds a scheduler and its bound virtual clock.
func New(cfg Config) *Scheduler {
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 4096
	}
	s := &Scheduler{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	s.cond = sync.NewCond(&s.mu)
	s.clock = NewVirtualClock(cfg.Start)
	s.clock.sched = s
	return s
}

// Clock returns the run's virtual clock; inject it into every component
// under test so time only moves on schedule steps.
func (s *Scheduler) Clock() *VirtualClock { return s.clock }

// AddAction registers a fault the scheduler may fire as a step, at most
// budget times, whenever enabled() (nil = always) reports true. Fire runs
// in the scheduler goroutine: it must mutate state directly (cut a link,
// jump the clock) and never issue verbs or sleep.
func (s *Scheduler) AddAction(label string, budget int, enabled func() bool, fire func()) {
	s.mu.Lock()
	s.actions = append(s.actions, &action{label: label, budget: budget, enabled: enabled, fire: fire})
	s.mu.Unlock()
}

// AddInvariant registers a predicate checked after every fired step (and
// once before the first). Check runs in the scheduler goroutine while all
// procs are parked — it may read any state but must not issue verbs.
func (s *Scheduler) AddInvariant(name string, check func() error) {
	s.mu.Lock()
	s.invs = append(s.invs, invariant{name, check})
	s.mu.Unlock()
}

// Spawn starts fn as a managed proc. fn runs real protocol code; every
// sim-transport verb and virtual-clock sleep inside it parks as a step.
// Procs must terminate (bounded loops, bail out on errors) — the run ends
// only when every proc has finished or been aborted. Spawn returns once the
// new proc has parked its first step (or finished), so steps enter pending
// in Spawn order, not goroutine-start order, and one (seed, choices) names
// one interleaving on every run. Call it from the harness goroutine only,
// never from inside a proc.
func (s *Scheduler) Spawn(name string, fn func()) {
	s.mu.Lock()
	s.live++
	s.running++
	s.mu.Unlock()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				s.mu.Lock()
				if s.panicMsg == "" {
					s.panicMsg = fmt.Sprintf("proc %q panicked: %v\n%s", name, r, debug.Stack())
				}
				s.mu.Unlock()
			}
			s.mu.Lock()
			s.running--
			s.live--
			s.progress.Add(1)
			s.cond.Broadcast()
			s.mu.Unlock()
		}()
		fn()
	}()
	s.mu.Lock()
	s.waitQuiesceLocked()
	s.mu.Unlock()
}

// Setup runs fn to completion as the only proc, firing its steps in
// program order without recording choices or trace: the known-good
// prologue (attach a leader, seed a journal) stays out of every schedule,
// so recorded and minimized traces contain only the interesting suffix.
// Panics if fn leaves more than one step enabled at once (i.e. is not
// sequential) — call it before Spawn.
func (s *Scheduler) Setup(name string, fn func()) {
	s.Spawn(name, fn)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		s.waitQuiesceLocked()
		if len(s.pending) == 0 {
			if s.live > 0 {
				panic("sim: Setup proc blocked without a pending step")
			}
			return
		}
		if len(s.pending) > 1 {
			panic(fmt.Sprintf("sim: Setup %q must be sequential, %d steps pending", name, len(s.pending)))
		}
		s.fireStepLocked(s.pending[0], false)
	}
}

// Run drives the schedule to completion and reports what happened. After
// Run returns every spawned proc has finished (aborted procs see
// ErrAborted from their next verb/sleep and unwind).
func (s *Scheduler) Run() *Result {
	stopWatchdog := s.startWatchdog()
	defer stopWatchdog()

	s.mu.Lock()
	var violation *Violation
	truncated := false
	for {
		s.waitQuiesceLocked()
		if s.panicMsg != "" {
			break
		}
		if violation = s.checkInvariantsLocked(); violation != nil {
			break
		}
		en := s.enabledLocked()
		if len(en) == 0 {
			if s.live > 0 {
				panic("sim: deadlock — live procs but no pending steps\n" + s.dumpLocked())
			}
			break
		}
		if len(s.choices) >= s.cfg.MaxSteps {
			truncated = true
			break
		}
		idx := s.chooseLocked(len(en))
		e := en[idx]
		if e.act != nil {
			e.act.budget--
			s.trace = append(s.trace, "fault: "+e.act.label)
			e.act.fire()
		} else {
			s.fireStepLocked(e.step, true)
		}
	}
	s.abortLocked()
	res := &Result{
		Violation: violation,
		Steps:     len(s.trace),
		Choices:   append([]int(nil), s.choices...),
		Counts:    append([]int(nil), s.counts...),
		Trace:     append([]string(nil), s.trace...),
		Truncated: truncated,
	}
	panicMsg := s.panicMsg
	s.mu.Unlock()
	if panicMsg != "" {
		panic(panicMsg)
	}
	return res
}

// waitQuiesceLocked blocks until no proc is executing between steps.
func (s *Scheduler) waitQuiesceLocked() {
	for s.running > 0 {
		s.cond.Wait()
	}
}

// checkInvariantsLocked runs every registered check; the first failure
// becomes the run's violation.
func (s *Scheduler) checkInvariantsLocked() *Violation {
	for _, inv := range s.invs {
		if err := inv.check(); err != nil {
			return &Violation{
				Invariant: inv.name,
				Err:       err.Error(),
				Seed:      s.cfg.Seed,
				Choices:   append([]int(nil), s.choices...),
				Trace:     append([]string(nil), s.trace...),
			}
		}
	}
	return nil
}

// enabledLocked lists the choosable steps in canonical order: pending
// steps by insertion sequence (deterministic, since execution up to here
// was deterministic), then actions in registration order.
func (s *Scheduler) enabledLocked() []enabledEntry {
	out := make([]enabledEntry, 0, len(s.pending)+len(s.actions))
	for _, st := range s.pending {
		out = append(out, enabledEntry{step: st})
	}
	for _, a := range s.actions {
		if a.budget > 0 && (a.enabled == nil || a.enabled()) {
			out = append(out, enabledEntry{act: a})
		}
	}
	return out
}

// chooseLocked picks the next step index: replayed, deterministic-zero,
// or seeded-random; always recorded.
func (s *Scheduler) chooseLocked(n int) int {
	var c int
	switch {
	case s.pos < len(s.cfg.Replay):
		c = s.cfg.Replay[s.pos] % n
		if c < 0 {
			c += n
		}
	case s.cfg.Det:
		c = 0
	default:
		c = s.rng.Intn(n)
	}
	s.pos++
	s.choices = append(s.choices, c)
	s.counts = append(s.counts, n)
	return c
}

// fireStepLocked executes one parked step and hands its proc the running
// token back.
func (s *Scheduler) fireStepLocked(st *pendingStep, record bool) {
	s.removePendingLocked(st)
	if st.kind == kindTimer {
		s.clock.advanceTo(st.deadline)
	} else if st.exec != nil {
		st.exec()
	}
	st.executed = true
	st.fired = true
	if record {
		s.trace = append(s.trace, st.label)
	}
	s.running++
	s.progress.Add(1)
	s.cond.Broadcast()
}

func (s *Scheduler) removePendingLocked(st *pendingStep) {
	for i, p := range s.pending {
		if p == st {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// parkVerb suspends the calling proc until the scheduler fires its verb.
// Returns false when the run aborted instead (the verb did not execute).
func (s *Scheduler) parkVerb(label string, exec func()) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted {
		return false
	}
	st := &pendingStep{seq: s.nextSeq, label: label, kind: kindVerb, exec: exec}
	s.nextSeq++
	s.pending = append(s.pending, st)
	s.running--
	s.progress.Add(1)
	s.cond.Broadcast()
	for !st.fired {
		s.cond.Wait()
	}
	return st.executed
}

// parkTimer suspends the calling proc until the scheduler fires its
// deadline (which advances the virtual clock to it).
func (s *Scheduler) parkTimer(deadline time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted {
		return
	}
	st := &pendingStep{
		seq:      s.nextSeq,
		label:    fmt.Sprintf("timer +%s", deadline.Sub(s.clock.Now())),
		kind:     kindTimer,
		deadline: deadline,
	}
	s.nextSeq++
	s.pending = append(s.pending, st)
	s.running--
	s.progress.Add(1)
	s.cond.Broadcast()
	for !st.fired {
		s.cond.Wait()
	}
}

// abortLocked releases every parked proc with ErrAborted semantics and
// waits for all procs to finish.
func (s *Scheduler) abortLocked() {
	s.aborted = true
	for _, st := range s.pending {
		st.fired = true
		s.running++
	}
	s.pending = nil
	s.cond.Broadcast()
	for s.live > 0 {
		s.cond.Wait()
	}
}

// dumpLocked renders the scheduler state for deadlock panics.
func (s *Scheduler) dumpLocked() string {
	d := fmt.Sprintf("live=%d running=%d steps=%d\npending:", s.live, s.running, len(s.trace))
	for _, st := range s.pending {
		d += "\n  " + st.label
	}
	d += "\ntrace tail:"
	tail := s.trace
	if len(tail) > 20 {
		tail = tail[len(tail)-20:]
	}
	for _, t := range tail {
		d += "\n  " + t
	}
	return d
}

// startWatchdog panics the process if no park/fire progress happens for
// watchdogStall of real time — the signature of a proc blocked on
// synchronization the scheduler cannot see.
func (s *Scheduler) startWatchdog() func() {
	stop := make(chan struct{})
	go func() {
		last := s.progress.Load()
		stalls := 0
		t := time.NewTicker(watchdogStall / 10)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				cur := s.progress.Load()
				if cur != last {
					last, stalls = cur, 0
					continue
				}
				stalls++
				if stalls >= 10 {
					s.mu.Lock()
					d := s.dumpLocked()
					s.mu.Unlock()
					panic("sim: scheduler stalled (proc blocked outside the harness?)\n" + d)
				}
			}
		}
	}()
	return func() { close(stop) }
}
