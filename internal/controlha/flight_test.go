package controlha

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdx/internal/core"
	"rdx/internal/mem"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// gatedVerbs counts the verbs a leader issues on the standby link and runs
// a test hook ahead of each atomic and WRITE. The hook may block — that is
// how a test holds a flight on the wire without sleeping — or act on the
// ring before the verb lands.
type gatedVerbs struct {
	rdma.Verbs
	verbs atomic.Int64

	mu     sync.Mutex
	before func(addr mem.Addr)
}

func (g *gatedVerbs) gate(addr mem.Addr) {
	g.verbs.Add(1)
	g.mu.Lock()
	hook := g.before
	g.mu.Unlock()
	if hook != nil {
		hook(addr)
	}
}

func (g *gatedVerbs) CompareAndSwapCtx(ctx context.Context, rkey uint32, addr mem.Addr, old, new uint64) (uint64, error) {
	g.gate(addr)
	return g.Verbs.CompareAndSwapCtx(ctx, rkey, addr, old, new)
}

func (g *gatedVerbs) FetchAddCtx(ctx context.Context, rkey uint32, addr mem.Addr, delta uint64) (uint64, error) {
	g.gate(addr)
	return g.Verbs.FetchAddCtx(ctx, rkey, addr, delta)
}

func (g *gatedVerbs) WriteCtx(ctx context.Context, rkey uint32, addr mem.Addr, data []byte) error {
	g.gate(addr)
	return g.Verbs.WriteCtx(ctx, rkey, addr, data)
}

// onVerb installs hook, replacing any earlier one.
func (g *gatedVerbs) onVerb(hook func(addr mem.Addr)) {
	g.mu.Lock()
	g.before = hook
	g.mu.Unlock()
}

// hold parks the next verb aimed at addr. parked closes once it has
// arrived; the verb is issued when release is called.
func (g *gatedVerbs) hold(addr mem.Addr) (parked <-chan struct{}, release func()) {
	arrived, released := make(chan struct{}), make(chan struct{})
	var once sync.Once
	g.onVerb(func(a mem.Addr) {
		if a == addr {
			once.Do(func() {
				close(arrived)
				<-released
			})
		}
	})
	return arrived, func() { close(released) }
}

// Ring words and the first data byte, as the leader addresses them.
const (
	ringEpochWord = mem.Addr(hostRingBase + ringOffEpoch)
	ringHwmWord   = mem.Addr(hostRingBase + ringOffHwm)
	ringData      = mem.Addr(hostRingBase + RingHdrSize)
)

// flightRig is a leader attached to a standby host through gated verbs.
type flightRig struct {
	*hostRig
	gate *gatedVerbs
	ldr  *Leader
	j    *Journal
	reg  *telemetry.Registry
}

func newFlightRig(t *testing.T, ringCap uint64) *flightRig {
	t.Helper()
	rig := newHostRig(t, ringCap)
	gate := &gatedVerbs{Verbs: rig.hostQP(t)}
	cp := core.NewControlPlane()
	ldr, err := AttachLeader(cp, gate, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	gate.verbs.Store(0)
	return &flightRig{hostRig: rig, gate: gate, ldr: ldr, j: ldr.Journal, reg: cp.Registry}
}

// probeLen is what a probe entry encodes to: a 1024-byte ring wraps inside
// the 15th.
const probeLen = 72

func probe(i int) Entry {
	return Entry{Type: EntryValidate, Digest: fmt.Sprintf("d%07d", i)}
}

// appendAll starts one goroutine per entry and returns where their results
// arrive.
func (r *flightRig) appendAll(from, n int) <-chan error {
	errs := make(chan error, n)
	for i := from; i < from+n; i++ {
		go func() { errs <- r.j.Append(probe(i)) }()
	}
	return errs
}

// awaitLen spins until the journal holds n entries. An entry is counted in
// the critical section that puts it aboard a flight, and Len must not queue
// behind the flight on the wire, so this is also the join barrier.
func (r *flightRig) awaitLen(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); r.j.Len() != n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("journal holds %d entries, want %d", r.j.Len(), n)
		}
	}
}

func (r *flightRig) counter(name string) uint64 {
	return r.reg.Counter("controlha.journal." + name).Value()
}

// expectFlights checks the grouping instruments: flights flown, entries they
// carried (all replicated or all failed), and the largest group.
func (r *flightRig) expectFlights(t *testing.T, flights, replicated, failed, largest int) {
	t.Helper()
	h := r.reg.Histogram("controlha.journal.flight_entries")
	if got := r.counter("flights"); got != uint64(flights) || h.Count() != uint64(flights) {
		t.Errorf("flights = %d (histogram %d), want %d", got, h.Count(), flights)
	}
	if got := r.counter("replicated"); got != uint64(replicated) {
		t.Errorf("replicated = %d entries, want %d", got, replicated)
	}
	if got := r.counter("replication_errors"); got != uint64(failed) {
		t.Errorf("replication_errors = %d entries, want %d", got, failed)
	}
	if h.Sum() != int64(replicated+failed) || h.Max() != int64(largest) {
		t.Errorf("flight_entries sum %d max %d, want %d and %d", h.Sum(), h.Max(), replicated+failed, largest)
	}
	if got := r.counter("appended"); got != uint64(r.j.Len()) {
		t.Errorf("appended = %d, journal holds %d", got, r.j.Len())
	}
}

// expectStandbyMirrors pumps the standby and checks that its copy is the
// leader's log byte for byte, that the log is what one appender issuing
// the same entries in seq order would have encoded, and that it replays.
func (r *flightRig) expectStandbyMirrors(t *testing.T) {
	t.Helper()
	if _, err := r.host.Pump(); err != nil {
		t.Fatal(err)
	}
	got, want := r.host.JournalBytes(), r.j.Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("standby holds %d bytes, leader %d, or they differ", len(got), len(want))
	}
	seq := NewJournal(nil)
	seq.SetFenceSource(r.ldr.Lease.Epoch)
	for i, e := range r.j.Entries() {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
		e.Seq, e.Fence = 0, 0
		seq.append(e)
	}
	if !bytes.Equal(seq.Bytes(), want) {
		t.Fatal("grouped log differs from the sequential encoding")
	}
	st, err := Replay(got)
	if err != nil {
		t.Fatalf("replay of standby copy: %v", err)
	}
	if st.LastSeq != uint64(r.j.Len()) {
		t.Fatalf("replayed through seq %d of %d", st.LastSeq, r.j.Len())
	}
	if lag := r.reg.Gauge("controlha.journal.lag").Value(); lag != 0 {
		t.Errorf("lag gauge %d B with every flight landed", lag)
	}
}

// TestFlightGroupsArrivals: appends that arrive while a flight is on the
// wire share the next one — whatever their number, they cost one more
// flight, and the standby cannot tell the log from a sequential one.
func TestFlightGroupsArrivals(t *testing.T) {
	for _, n := range []int{1, 2, 8, 32} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rig := newFlightRig(t, 0)
			parked, release := rig.gate.hold(ringEpochWord)
			first := rig.appendAll(0, 1)
			<-parked
			rest := rig.appendAll(1, n)
			rig.awaitLen(t, n+1)
			release()
			if err := <-first; err != nil {
				t.Errorf("held append: %v", err)
			}
			for i := 0; i < n; i++ {
				if err := <-rest; err != nil {
					t.Errorf("append: %v", err)
				}
			}
			rig.expectFlights(t, 2, n+1, 0, n)
			if got := rig.gate.verbs.Load(); got != 8 {
				t.Errorf("%d standby verbs for 2 flights, want 8", got)
			}
			rig.expectStandbyMirrors(t)
		})
	}
}

// TestFlightBoundAndWrap: a batch stops taking entries at flightBound, so
// 20 arrivals behind a held flight on a 1024-byte ring fly as 7 + 7 + 6; the
// second group straddles the ring's wrap point and goes out as two WRITEs
// behind one commit. The standby pumps as each flight takes off, as a live
// one would between flights, and ends with a replayable copy.
func TestFlightBoundAndWrap(t *testing.T) {
	rig := newFlightRig(t, 1024)
	if e := probe(0); len(e.Encode()) != probeLen {
		t.Fatalf("probe entry is %d bytes; the flight arithmetic below assumes %d", len(e.Encode()), probeLen)
	}
	parked, release := rig.gate.hold(ringEpochWord)
	first := rig.appendAll(0, 1)
	<-parked
	rest := rig.appendAll(1, 20)
	rig.awaitLen(t, 21)

	var writes, commits atomic.Int64
	var pumpErr error
	rig.gate.onVerb(func(addr mem.Addr) {
		switch {
		case addr == ringEpochWord:
			if _, err := rig.host.Pump(); err != nil {
				pumpErr = err // flights are serial, and read after the last
			}
		case addr == ringHwmWord:
			commits.Add(1)
		case addr >= ringData:
			writes.Add(1)
		}
	})
	release()
	for i := 0; i < 20; i++ {
		if err := <-rest; err != nil {
			t.Errorf("append: %v", err)
		}
	}
	if err := <-first; err != nil {
		t.Errorf("held append: %v", err)
	}
	if pumpErr != nil {
		t.Fatalf("standby pump between flights: %v", pumpErr)
	}
	rig.expectFlights(t, 4, 21, 0, 7)
	// The held flight's epoch CAS was already counted when it parked, so the
	// hook saw its WRITE and commit plus three whole flights.
	if w, c := writes.Load(), commits.Load(); w != 5 || c != 4 {
		t.Errorf("%d WRITEs and %d commits, want 5 (one group split on the wrap) and 4", w, c)
	}
	rig.expectStandbyMirrors(t)
}

// TestTwoClosedLoopAppendersNeverGroup pins the identity bench/'s flip
// workload checks from outside: with two closed-loop appenders at most one
// append can arrive during a flight, and because a batch is sealed when its
// predecessor lands, the one that just landed cannot barge into it. Every
// flight carries exactly one entry — today's verbs, exactly.
func TestTwoClosedLoopAppendersNeverGroup(t *testing.T) {
	const each = 5000
	rig := newFlightRig(t, 2<<20) // holds the run unwrapped: no entry splits into two WRITEs
	var wg sync.WaitGroup
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := rig.j.Append(probe(i)); err != nil {
					t.Errorf("appender %d: %v", a, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rig.expectFlights(t, 2*each, 2*each, 0, 1)
	if got := rig.gate.verbs.Load(); got != 4*2*each {
		t.Errorf("%d standby verbs for %d entries, want 4 each", got, 2*each)
	}
}

// TestFlightFailureReachesEveryMember: a flight that fails hands its typed
// error to every entry aboard — a JournalHandoff among them, which is the
// caller that acts on it — and the flight after it is flown on its own.
func TestFlightFailureReachesEveryMember(t *testing.T) {
	const members = 5 // four appends and the handoff marker

	// group parks a lone flight, queues members behind it and returns their
	// results plus the lone flight's, all still pending.
	group := func(t *testing.T, rig *flightRig) (first, rest <-chan error, release func()) {
		parked, release := rig.gate.hold(ringEpochWord)
		first = rig.appendAll(0, 1)
		<-parked
		errs := make(chan error, members)
		go func() { errs <- rig.j.JournalHandoff(7) }()
		for i := 1; i < members; i++ {
			go func() { errs <- rig.j.Append(probe(i)) }()
		}
		rig.awaitLen(t, 1+members)
		return first, errs, release
	}

	t.Run("split brain", func(t *testing.T) {
		rig := newFlightRig(t, 0)
		first, rest, release := group(t, rig)
		// A rival commits the group's window first: the second hwm CAS on
		// the wire finds the watermark already past its reservation.
		rival, _, ring := rig.connect(t)
		var commits int
		rig.gate.onVerb(func(addr mem.Addr) {
			if addr != ringHwmWord {
				return
			}
			if commits++; commits == 2 {
				tail, err := rival.ReadMem(ring.Addr+ringOffTail, 8)
				if err == nil {
					err = rival.WriteMem(ring.Addr+ringOffHwm, 8, tail)
				}
				if err != nil {
					t.Errorf("rival commit: %v", err)
				}
			}
		})
		release()
		if err := <-first; err != nil {
			t.Fatalf("lone flight: %v", err)
		}
		for i := 0; i < members; i++ {
			if err := <-rest; !errors.Is(err, ErrSplitBrain) {
				t.Errorf("member %d: %v, want ErrSplitBrain", i, err)
			}
		}
		rig.expectFlights(t, 2, 1, members, members)
		// The rival left the watermark at the tail, so the next flight finds
		// a consistent ring and commits.
		if err := rig.j.Append(probe(99)); err != nil {
			t.Fatalf("flight after the failed one: %v", err)
		}
		rig.expectFlights(t, 3, 2, members, members)
	})

	t.Run("rkey rotated", func(t *testing.T) {
		rig := newFlightRig(t, 0)
		first, rest, release := group(t, rig)
		if err := rig.host.FenceRing(); err != nil {
			t.Fatal(err)
		}
		release()
		if err := <-first; !errors.Is(err, ErrFencedAppend) {
			t.Errorf("lone flight: %v, want ErrFencedAppend", err)
		}
		for i := 0; i < members; i++ {
			if err := <-rest; !errors.Is(err, ErrFencedAppend) {
				t.Errorf("member %d: %v, want ErrFencedAppend", i, err)
			}
		}
		if err := rig.j.JournalHandoff(8); !errors.Is(err, ErrFencedAppend) {
			t.Errorf("flight after the fenced ones: %v, want ErrFencedAppend", err)
		}
		rig.expectFlights(t, 3, 0, 2+members, members)
		if got := rig.reg.Counter("controlha.journal.fenced_appends").Value(); got != 3 {
			t.Errorf("fenced_appends = %d, want one per flight (3)", got)
		}
		if _, err := rig.host.Pump(); err != nil || len(rig.host.JournalBytes()) != 0 {
			t.Errorf("fenced flights reached the standby: %d bytes, pump err %v", len(rig.host.JournalBytes()), err)
		}
	})
}

// TestFlightCrashWindow severs the standby link after a group's bytes are
// in the ring and before its hwm CAS: the standby exposes none of the group,
// no member is told it was replicated, and a takeover collapses the dead
// reservation and replays the clean prefix.
func TestFlightCrashWindow(t *testing.T) {
	const members = 8
	rig := newFlightRig(t, 0)
	parked, release := rig.gate.hold(ringEpochWord)
	first := rig.appendAll(0, 1)
	<-parked
	rest := rig.appendAll(1, members)
	rig.awaitLen(t, 1+members)

	var commits int
	rig.gate.onVerb(func(addr mem.Addr) {
		if addr != ringHwmWord {
			return
		}
		if commits++; commits == 2 {
			rig.gate.Verbs.Close() //nolint:errcheck // severing the link is the point
		}
	})
	release()
	if err := <-first; err != nil {
		t.Fatalf("lone flight: %v", err)
	}
	for i := 0; i < members; i++ {
		if err := <-rest; err == nil {
			t.Errorf("member %d returned nil for an uncommitted flight", i)
		}
	}
	rig.expectFlights(t, 2, 1, members, members)

	if _, err := rig.host.Pump(); err != nil {
		t.Fatal(err)
	}
	if got := rig.host.JournalBytes(); len(got) != probeLen {
		t.Fatalf("standby exposes %d bytes, want only the first flight's %d", len(got), probeLen)
	}
	arena := rig.host.Endpoint().Arena()
	tail, _ := arena.ReadQword(hostRingBase + ringOffTail)
	if want := uint64((1 + members) * probeLen); tail != want {
		t.Fatalf("ring tail %d: the group's reservation (to %d) should be dead, not absent", tail, want)
	}

	cp := core.NewControlPlane()
	succ, state, err := TakeOver(cp, rig.host, rig.hostQP(t), 2, time.Minute, nil)
	if err != nil {
		t.Fatalf("TakeOver: %v", err)
	}
	if state.LastSeq != 1 {
		t.Fatalf("successor replayed through seq %d, want the clean prefix (1)", state.LastSeq)
	}
	if got := cp.Registry.Counter("controlha.journal.reconciled_reservations").Value(); got != 1 {
		t.Errorf("reconciled_reservations = %d, want 1", got)
	}
	if err := succ.Journal.Append(probe(1)); err != nil {
		t.Fatalf("successor append: %v", err)
	}
	if _, err := rig.host.Pump(); err != nil {
		t.Fatal(err)
	}
	if st, err := Replay(rig.host.JournalBytes()); err != nil || st.LastSeq != 2 {
		t.Fatalf("standby copy after takeover: seq %d, err %v", st.LastSeq, err)
	}
}

// TestJournalReadableDuringFlight: the journal's accessors take mu, which a
// flight no longer holds while it is on the wire, and swapping the
// replicator under a flight leaves that flight on the stream it started on.
func TestJournalReadableDuringFlight(t *testing.T) {
	rig := newFlightRig(t, 0)
	parked, release := rig.gate.hold(ringEpochWord)
	first := rig.appendAll(0, 1)
	<-parked

	if got := len(rig.j.Bytes()); got != probeLen {
		t.Errorf("Bytes() during a flight returned %d bytes, want the entry's %d", got, probeLen)
	}
	if es := rig.j.Entries(); len(es) != 1 || rig.j.Len() != 1 {
		t.Errorf("Entries()/Len() during a flight: %d / %d", len(es), rig.j.Len())
	}
	rig.j.SetReplicator(nil)
	release()
	if err := <-first; err != nil {
		t.Fatalf("flight whose replicator was swapped out: %v", err)
	}
	if got := rig.ldr.Rep.Replicated(); got != probeLen {
		t.Errorf("original stream committed %d bytes, want %d", got, probeLen)
	}
	if err := rig.j.Append(probe(1)); err != nil {
		t.Fatal(err)
	}
	rig.expectFlights(t, 1, 1, 0, 1) // the detached append stayed local
}

// BenchmarkJournalAppend prices an entry on the standby link under k
// closed-loop appenders (real Host, in-process fabric, DefaultLatency).
// One and two appenders pay the full four verbs per entry; more share them.
func BenchmarkJournalAppend(b *testing.B) {
	for _, k := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("%dappenders", k), func(b *testing.B) {
			host, err := NewHostWith(0, rdma.DefaultLatency())
			if err != nil {
				b.Fatal(err)
			}
			defer host.Close()
			fab := rdma.NewFabric()
			l, err := fab.Listen("standby")
			if err != nil {
				b.Fatal(err)
			}
			go host.Serve(l)
			conn, err := fab.Dial("standby")
			if err != nil {
				b.Fatal(err)
			}
			gate := &gatedVerbs{Verbs: rdma.NewQP(conn)}
			ldr, err := AttachLeader(core.NewControlPlane(), gate, 1, time.Minute)
			if err != nil {
				b.Fatal(err)
			}
			gate.verbs.Store(0)

			b.ResetTimer()
			var wg sync.WaitGroup
			for a := 0; a < k; a++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if err := ldr.Journal.Append(probe(i)); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			entries := float64(k * b.N)
			b.ReportMetric(0, "ns/op") // an op is k entries; ns/entry is the comparable number
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/entries, "ns/entry")
			b.ReportMetric(float64(gate.verbs.Load())/entries, "verbs/entry")
		})
	}
}
