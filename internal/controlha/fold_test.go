package controlha

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"rdx/internal/core"
	"rdx/internal/native"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// newTerm opens a leadership term on the rig's ring over a fresh QP: steal
// the lease (which acquires a vacant one too) and stamp the ring.
func (r *hostRig) newTerm(t *testing.T, id uint64) (*Lease, *Replicator) {
	t.Helper()
	mem, w, ring := r.connect(t)
	lease := NewLease(mem, w.Addr, id, time.Minute, nil, nil)
	if err := lease.Steal(); err != nil {
		t.Fatal(err)
	}
	rep := NewReplicator(mem, ring.Addr, 0, lease.Epoch(), nil)
	if err := rep.Activate(); err != nil {
		t.Fatal(err)
	}
	return lease, rep
}

// errClass names which typed journal error err is, so two errors built at
// different moments compare by class.
func errClass(err error) string {
	for _, c := range []error{ErrCorrupt, ErrTruncated, ErrBadSequence} {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	if err != nil {
		return "untyped: " + err.Error()
	}
	return ""
}

// checkFold asserts the property the hot standby rests on: after any pump,
// Host.State() is Replay(Host.JournalBytes()) — the same state, or the same
// class of error.
func checkFold(t *testing.T, h *Host) (*State, error) {
	t.Helper()
	want, wantErr := Replay(h.JournalBytes())
	got, gotErr := h.State()
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("folded state error %v, replay of the same bytes %v", gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("folded state diverged from replay after %d bytes:\n got %+v\nwant %+v", h.Consumed(), got, want)
	}
	return got, gotErr
}

// texturedAppends drives n sink calls of every entry type through j, with
// more publishes per key than a rollback stack holds, pumping at commit
// boundaries of varying width and checking the fold after each pump.
func texturedAppends(t *testing.T, h *Host, j *Journal, base, n int) {
	t.Helper()
	for i := base; i < base+n; i++ {
		node, hook := fmt.Sprintf("0x%d", i%3), []string{"ingress", "kv"}[i%2]
		blob, ver := uint64(0x100*(i%5+1)), uint64(i+1)
		d := core.Deployed{Blob: blob, Version: ver, Name: fmt.Sprintf("v%d", ver), Digest: fmt.Sprintf("sha256:%04d", i%5)}
		switch i % 11 {
		case 0:
			j.JournalValidate(d.Digest)
			j.JournalCompile(d.Digest, native.Arch(1))
		case 3:
			j.JournalStage(node, hook, d.Name, d.Digest, ver, blob)
		case 5:
			j.JournalRollback(node, hook, d)
		case 7:
			j.JournalClaim(node, blob)
		case 9:
			if i%4 == 1 {
				j.JournalReclaim(node, uint64(i))
			} else if err := j.JournalHandoff(uint64(i)); err != nil {
				t.Fatal(err)
			}
		default:
			j.JournalPublish(node, hook, d)
		}
		if i%(1+i%4) == 0 {
			if _, err := h.Pump(); err != nil {
				t.Fatalf("pump after append %d: %v", i, err)
			}
			checkFold(t, h)
		}
	}
}

// TestHostFoldMatchesReplay: a journal written over two leadership terms
// into a ring small enough to wrap many times, pumped at arbitrary commit
// boundaries, folds on the host into exactly what a replay of the pumped
// bytes yields — and TakeOver hands that state out having folded only the
// unpumped tail.
func TestHostFoldMatchesReplay(t *testing.T) {
	rig := newHostRig(t, 700)
	h := rig.host

	lease1, rep1 := rig.newTerm(t, 1)
	j1 := NewJournal(telemetry.NewRegistry())
	j1.SetFenceSource(lease1.Epoch)
	j1.SetReplicator(rep1)
	texturedAppends(t, h, j1, 0, 120)
	if _, err := h.Pump(); err != nil {
		t.Fatal(err)
	}
	st1, err := checkFold(t, h)
	if err != nil {
		t.Fatal(err)
	}
	if h.Consumed() < 4*h.RingCap() {
		t.Fatalf("ring did not wrap: %d bytes through a %d-byte ring", h.Consumed(), h.RingCap())
	}
	for k, hist := range st1.History {
		if len(hist) > core.RollbackDepth {
			t.Fatalf("%v: replayed stack holds %d entries, bound %d", k, len(hist), core.RollbackDepth)
		}
	}

	// Second term: sequence numbers carry on from the folded tail.
	lease2, rep2 := rig.newTerm(t, 2)
	j2 := NewJournal(telemetry.NewRegistry())
	j2.SeedSeq(st1.LastSeq)
	j2.SetFenceSource(lease2.Epoch)
	j2.SetReplicator(rep2)
	texturedAppends(t, h, j2, 120, 60)
	if _, err := h.Pump(); err != nil {
		t.Fatal(err)
	}

	// Leave a tail unpumped: TakeOver's final pump folds exactly that.
	j2.JournalPublish("0x9", "ingress", core.Deployed{Blob: 0x900, Version: 900, Name: "tail-1", Digest: "sha256:tail"})
	j2.JournalPublish("0x9", "ingress", core.Deployed{Blob: 0x901, Version: 901, Name: "tail-2", Digest: "sha256:tail"})
	cp := core.NewControlPlane()
	conn, err := rig.fab.Dial("standby")
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := TakeOver(cp, h, rdma.NewQP(conn), 3, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Replay(h.JournalBytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("takeover state diverged from replay:\n got %+v\nwant %+v", got, want)
	}
	if folded := cp.Registry.Histogram("controlha.takeover.replayed_entries"); folded.Count() != 1 || folded.Sum() != 2 {
		t.Fatalf("takeover folded %d entries itself over %d takeovers, want exactly the 2-entry tail", folded.Sum(), folded.Count())
	}
	// The snapshot is the caller's: mutating it leaves the host's fold alone.
	got.History[Key{Node: "0x9", Hook: "ingress"}][0].Reclaimed = true
	checkFold(t, h)
}

// TestHostFoldLatchesBadJournal: for corrupted, spliced, reordered and
// fence-regressed journals the host's fold fails with the class of error a
// replay of the same bytes does, keeps failing with that very error over
// later pumps of good bytes, and TakeOver returns it. A journal that only
// ends mid-entry is not latched: the fold resumes when the rest arrives.
func TestHostFoldLatchesBadJournal(t *testing.T) {
	entries := sampleJournal().Entries()
	encode := func(es []Entry) (out []byte) {
		for i := range es {
			out = append(out, es[i].Encode()...)
		}
		return out
	}
	valid := encode(entries)
	mutate := func(f func(es []Entry) []Entry) []byte {
		return encode(f(append([]Entry(nil), entries...)))
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2+3] ^= 0x80

	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"corrupt", corrupt, ErrCorrupt},
		{"reordered", mutate(func(es []Entry) []Entry { es[1], es[2] = es[2], es[1]; return es }), ErrBadSequence},
		{"spliced", mutate(func(es []Entry) []Entry { return append(es[:2], es[3:]...) }), ErrBadSequence},
		{"fence regressed", mutate(func(es []Entry) []Entry { es[len(es)-1].Fence = 0; return es }), ErrBadSequence},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newHostRig(t, 0)
			h := rig.host
			_, rep := rig.newTerm(t, 1)
			// Three commits, pumped one by one, so the bad entry arrives with
			// good state already folded in front of it.
			for _, cut := range [][2]int{{0, len(tc.data) / 3}, {len(tc.data) / 3, len(tc.data) / 2}, {len(tc.data) / 2, len(tc.data)}} {
				if err := rep.Append(tc.data[cut[0]:cut[1]]); err != nil {
					t.Fatal(err)
				}
				if _, err := h.Pump(); err != nil {
					t.Fatalf("a journal that does not replay must still pump: %v", err)
				}
				checkFold(t, h)
			}
			_, latched := checkFold(t, h)
			if !errors.Is(latched, tc.want) {
				t.Fatalf("fold error %v, want %v", latched, tc.want)
			}
			// Good bytes behind the bad entry change nothing.
			if err := rep.Append(valid); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Pump(); err != nil {
				t.Fatal(err)
			}
			if _, err := checkFold(t, h); err == nil || err.Error() != latched.Error() {
				t.Fatalf("error did not stay latched: %v, then %v", latched, err)
			}
			if got := h.Consumed(); got != uint64(len(tc.data)+len(valid)) {
				t.Fatalf("raw bytes stopped accumulating: consumed %d", got)
			}
			conn, err := rig.fab.Dial("standby")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := TakeOver(core.NewControlPlane(), h, rdma.NewQP(conn), 2, time.Minute, nil); !errors.Is(err, tc.want) {
				t.Fatalf("TakeOver over a latched fold: %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("truncated", func(t *testing.T) {
		rig := newHostRig(t, 0)
		h := rig.host
		_, rep := rig.newTerm(t, 1)
		cut := len(valid) - 5
		if err := rep.Append(valid[:cut]); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Pump(); err != nil {
			t.Fatal(err)
		}
		if _, err := checkFold(t, h); !errors.Is(err, ErrTruncated) {
			t.Fatalf("fold of a journal ending mid-entry: %v, want ErrTruncated", err)
		}
		if err := rep.Append(valid[cut:]); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Pump(); err != nil {
			t.Fatal(err)
		}
		if st, err := checkFold(t, h); err != nil || st.Entries != len(entries) {
			t.Fatalf("fold did not resume once the entry completed: %+v, %v", st, err)
		}
	})
}

// FuzzHostFoldSplits pushes arbitrary bytes through the real ring in
// commits whose widths the fuzzer picks, pumping after each one, through a
// ring small enough to wrap: whatever the bytes and however they were
// split, the host's fold must agree with a one-shot Replay of what it
// pumped — same state, or the same class of typed error.
func FuzzHostFoldSplits(f *testing.F) {
	for _, seed := range replayCorpus() {
		f.Add(seed, []byte{1})
		f.Add(seed, []byte{97, 3, 250, 41})
	}
	f.Fuzz(func(t *testing.T, data, widths []byte) {
		if len(data) > 1<<13 || len(widths) == 0 {
			return
		}
		rig := newHostRig(t, 1<<10)
		_, rep := rig.newTerm(t, 1)
		for i := 0; len(data) > 0; i++ {
			n := min(1+int(widths[i%len(widths)]), len(data))
			if err := rep.Append(data[:n]); err != nil {
				t.Fatal(err)
			}
			data = data[n:]
			if _, err := rig.host.Pump(); err != nil {
				t.Fatal(err)
			}
			checkFold(t, rig.host)
		}
	})
}

// takeoverCost pumps a history of h commit-only publishes (two generations
// alternating over four keys, so the state is the same size whatever h is)
// into a fresh host, then promotes successor after successor, each over a
// three-entry unpumped tail. It returns how many entries a TakeOver folded
// itself and the fewest bytes one allocated.
func takeoverCost(t *testing.T, h int) (folded int64, allocated uint64) {
	t.Helper()
	rig := newHostRig(t, 0)
	lease, rep := rig.newTerm(t, 1)
	publish := func(seq uint64) Entry {
		return Entry{Type: EntryPublish, Seq: seq, Fence: lease.Epoch(),
			Node: fmt.Sprintf("0x%d", seq%4), Hook: "ingress", Name: fmt.Sprintf("gen-%d", seq%2),
			Digest: fmt.Sprintf("sha256:%04d", seq%2), Version: seq, Blob: 0x1000 * (1 + seq%2)}
	}
	var flight []byte
	for seq := uint64(1); seq <= uint64(h); seq++ {
		e := publish(seq)
		flight = append(flight, e.Encode()...)
		if len(flight) > 64<<10 || seq == uint64(h) {
			if err := rep.Append(flight); err != nil {
				t.Fatal(err)
			}
			if _, err := rig.host.Pump(); err != nil {
				t.Fatal(err)
			}
			flight = flight[:0]
		}
	}
	tail := func(seq uint64) {
		for i := uint64(1); i <= 3; i++ {
			e := publish(seq + i)
			if err := rep.Append(e.Encode()); err != nil {
				t.Fatal(err)
			}
		}
	}
	tail(uint64(h))
	for trial := 0; trial < 3; trial++ {
		cp := core.NewControlPlane()
		conn, err := rig.fab.Dial("standby")
		if err != nil {
			t.Fatal(err)
		}
		// One verb first: the endpoint sizes its per-connection buffers on
		// accept, which is not the takeover's doing.
		qp := rdma.NewQP(conn)
		if _, err := qp.QueryMRs(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ldr, st, err := TakeOver(cp, rig.host, qp, uint64(2+trial), time.Minute, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if st.Entries != h+3*(trial+1) {
			t.Fatalf("history %d, trial %d: takeover state holds %d entries", h, trial, st.Entries)
		}
		folded = cp.Registry.Histogram("controlha.takeover.replayed_entries").Sum()
		if b := after.TotalAlloc - before.TotalAlloc; trial == 0 || b < allocated {
			allocated = b
		}
		lease, rep = ldr.Lease, ldr.Rep
		tail(st.LastSeq)
	}
	return folded, allocated
}

// TestTakeOverFlatInHistory: the outage path is O(tail), not O(history). A
// takeover behind 20 000 pumped entries folds exactly as many entries, and
// allocates about as many bytes, as one behind 1 000.
func TestTakeOverFlatInHistory(t *testing.T) {
	foldedShort, bytesShort := takeoverCost(t, 1000)
	foldedLong, bytesLong := takeoverCost(t, 20000)
	if foldedShort != 3 || foldedLong != 3 {
		t.Fatalf("takeover folded %d entries behind 1 000 and %d behind 20 000, want the 3-entry tail both times", foldedShort, foldedLong)
	}
	if bytesLong > 2*bytesShort || bytesShort > 2*bytesLong {
		t.Fatalf("takeover allocated %d B behind 1 000 entries and %d B behind 20 000: not flat in history", bytesShort, bytesLong)
	}
	t.Logf("takeover: %d B behind 1 000 entries, %d B behind 20 000", bytesShort, bytesLong)
}

// TestHostFoldUnderBackgroundPump is the -race target: the background pump
// goroutine, explicit pumps, State snapshots and TakeOver's final pump all
// meet on one host while a leader appends, and the promoted state is still
// a replay of what was pumped.
func TestHostFoldUnderBackgroundPump(t *testing.T) {
	rig := newHostRig(t, 0)
	h := rig.host
	lease, rep := rig.newTerm(t, 1)
	j := NewJournal(telemetry.NewRegistry())
	j.SetFenceSource(lease.Epoch)
	j.SetReplicator(rep)
	h.StartPump(100*time.Microsecond, t.Logf)

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				h.Pump() //nolint:errcheck // the ring cannot overrun: the pump keeps up
				st, err := h.State()
				if err != nil {
					t.Errorf("snapshot under pump: %v", err)
					return
				}
				if st.Entries < last {
					t.Errorf("snapshot under pump went backwards: %d entries after %d", st.Entries, last)
					return
				}
				last = st.Entries
			}
		}()
	}
	for i := 0; i < 400; i++ {
		j.JournalPublish(fmt.Sprintf("0x%d", i%3), "ingress", core.Deployed{
			Blob: uint64(0x100 * (1 + i%2)), Version: uint64(i + 1), Name: "gen", Digest: fmt.Sprintf("sha256:%04d", i%2)})
	}
	conn, err := rig.fab.Dial("standby")
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := TakeOver(core.NewControlPlane(), h, rdma.NewQP(conn), 2, time.Minute, nil)
	close(done)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want, err := Replay(j.Bytes()); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("promoted state is not the leader's journal replayed (%v):\n got %+v\nwant %+v", err, got, want)
	}
	checkFold(t, h)
}
